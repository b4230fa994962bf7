package rram

// MaxCrossbarSize is the largest fabricable crossbar edge the paper
// assumes (512×512, limited by IR drop [15]).
const MaxCrossbarSize = 512
