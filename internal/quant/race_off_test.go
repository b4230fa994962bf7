//go:build !race

package quant

const raceEnabled = false
