package sei_test

import (
	"fmt"

	"sei"
)

// The dataset generator is deterministic: the same seed always yields
// the same samples, with classes balanced.
func ExampleSyntheticDataset() {
	d := sei.SyntheticDataset(20, 1)
	counts := d.ClassCounts()
	fmt.Println(d.Len(), counts[0], counts[9])
	// Output: 20 2 2
}

// MapCosts compares the three hardware structures without any
// training — geometry alone determines interface counts.
func ExampleMapCosts() {
	train, _ := sei.SyntheticSplit(200, 1, 1)
	net := sei.TrainTableNetwork(2, train, 1, 1)
	q, err := sei.Quantize(net, train)
	if err != nil {
		fmt.Println(err)
		return
	}
	costs, _ := sei.MapCosts(q, 512)
	for _, c := range costs {
		fmt.Printf("%s saves %.0f%%\n", c.Structure, 100*c.EnergySaving)
	}
	// Output:
	// DAC+ADC saves 0%
	// 1-bit-Input+ADC saves 4%
	// SEI saves 94%
}

// Device models are plain values; non-idealities are opt-in fields.
func ExampleDefaultDeviceModel() {
	m := sei.DefaultDeviceModel()
	fmt.Println(m.Bits, m.Levels())
	// Output: 4 16
}
