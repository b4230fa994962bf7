package arch

import (
	"strings"
	"testing"

	"sei/internal/nn"
	"sei/internal/quant"
	"sei/internal/seicore"
)

// net1Geometry builds Network 1's geometry from an untrained (weights
// are irrelevant to geometry) Table-2 network.
func netGeometry(t *testing.T, id int) []LayerGeom {
	t.Helper()
	q, err := quant.Extract(nn.NewTableNetwork(id, 1), []int{1, 28, 28})
	if err != nil {
		t.Fatal(err)
	}
	geoms, err := GeometryOf(q)
	if err != nil {
		t.Fatal(err)
	}
	return geoms
}

func compare(t *testing.T, id, maxCrossbar int) []StructureCost {
	t.Helper()
	costs, err := Compare(netGeometry(t, id), maxCrossbar)
	if err != nil {
		t.Fatal(err)
	}
	return costs
}

func TestGeometryNetwork1(t *testing.T) {
	geoms := netGeometry(t, 1)
	if len(geoms) != 3 {
		t.Fatalf("got %d layers, want 3", len(geoms))
	}
	// Table 2: weight matrix 1 = 25×12, matrix 2 = 300×64, FC 1024×10.
	checks := []struct {
		n, m, uses, unique int
	}{
		{25, 12, 24 * 24, 28 * 28},
		{300, 64, 8 * 8, 12 * 12 * 12},
		{1024, 10, 1, 1024},
	}
	for i, want := range checks {
		g := geoms[i]
		if g.N != want.n || g.M != want.m || g.Uses != want.uses || g.UniqueInputs != want.unique {
			t.Fatalf("layer %d geometry %+v, want %+v", i, g, want)
		}
	}
	if !geoms[2].IsFC || geoms[0].IsFC {
		t.Fatal("IsFC flags wrong")
	}
}

func TestGeometryOpsMatchNetworkOps(t *testing.T) {
	for id := 1; id <= 3; id++ {
		net := nn.NewTableNetwork(id, 1)
		geoms := netGeometry(t, id)
		var total int64
		for _, g := range geoms {
			total += g.Ops()
		}
		if want := net.Ops([]int{1, 28, 28}); total != want {
			t.Fatalf("network %d geometry ops %d, want %d", id, total, want)
		}
	}
}

func TestMapDACADCCounts(t *testing.T) {
	geoms := netGeometry(t, 1)
	m, err := mapNetwork(geoms, seicore.StructDACADC, 512)
	if err != nil {
		t.Fatal(err)
	}
	conv2 := m.Layers[1]
	// 300 rows fit in one 512 block: ADC conversions = 64 uses... no:
	// uses=64, M=64, 4 crossbars, 1 row block → 64·64·4.
	if want := int64(64 * 64 * 4); conv2.Counts.ADCConversions != want {
		t.Fatalf("conv2 ADC conversions %d, want %d", conv2.Counts.ADCConversions, want)
	}
	// Per-row-per-use DAC conversions: 300 rows × 64 positions.
	if conv2.Counts.DACConversions != 300*64 {
		t.Fatalf("conv2 DAC conversions %d, want 19200", conv2.Counts.DACConversions)
	}
	fc := m.Layers[2]
	// FC: 1024 rows → 2 row blocks at 512 → 4·2 crossbars, ADC = 10·8.
	if fc.RowBlocks != 2 || fc.Counts.ADCConversions != 80 {
		t.Fatalf("FC rowBlocks %d ADC %d, want 2/80", fc.RowBlocks, fc.Counts.ADCConversions)
	}
	if fc.Inventory.DACs != 1024 || fc.Inventory.ADCs != 80 {
		t.Fatalf("FC inventory DACs %d ADCs %d", fc.Inventory.DACs, fc.Inventory.ADCs)
	}
	// DRAM fetch charged once, to the first layer.
	if m.Layers[0].Counts.DRAMBytes != 784 || m.Layers[1].Counts.DRAMBytes != 0 {
		t.Fatal("DRAM fetch accounting wrong")
	}
}

func TestMapSmallerCrossbarIncreasesADC(t *testing.T) {
	geoms := netGeometry(t, 1)
	big, _ := mapNetwork(geoms, seicore.StructDACADC, 512)
	small, err := mapNetwork(geoms, seicore.StructDACADC, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Conv2 (300 rows) splits into 2 blocks at 256 → ADC doubles.
	if small.Layers[1].Counts.ADCConversions != 2*big.Layers[1].Counts.ADCConversions {
		t.Fatalf("conv2 ADC at 256: %d, want double of %d",
			small.Layers[1].Counts.ADCConversions, big.Layers[1].Counts.ADCConversions)
	}
	// Total energy must rise — Table 5's 74.25 → 93.75 µJ pattern.
	_, eBig := big.Energy()
	_, eSmall := small.Energy()
	if eSmall.Total() <= eBig.Total() {
		t.Fatalf("smaller crossbars should cost more energy: %v vs %v", eSmall.Total(), eBig.Total())
	}
}

func TestMapSEIBlockCounts(t *testing.T) {
	geoms := netGeometry(t, 1)
	m, err := mapNetwork(geoms, seicore.StructSEI, 512)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: conv2 1200×64 → 3 blocks; FC 4096×10 → 8 blocks.
	if m.Layers[1].RowBlocks != 3 {
		t.Fatalf("SEI conv2 blocks %d, want 3", m.Layers[1].RowBlocks)
	}
	if m.Layers[2].RowBlocks != 8 {
		t.Fatalf("SEI FC blocks %d, want 8", m.Layers[2].RowBlocks)
	}
	// Input stage keeps DACs; deeper stages have none.
	if m.Layers[0].Inventory.DACs != 25 || m.Layers[1].Inventory.DACs != 0 {
		t.Fatal("SEI DAC inventory wrong")
	}
	// Conv stages use SAs, not ADCs.
	if m.Layers[1].Inventory.ADCs != 0 || m.Layers[1].Inventory.SAs != 64*3 {
		t.Fatalf("SEI conv2 interfaces: ADCs %d SAs %d", m.Layers[1].Inventory.ADCs, m.Layers[1].Inventory.SAs)
	}
	// FC reads out through per-block column ADCs.
	if m.Layers[2].Inventory.ADCs != 80 || m.Layers[2].Counts.ADCConversions != 80 {
		t.Fatalf("SEI FC ADCs %d conv %d, want 80/80", m.Layers[2].Inventory.ADCs, m.Layers[2].Counts.ADCConversions)
	}
}

// The headline Fig.-1 property: DAC+ADC interfaces dominate the
// baseline design.
func TestFig1InterfacesDominate(t *testing.T) {
	costs := compare(t, 1, 512)
	base := costs[0]
	if frac := base.Energy.InterfaceFraction(); frac < 0.98 {
		t.Fatalf("interface energy fraction %.4f, want ≥ 0.98", frac)
	}
	if frac := base.Area.InterfaceFraction(); frac < 0.98 {
		t.Fatalf("interface area fraction %.4f, want ≥ 0.98", frac)
	}
	perE, _ := base.Mapping.Energy()
	for i, e := range perE {
		if e.InterfaceFraction() < 0.9 {
			t.Fatalf("layer %d interface energy fraction %.4f, want ≥ 0.9", i, e.InterfaceFraction())
		}
	}
}

// The headline Table-5 property: SEI saves ≥95% energy vs DAC+ADC and
// ≥90% vs 1-bit+ADC; area saving lands in the paper's 74–86%+ band.
func TestTable5SavingsShape(t *testing.T) {
	for id := 1; id <= 3; id++ {
		costs := compare(t, id, 512)
		onebit, sei := costs[1], costs[2]
		saveSEIvsOne := 1 - sei.Energy.Total()/onebit.Energy.Total()
		// Paper Table 5: 96.52 / 94.37 / 95.89 % for networks 1–3.
		if sei.EnergySaving < 0.93 {
			t.Errorf("network %d: SEI energy saving %.4f, want ≥ 0.93", id, sei.EnergySaving)
		}
		if saveSEIvsOne < 0.90 {
			t.Errorf("network %d: SEI vs 1-bit+ADC saving %.4f, want ≥ 0.90", id, saveSEIvsOne)
		}
		if onebit.EnergySaving < 0.02 || onebit.EnergySaving > 0.45 {
			t.Errorf("network %d: 1-bit+ADC saving %.4f outside the paper's modest band", id, onebit.EnergySaving)
		}
		if sei.AreaSaving < 0.70 || sei.AreaSaving > 0.95 {
			t.Errorf("network %d: SEI area saving %.4f outside [0.70,0.95]", id, sei.AreaSaving)
		}
	}
}

// Section 3.2: the input layer's DACs are a small part of the baseline
// chip energy (paper: ≈3%).
func TestInputDACsSmallFraction(t *testing.T) {
	geoms := netGeometry(t, 1)
	m, _ := mapNetwork(geoms, seicore.StructDACADC, 512)
	perE, totalE := m.Energy()
	inputDAC := perE[0].DAC
	if frac := inputDAC / totalE.Total(); frac > 0.10 {
		t.Fatalf("input DAC fraction %.4f, want ≤ 0.10", frac)
	}
}

// Section 5.3: SEI exceeds 2000 GOPs/J-scale efficiency, orders above
// the FPGA/GPU baselines.
func TestSEIEfficiency(t *testing.T) {
	for id := 1; id <= 3; id++ {
		costs := compare(t, id, 512)
		base, eff := costs[0].GOPsPerJ, costs[2].GOPsPerJ
		// The paper's >2000 GOPs/J headline comes from Network 1 (its op
		// counter also credits ~2× our MAC-only count); the small
		// networks are interface-bound and land lower there too.
		if id == 1 && eff < 800 {
			t.Errorf("network 1: SEI efficiency %.0f GOPs/J, want ≥ 800", eff)
		}
		if eff < 8*base {
			t.Errorf("network %d: SEI efficiency %.0f not ≫ baseline %.0f", id, eff, base)
		}
	}
}

func TestCompareOrderAndSavings(t *testing.T) {
	costs := compare(t, 2, 512)
	want := []seicore.Structure{seicore.StructDACADC, seicore.StructOneBitADC, seicore.StructSEI}
	if len(costs) != len(want) {
		t.Fatalf("%d entries, want %d", len(costs), len(want))
	}
	for i, c := range costs {
		if c.Mapping.Structure != want[i] || c.Mapping.MaxCrossbar != 512 {
			t.Fatalf("entry %d is %v@%d, want %v@512", i, c.Mapping.Structure, c.Mapping.MaxCrossbar, want[i])
		}
	}
	if costs[0].EnergySaving != 0 || costs[0].AreaSaving != 0 {
		t.Fatal("the DAC+ADC entry must carry no saving against itself")
	}
}

// Network 1's Conv 2 is 300×64: at crossbar 64 the merged structures
// fit it, but SEI needs a 65th (threshold) column.
func TestCompareNamesTheStructureThatCannotMap(t *testing.T) {
	_, err := Compare(netGeometry(t, 1), 64)
	if err == nil || !strings.Contains(err.Error(), "SEI") {
		t.Fatalf("Compare(network 1, 64) error %v, want one naming SEI", err)
	}
}

func TestMapValidation(t *testing.T) {
	geoms := netGeometry(t, 1)
	if _, err := mapNetwork(geoms, seicore.StructDACADC, 0); err == nil {
		t.Fatal("accepted zero crossbar size")
	}
	if _, err := mapNetwork(nil, seicore.StructSEI, 512); err == nil {
		t.Fatal("accepted empty geometry")
	}
	if _, err := mapNetwork(geoms, seicore.Structure(42), 512); err == nil {
		t.Fatal("accepted unknown structure")
	}
}

func TestTotalsAreSums(t *testing.T) {
	geoms := netGeometry(t, 2)
	m, _ := mapNetwork(geoms, seicore.StructSEI, 512)
	var adc int64
	for _, l := range m.Layers {
		adc += l.Counts.ADCConversions
	}
	if m.TotalCounts().ADCConversions != adc {
		t.Fatal("TotalCounts does not sum layers")
	}
	var cellsN int64
	for _, l := range m.Layers {
		cellsN += l.Inventory.Cells
	}
	if m.TotalInventory().Cells != cellsN {
		t.Fatal("TotalInventory does not sum layers")
	}
}
