//go:build race

package quant

// raceEnabled reports that this test binary runs under the race
// detector, where sync.Pool intentionally drops items to widen the
// race surface — allocation-count assertions are meaningless there.
const raceEnabled = true
