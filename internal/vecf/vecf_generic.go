//go:build !amd64

package vecf

func mulAccLanes(acc, x []float64, w []float64) { mulAccLanesGeneric(acc, x, w) }

func gtMask64(x []float64, thr float64) uint64 { return gtMask64Generic(x, thr) }

func convWin4(x, w []float64, off []int64, rowMask uint64, g []float64, sigma, thr float64, masks *[4]uint64) {
	convWin4Generic(x, w, off, rowMask, g, sigma, thr, masks)
}

func addRowLanes(acc, row []float64, laneWord uint64) {
	addRowLanesGeneric(acc, row, laneWord)
}
