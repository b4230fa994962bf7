//go:build amd64

package vecf

// hasAVX2 gates the vector kernels. Detection follows the Intel
// manual's sequence: CPUID.1:ECX must report AVX and OSXSAVE, XGETBV
// must confirm the OS saves XMM+YMM state, and CPUID.7:EBX bit 5
// reports AVX2 itself. Baseline amd64 without AVX2 takes the generic
// kernels, which are bit-identical by the package contract.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

func mulAccLanes(acc, x []float64, w []float64) {
	if hasAVX2 {
		mulAccLanes64AVX2(&acc[0], &x[0], &w[0], len(w))
		return
	}
	mulAccLanesGeneric(acc, x, w)
}

func gtMask64(x []float64, thr float64) uint64 {
	if hasAVX2 {
		return gtMask64AVX2(&x[0], thr)
	}
	return gtMask64Generic(x, thr)
}

func convWin4(x, w []float64, off []int64, rowMask uint64, g []float64, sigma, thr float64, masks *[4]uint64) {
	if hasAVX2 {
		var gp *float64
		if g != nil {
			gp = &g[0]
		}
		convWin4AVX2(&x[0], &w[0], &off[0], rowMask, thr, gp, sigma, &masks[0])
		return
	}
	convWin4Generic(x, w, off, rowMask, g, sigma, thr, masks)
}

func addRowLanes(acc, row []float64, laneWord uint64) {
	if hasAVX2 {
		addRowLanesAVX2(&acc[0], &row[0], int64(len(row)), laneWord)
		return
	}
	addRowLanesGeneric(acc, row, laneWord)
}

// Implemented in vecf_amd64.s.

//go:noescape
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)

//go:noescape
func mulAccLanes64AVX2(acc, x, w *float64, m int)

//go:noescape
func gtMask64AVX2(x *float64, thr float64) uint64

//go:noescape
func convWin4AVX2(x, w *float64, off *int64, rowMask uint64, thr float64, noise *float64, sigma float64, masks *uint64)

//go:noescape
func addRowLanesAVX2(acc, row *float64, m int64, laneWord uint64)
