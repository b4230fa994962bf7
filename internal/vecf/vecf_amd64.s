//go:build amd64

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func mulAccLanes64AVX2(acc, x, w *float64, m int)
//
// acc[c*64+i] += w[c] * x[i] for c in [0,m), i in [0,64). VMULPD then
// VADDPD — two separately rounded IEEE operations per element, never a
// fused multiply-add — so every lane matches the scalar expression
// acc += w*x bit for bit.
TEXT ·mulAccLanes64AVX2(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ m+24(FP), CX
	TESTQ CX, CX
	JZ   macdone

macw:
	VBROADCASTSD (DX), Y0
	MOVQ DI, R8
	MOVQ SI, R9
	MOVQ $8, BX // 8 iterations x 8 doubles = 64 lanes

maclanes:
	VMOVUPD (R9), Y1
	VMOVUPD 32(R9), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (R8), Y1, Y1
	VADDPD  32(R8), Y2, Y2
	VMOVUPD Y1, (R8)
	VMOVUPD Y2, 32(R8)
	ADDQ $64, R8
	ADDQ $64, R9
	DECQ BX
	JNZ  maclanes

	ADDQ $8, DX
	ADDQ $512, DI
	DECQ CX
	JNZ  macw

macdone:
	VZEROUPPER
	RET

// func gtMask64AVX2(x *float64, thr float64) uint64
//
// Bit i of the result is x[i] > thr (ordered greater-than: NaN lanes
// report false, matching the Go `>` operator). Walks the 16 quads from
// the top so each VMOVMSKPD nibble shifts into place with an immediate
// shift.
TEXT ·gtMask64AVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	VBROADCASTSD thr+8(FP), Y0
	ADDQ $480, SI // last quad first
	XORQ AX, AX
	MOVQ $16, CX

gtloop:
	SHLQ $4, AX
	VMOVUPD (SI), Y1
	VCMPPD  $0x0e, Y0, Y1, Y2 // GT_OS: Y1 > Y0 per lane
	VMOVMSKPD Y2, DX
	ORQ  DX, AX
	SUBQ $32, SI
	DECQ CX
	JNZ  gtloop

	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $8

// func convWin4AVX2(x, w *float64, off *int64, rowMask uint64, thr float64, noise *float64, sigma float64, masks *uint64)
//
// Fused four-filter window: per quad of lanes the four accumulators
// live in Y4-Y7 across every window row (ascending set bits of
// rowMask, VMULPD then VADDPD — never fused); when noise is non-nil the
// quad's 4×4 block of lane-major draws is transposed to one vector per
// filter (VUNPCKLPD/VUNPCKHPD, VPERM2F128) and each accumulator is
// multiplied by 1 + sigma·noise (VMULPD, VADDPD, VMULPD); then they
// compare against the broadcast threshold and pack the VMOVMSKPD
// nibbles into the four mask words. Quads walk from the top so each
// nibble shifts into place with an immediate shift, as in
// gtMask64AVX2.
TEXT ·convWin4AVX2(SB), NOSPLIT, $0-64
	MOVQ x+0(FP), SI
	MOVQ w+8(FP), DX
	MOVQ off+16(FP), R8
	MOVQ rowMask+24(FP), R9
	VBROADCASTSD thr+32(FP), Y0
	MOVQ noise+40(FP), DI
	TESTQ DI, DI
	JZ   cwstart
	VBROADCASTSD sigma+48(FP), Y3
	VBROADCASTSD one<>(SB), Y8
	ADDQ $1920, DI // noise: the last quad's lanes 60-63

cwstart:
	ADDQ $480, SI // last quad first
	XORQ R10, R10
	XORQ R11, R11
	XORQ R12, R12
	XORQ R13, R13
	MOVQ $16, CX

cwquad:
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ R9, BX
	TESTQ BX, BX
	JZ   cwnoise

cwrow:
	BSFQ BX, R14              // r = lowest set row
	MOVQ (R8)(R14*8), R15     // off[r], in elements
	VMOVUPD (SI)(R15*8), Y1   // this quad's four lanes of row r
	SHLQ $5, R14              // r*32 = weight-row byte offset
	VBROADCASTSD (DX)(R14*1), Y2
	VMULPD  Y1, Y2, Y2
	VADDPD  Y2, Y4, Y4
	VBROADCASTSD 8(DX)(R14*1), Y2
	VMULPD  Y1, Y2, Y2
	VADDPD  Y2, Y5, Y5
	VBROADCASTSD 16(DX)(R14*1), Y2
	VMULPD  Y1, Y2, Y2
	VADDPD  Y2, Y6, Y6
	VBROADCASTSD 24(DX)(R14*1), Y2
	VMULPD  Y1, Y2, Y2
	VADDPD  Y2, Y7, Y7
	LEAQ -1(BX), R14
	ANDQ R14, BX              // clear lowest set bit
	JNZ  cwrow

cwnoise:
	TESTQ DI, DI
	JZ   cwcmp
	VMOVUPD (DI), Y9          // lane a = 4q: filters 0-3
	VMOVUPD 32(DI), Y10       // lane b
	VMOVUPD 64(DI), Y11       // lane c
	VMOVUPD 96(DI), Y12       // lane d
	VUNPCKLPD Y10, Y9, Y13    // (a0 b0 a2 b2)
	VUNPCKHPD Y10, Y9, Y14    // (a1 b1 a3 b3)
	VUNPCKLPD Y12, Y11, Y15   // (c0 d0 c2 d2)
	VUNPCKHPD Y12, Y11, Y9    // (c1 d1 c3 d3)
	VPERM2F128 $0x20, Y15, Y13, Y10 // filter 0: (a0 b0 c0 d0)
	VPERM2F128 $0x31, Y15, Y13, Y12 // filter 2
	VPERM2F128 $0x20, Y9, Y14, Y11  // filter 1
	VPERM2F128 $0x31, Y9, Y14, Y13  // filter 3
	VMULPD  Y3, Y10, Y10      // sigma*g
	VADDPD  Y8, Y10, Y10      // 1 + sigma*g
	VMULPD  Y10, Y4, Y4
	VMULPD  Y3, Y11, Y11
	VADDPD  Y8, Y11, Y11
	VMULPD  Y11, Y5, Y5
	VMULPD  Y3, Y12, Y12
	VADDPD  Y8, Y12, Y12
	VMULPD  Y12, Y6, Y6
	VMULPD  Y3, Y13, Y13
	VADDPD  Y8, Y13, Y13
	VMULPD  Y13, Y7, Y7
	SUBQ $128, DI

cwcmp:
	SHLQ $4, R10
	VCMPPD $0x0e, Y0, Y4, Y1 // GT_OS: acc > thr per lane
	VMOVMSKPD Y1, AX
	ORQ  AX, R10
	SHLQ $4, R11
	VCMPPD $0x0e, Y0, Y5, Y1
	VMOVMSKPD Y1, AX
	ORQ  AX, R11
	SHLQ $4, R12
	VCMPPD $0x0e, Y0, Y6, Y1
	VMOVMSKPD Y1, AX
	ORQ  AX, R12
	SHLQ $4, R13
	VCMPPD $0x0e, Y0, Y7, Y1
	VMOVMSKPD Y1, AX
	ORQ  AX, R13
	SUBQ $32, SI
	DECQ CX
	JNZ  cwquad

	VZEROUPPER
	MOVQ masks+56(FP), DI
	MOVQ R10, (DI)
	MOVQ R11, 8(DI)
	MOVQ R12, 16(DI)
	MOVQ R13, 24(DI)
	RET

// func addRowLanesAVX2(acc, row *float64, m int64, laneWord uint64)
//
// acc[lane*m+c] += row[c] for every set bit lane of laneWord. Each
// element is one VADDPD/VADDSD lane — a single IEEE add, identical to
// the scalar loop. m is walked 4/2/1 doubles at a time.
TEXT ·addRowLanesAVX2(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ row+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ laneWord+24(FP), BX
	MOVQ DX, R9
	SHLQ $3, R9 // byte stride per lane

arlane:
	BSFQ  BX, AX
	IMULQ R9, AX
	LEAQ  (DI)(AX*1), R8 // &acc[lane*m]
	MOVQ  SI, R10
	MOVQ  DX, CX

arq4:
	CMPQ CX, $4
	JLT  arq2
	VMOVUPD (R10), Y1
	VADDPD  (R8), Y1, Y1
	VMOVUPD Y1, (R8)
	ADDQ $32, R10
	ADDQ $32, R8
	SUBQ $4, CX
	JMP  arq4

arq2:
	CMPQ CX, $2
	JLT  arq1
	VMOVUPD (R10), X1
	VADDPD  (R8), X1, X1
	VMOVUPD X1, (R8)
	ADDQ $16, R10
	ADDQ $16, R8
	SUBQ $2, CX

arq1:
	TESTQ CX, CX
	JZ    arnext
	VMOVSD (R10), X1
	VADDSD (R8), X1, X1
	VMOVSD X1, (R8)

arnext:
	LEAQ -1(BX), AX
	ANDQ AX, BX
	JNZ  arlane

	VZEROUPPER
	RET
