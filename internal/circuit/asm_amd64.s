//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 kernels for the batch replay hot paths. Bit-identity contract:
// every SIMD slot executes the pure-Go kernel's floating-point
// operations in the same order — VMULPD/VMULSD followed by
// VSUBPD/VSUBSD or VADDPD/VADDSD, never VFMADD — so each lane's
// result is identical to the scalar kernel's at the bit level.
// R14/R15 are deliberately unused (g register / dynlink scratch).

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func substAVX2(idx []int, coef []float64, rows, nFwd int, y []float64, L int)
//
// The whole row program (see rowProg) over all L lanes of the
// lane-minor array y, in place. Per row, o = idx[0] and the k
// columns cols = idx[2:2+k] are already scaled by L; for each lane l,
//
//	s = y[o+l] − Σ_e coef[e] * y[cols[e]+l]   (e ascending)
//	y[o+l] = s            forward rows (the first nFwd)
//	y[o+l] = s / diag     back rows, diag leading the row's coefs
//
// 8-lane blocks (two ymm accumulators), then a 4-lane block, then a
// VEX scalar tail, so every width from 1 runs here.
TEXT ·substAVX2(SB), NOSPLIT, $0-96
	MOVQ  idx_base+0(FP), SI
	MOVQ  coef_base+24(FP), BX
	MOVQ  y_base+64(FP), DI
	MOVQ  L+88(FP), R10
	XORQ  R8, R8           // r: program row
row:
	CMPQ  R8, rows+48(FP)
	JGE   done
	MOVQ  (SI), DX
	MOVQ  8(SI), CX        // k
	LEAQ  16(SI), R9       // cols
	LEAQ  (DI)(DX*8), DX   // DX = &y[o]
	CMPQ  R8, nFwd+56(FP)
	JLT   lanes
	VBROADCASTSD (BX), Y5  // back row: diagonal
	ADDQ  $8, BX
lanes:
	XORQ  R12, R12         // l
blk8:
	MOVQ  R10, AX
	SUBQ  R12, AX
	CMPQ  AX, $8
	JLT   blk4
	VMOVUPD (DX)(R12*8), Y0
	VMOVUPD 32(DX)(R12*8), Y1
	LEAQ  (DI)(R12*8), R11 // &y[l]
	XORQ  AX, AX
	TESTQ CX, CX
	JE    blk8end
blk8e:
	MOVQ  (R9)(AX*8), R13
	VBROADCASTSD (BX)(AX*8), Y2
	VMULPD (R11)(R13*8), Y2, Y3
	VMULPD 32(R11)(R13*8), Y2, Y4
	VSUBPD Y3, Y0, Y0
	VSUBPD Y4, Y1, Y1
	INCQ  AX
	CMPQ  AX, CX
	JNE   blk8e
blk8end:
	CMPQ  R8, nFwd+56(FP)
	JLT   blk8st
	VDIVPD Y5, Y0, Y0
	VDIVPD Y5, Y1, Y1
blk8st:
	VMOVUPD Y0, (DX)(R12*8)
	VMOVUPD Y1, 32(DX)(R12*8)
	ADDQ  $8, R12
	JMP   blk8
blk4:
	CMPQ  AX, $4
	JLT   blk1
	VMOVUPD (DX)(R12*8), Y0
	LEAQ  (DI)(R12*8), R11
	XORQ  AX, AX
	TESTQ CX, CX
	JE    blk4end
blk4e:
	MOVQ  (R9)(AX*8), R13
	VBROADCASTSD (BX)(AX*8), Y2
	VMULPD (R11)(R13*8), Y2, Y3
	VSUBPD Y3, Y0, Y0
	INCQ  AX
	CMPQ  AX, CX
	JNE   blk4e
blk4end:
	CMPQ  R8, nFwd+56(FP)
	JLT   blk4st
	VDIVPD Y5, Y0, Y0
blk4st:
	VMOVUPD Y0, (DX)(R12*8)
	ADDQ  $4, R12
blk1:
	CMPQ  R12, R10
	JGE   rownext
	VMOVSD (DX)(R12*8), X0
	LEAQ  (DI)(R12*8), R11
	XORQ  AX, AX
	TESTQ CX, CX
	JE    blk1end
blk1e:
	MOVQ  (R9)(AX*8), R13
	VMOVSD (BX)(AX*8), X2
	VMULSD (R11)(R13*8), X2, X3
	VSUBSD X3, X0, X0
	INCQ  AX
	CMPQ  AX, CX
	JNE   blk1e
blk1end:
	CMPQ  R8, nFwd+56(FP)
	JLT   blk1st
	VDIVSD X5, X0, X0
blk1st:
	VMOVSD X0, (DX)(R12*8)
	INCQ  R12
	JMP   blk1
rownext:
	LEAQ  (R9)(CX*8), SI   // next row's idx
	LEAQ  (BX)(CX*8), BX   // next row's coefs
	INCQ  R8
	JMP   row
done:
	VZEROUPPER
	RET

// func romStep4AVX2(a *romStep4Args)
//
// Four ROM lanes per step: SIMD slot k holds lane l+k, whose modal
// coordinates sit at consecutive addresses in the lane-minor SoA
// store, so modal rows load and store as whole ymm vectors. Per slot
// the recurrence is romStepKernel's verbatim:
//
//	ut  = src[s] * rmul
//	acc = vstar + du*ut
//	pairs:   acc += c0*m0 + c1*m1
//	         mu0' = al*m0 + be*m1 + h0*ut
//	         mu1' = al*m1 − be*m0 + h1*ut
//	singles: acc += c*m0
//	         mu'  = al*m0 + h*ut
//	dst[s] = acc
TEXT ·romStep4AVX2(SB), NOSPLIT, $0-8
	MOVQ  a+0(FP), DI
	MOVQ  56(DI), R10       // muStride (bytes)
	VBROADCASTSD 32(DI), Y9 // du
	MOVQ  40(DI), AX
	VMOVUPD (AX), Y10       // vstar, 4 lanes
	VMOVUPD 128(DI), Y8     // rmul, 4 lanes
	MOVQ  160(DI), R13
	SHLQ  $3, R13           // n*8
	XORQ  R11, R11          // s*8
romstep:
	CMPQ  R11, R13
	JGE   romdone
	MOVQ  96(DI), AX        // src0
	VMOVSD (AX)(R11*1), X0
	MOVQ  104(DI), AX       // src1
	VMOVHPD (AX)(R11*1), X0, X0
	MOVQ  112(DI), AX       // src2
	VMOVSD (AX)(R11*1), X1
	MOVQ  120(DI), AX       // src3
	VMOVHPD (AX)(R11*1), X1, X1
	VINSERTF128 $1, X1, Y0, Y0
	VMULPD Y8, Y0, Y0       // ut = src * rmul
	VMULPD Y9, Y0, Y1
	VADDPD Y10, Y1, Y1      // acc = vstar + du*ut
	MOVQ  48(DI), BX        // mu column base (section offset 0)
	MOVQ  0(DI), SI         // pairs
	MOVQ  8(DI), CX
	TESTQ CX, CX
	JE    romsingles
rompair:
	VMOVUPD (BX), Y2        // m0
	VMOVUPD (BX)(R10*1), Y3 // m1
	VBROADCASTSD 32(SI), Y4 // c0
	VBROADCASTSD 40(SI), Y5 // c1
	VMULPD Y2, Y4, Y4
	VMULPD Y3, Y5, Y5
	VADDPD Y5, Y4, Y4       // c0*m0 + c1*m1
	VADDPD Y4, Y1, Y1       // acc +=
	VBROADCASTSD 0(SI), Y4  // al
	VBROADCASTSD 8(SI), Y5  // be
	VBROADCASTSD 16(SI), Y6 // h0
	VBROADCASTSD 24(SI), Y7 // h1
	VMULPD Y2, Y4, Y11      // al*m0
	VMULPD Y3, Y5, Y12      // be*m1
	VADDPD Y12, Y11, Y11
	VMULPD Y0, Y6, Y12      // h0*ut
	VADDPD Y12, Y11, Y11
	VMOVUPD Y11, (BX)       // mu0'
	VMULPD Y3, Y4, Y11      // al*m1
	VMULPD Y2, Y5, Y12      // be*m0
	VSUBPD Y12, Y11, Y11
	VMULPD Y0, Y7, Y12      // h1*ut
	VADDPD Y12, Y11, Y11
	VMOVUPD Y11, (BX)(R10*1) // mu1'
	LEAQ  (BX)(R10*2), BX
	ADDQ  $48, SI
	DECQ  CX
	JNE   rompair
romsingles:
	MOVQ  16(DI), SI        // singles
	MOVQ  24(DI), CX
	TESTQ CX, CX
	JE    romout
romsingle:
	VMOVUPD (BX), Y2        // m0
	VBROADCASTSD 16(SI), Y4 // c
	VMULPD Y2, Y4, Y4
	VADDPD Y4, Y1, Y1       // acc += c*m0
	VBROADCASTSD 0(SI), Y4  // al
	VBROADCASTSD 8(SI), Y5  // h
	VMULPD Y2, Y4, Y11
	VMULPD Y0, Y5, Y12
	VADDPD Y12, Y11, Y11
	VMOVUPD Y11, (BX)       // mu'
	ADDQ  R10, BX
	ADDQ  $24, SI
	DECQ  CX
	JNE   romsingle
romout:
	VEXTRACTF128 $1, Y1, X2
	MOVQ  64(DI), AX        // dst0
	VMOVSD X1, (AX)(R11*1)
	MOVQ  72(DI), AX        // dst1
	VMOVHPD X1, (AX)(R11*1)
	MOVQ  80(DI), AX        // dst2
	VMOVSD X2, (AX)(R11*1)
	MOVQ  88(DI), AX        // dst3
	VMOVHPD X2, (AX)(R11*1)
	ADDQ  $8, R11
	JMP   romstep
romdone:
	VZEROUPPER
	RET
