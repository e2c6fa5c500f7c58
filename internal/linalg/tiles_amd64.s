#include "textflag.h"

// func mulTilesAVX2(out []float64, ldo int, a []float64, ars, aks int, b []float64, ldb, kdim, tiles int)
// For t < tiles, r < 4, c < 8, k < kdim: out[r·ldo + 8t + c] += b[k·ldb + 8t + c] · a[r·ars + k·aks],
// k ascending, every product kept. A tile holds its 4×8 sums in Y0–Y7 across k: per k two
// loads of b and four broadcasts of a. VMULPD then VADDPD, never FMA, in axpyAVX2's operand
// order: b·a, then product + sum, so of two NaNs the same one wins.
TEXT ·mulTilesAVX2(SB), NOSPLIT, $0-120
	MOVQ out_base+0(FP), DI
	MOVQ ldo+24(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R14
	MOVQ a_base+32(FP), SI
	MOVQ ars+56(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	MOVQ aks+64(FP), R12
	SHLQ $3, R12
	MOVQ b_base+72(FP), BX
	MOVQ ldb+96(FP), DX
	SHLQ $3, DX
	MOVQ tiles+112(FP), AX
	TESTQ AX, AX
	JZ   mdone

mtile:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R8*1), Y2
	VMOVUPD 32(DI)(R8*1), Y3
	VMOVUPD (DI)(R8*2), Y4
	VMOVUPD 32(DI)(R8*2), Y5
	VMOVUPD (DI)(R14*1), Y6
	VMOVUPD 32(DI)(R14*1), Y7
	MOVQ    SI, R9
	MOVQ    BX, R13
	MOVQ    kdim+104(FP), CX
	TESTQ   CX, CX
	JZ      mstore
	PCALIGN $32

mk:
	VMOVUPD      (R13), Y8
	VMOVUPD      32(R13), Y9
	VBROADCASTSD (R9), Y10
	VMULPD       Y10, Y8, Y12
	VADDPD       Y0, Y12, Y0
	VMULPD       Y10, Y9, Y13
	VADDPD       Y1, Y13, Y1
	VBROADCASTSD (R9)(R10*1), Y11
	VMULPD       Y11, Y8, Y14
	VADDPD       Y2, Y14, Y2
	VMULPD       Y11, Y9, Y15
	VADDPD       Y3, Y15, Y3
	VBROADCASTSD (R9)(R10*2), Y10
	VMULPD       Y10, Y8, Y12
	VADDPD       Y4, Y12, Y4
	VMULPD       Y10, Y9, Y13
	VADDPD       Y5, Y13, Y5
	VBROADCASTSD (R9)(R11*1), Y11
	VMULPD       Y11, Y8, Y14
	VADDPD       Y6, Y14, Y6
	VMULPD       Y11, Y9, Y15
	VADDPD       Y7, Y15, Y7
	ADDQ         R12, R9
	ADDQ         DX, R13
	DECQ         CX
	JNZ          mk

mstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R8*1)
	VMOVUPD Y3, 32(DI)(R8*1)
	VMOVUPD Y4, (DI)(R8*2)
	VMOVUPD Y5, 32(DI)(R8*2)
	VMOVUPD Y6, (DI)(R14*1)
	VMOVUPD Y7, 32(DI)(R14*1)
	ADDQ    $64, DI
	ADDQ    $64, BX
	DECQ    AX
	JNZ     mtile

mdone:
	VZEROUPPER
	RET

// GRAM adds one row's product of new column XP to the four sums in ACC: the row's value x
// of XP, broadcast, times T (that row of the four old columns), ANDed with (x ≠ 0) — NaN
// counts as non-zero, as in the Go loop — then sum + product. The Go loop's four-entry
// body multiplies old·new and adds the product to the sum, and so does this.
#define GRAM(T, XP, OFF, ACC) \
	VBROADCASTSD OFF(XP)(AX*8), Y12; \
	VCMPPD       $4, Y15, Y12, Y13;   \
	VMULPD       Y12, T, Y14;         \
	VANDPD       Y13, Y14, Y14;       \
	VADDPD       Y14, ACC, ACC

// GRAMROW is GRAM for the four new columns.
#define GRAMROW(T, OFF) \
	GRAM(T, R8, OFF, Y0);  \
	GRAM(T, R9, OFF, Y1);  \
	GRAM(T, R10, OFF, Y2); \
	GRAM(T, R11, OFF, Y3)

// func gramTileAVX2(out []float64, ldo int, xs, cs [][]float64, lo, hi int)
// For q < 4, l < 4 and rows k in [lo, hi), ascending: out[q·ldo + l] += cs[l][k] · xs[q][k],
// skipping a zero xs[q][k]. The sums of a tile sit in Y0–Y3 (lane l: old column l). Four
// rows at a time, the four old columns are transposed in registers (VUNPCKLPD/VUNPCKHPD,
// then VPERM2F128), so row k of all four is one vector; a last one to three rows are
// gathered one at a time.
TEXT ·gramTileAVX2(SB), NOSPLIT, $0-96
	MOVQ xs_base+32(FP), AX
	MOVQ 0(AX), R8
	MOVQ 24(AX), R9
	MOVQ 48(AX), R10
	MOVQ 72(AX), R11
	MOVQ cs_base+56(FP), AX
	MOVQ 0(AX), R12
	MOVQ 24(AX), R13
	MOVQ 48(AX), SI
	MOVQ 72(AX), DI
	MOVQ out_base+0(FP), BX
	MOVQ ldo+24(FP), DX
	SHLQ $3, DX
	LEAQ (DX)(DX*2), R14
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(DX*1), Y1
	VMOVUPD (BX)(DX*2), Y2
	VMOVUPD (BX)(R14*1), Y3
	VXORPD  Y15, Y15, Y15
	MOVQ    lo+80(FP), AX
	MOVQ    hi+88(FP), CX
	SUBQ    $3, CX
	PCALIGN $32

g4:
	CMPQ       AX, CX
	JGE        gtail
	VMOVUPD    (R12)(AX*8), Y4
	VMOVUPD    (R13)(AX*8), Y5
	VMOVUPD    (SI)(AX*8), Y6
	VMOVUPD    (DI)(AX*8), Y7
	VUNPCKLPD  Y5, Y4, Y8
	VUNPCKHPD  Y5, Y4, Y9
	VUNPCKLPD  Y7, Y6, Y10
	VUNPCKHPD  Y7, Y6, Y11
	VPERM2F128 $0x20, Y10, Y8, Y4
	VPERM2F128 $0x20, Y11, Y9, Y5
	VPERM2F128 $0x31, Y10, Y8, Y6
	VPERM2F128 $0x31, Y11, Y9, Y7
	GRAMROW(Y4, 0)
	GRAMROW(Y5, 8)
	GRAMROW(Y6, 16)
	GRAMROW(Y7, 24)
	ADDQ       $4, AX
	JMP        g4

gtail:
	ADDQ $3, CX

g1:
	CMPQ        AX, CX
	JGE         gstore
	VMOVSD      (R12)(AX*8), X4
	VMOVHPD     (R13)(AX*8), X4, X4
	VMOVSD      (SI)(AX*8), X5
	VMOVHPD     (DI)(AX*8), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	GRAMROW(Y4, 0)
	INCQ        AX
	JMP         g1

gstore:
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(DX*1)
	VMOVUPD Y2, (BX)(DX*2)
	VMOVUPD Y3, (BX)(R14*1)
	VZEROUPPER
	RET
