#include "textflag.h"
// func axpyAVX2(y []float64, a float64, x []float64): y[j] += a*x[j], eight a loop
// in two YMM registers, then one at a time. VMULPD then VADDPD, never FMA: the Go loop's
// two roundings and operand order (x·a, then product + y), so of two NaNs the product wins.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), DI
	MOVQ         x_base+32(FP), SI
	MOVQ         x_len+40(FP), CX
	VBROADCASTSD a+24(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           tail
	PCALIGN      $64 // the 50-byte loop in one cache line
loop8:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     loop8
tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    tail
done:
	VZEROUPPER
	RET

// func cpuHasAVX2() bool: CPUID.1 AVX and OSXSAVE (so leaf 0xD, hence 7, exists), XCR0 XMM|YMM, CPUID.7 AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB   $0, ret+0(FP)
	MOVL   $1, AX
	CPUID
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    no
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	BTL    $5, BX
	JCC    no
	MOVB   $1, ret+0(FP)
no:
	RET
