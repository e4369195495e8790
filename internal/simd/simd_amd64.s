//go:build amd64

#include "textflag.h"

// func dot4Asm(p, q0, q1, q2, q3 *float64, n int) (s0, s1, s2, s3 float64)
//
// Four simultaneous dot products sharing the p loads. Eight YMM
// accumulators (two per column, k unrolled by 8) keep enough FMAs in
// flight to cover the FMA latency; the loop is load-bound at ~10 vector
// loads per 32 multiply-adds.
TEXT ·dot4Asm(SB), NOSPLIT, $0-80
	MOVQ p+0(FP), SI
	MOVQ q0+8(FP), R8
	MOVQ q1+16(FP), R9
	MOVQ q2+24(FP), R10
	MOVQ q3+32(FP), R11
	MOVQ n+40(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   quad

loop8:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VFMADD231PD (R8), Y8, Y0
	VFMADD231PD 32(R8), Y9, Y4
	VFMADD231PD (R9), Y8, Y1
	VFMADD231PD 32(R9), Y9, Y5
	VFMADD231PD (R10), Y8, Y2
	VFMADD231PD 32(R10), Y9, Y6
	VFMADD231PD (R11), Y8, Y3
	VFMADD231PD 32(R11), Y9, Y7
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	DECQ DX
	JNZ  loop8

quad:
	TESTQ $4, CX
	JZ    merge
	VMOVUPD (SI), Y8
	VFMADD231PD (R8), Y8, Y0
	VFMADD231PD (R9), Y8, Y1
	VFMADD231PD (R10), Y8, Y2
	VFMADD231PD (R11), Y8, Y3
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11

merge:
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3

	// The tail accumulates in X10..X13, NOT the low lanes of Y0..Y3: VEX
	// scalar ops zero bits 128..255 of their destination, which would wipe
	// the vector partial sums before the horizontal reduce.
	VXORPD X10, X10, X10
	VXORPD X11, X11, X11
	VXORPD X12, X12, X12
	VXORPD X13, X13, X13
	ANDQ $3, CX
	JZ   reduce

tail:
	VMOVSD (SI), X8
	VMOVSD (R8), X9
	VFMADD231SD X9, X8, X10
	VMOVSD (R9), X9
	VFMADD231SD X9, X8, X11
	VMOVSD (R10), X9
	VFMADD231SD X9, X8, X12
	VMOVSD (R11), X9
	VFMADD231SD X9, X8, X13
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ CX
	JNZ  tail

reduce:
	VEXTRACTF128 $1, Y0, X8
	VADDPD       X8, X0, X0
	VHADDPD      X0, X0, X0
	VADDSD       X10, X0, X0
	VMOVSD       X0, s0+48(FP)
	VEXTRACTF128 $1, Y1, X8
	VADDPD       X8, X1, X1
	VHADDPD      X1, X1, X1
	VADDSD       X11, X1, X1
	VMOVSD       X1, s1+56(FP)
	VEXTRACTF128 $1, Y2, X8
	VADDPD       X8, X2, X2
	VHADDPD      X2, X2, X2
	VADDSD       X12, X2, X2
	VMOVSD       X2, s2+64(FP)
	VEXTRACTF128 $1, Y3, X8
	VADDPD       X8, X3, X3
	VHADDPD      X3, X3, X3
	VADDSD       X13, X3, X3
	VMOVSD       X3, s3+72(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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

// func matern52Asm(v *float64, n int, vr float64)
//
// In-place Matérn-5/2 transform of scaled squared distances, four lanes per
// iteration: s = √5·√r2, then vr·(1 + s + 5/3·r2)·e^{−s} with e^x computed
// as 2^k·P(r) (round-to-nearest range reduction, degree-11 Taylor P, 2^k
// assembled directly in the exponent bits). Constants live in ·maternTab;
// see its layout comment in simd_amd64.go.
TEXT ·matern52Asm(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSD vr+16(FP), Y15
	LEAQ ·maternTab(SB), DX
	SHRQ $2, CX
	JZ   m52done

m52loop:
	VMOVUPD (SI), Y1             // r2
	VSQRTPD Y1, Y2
	VMULPD  (DX), Y2, Y2         // s = sqrt5 * sqrt(r2)
	VMOVUPD 32(DX), Y3
	VADDPD  Y2, Y3, Y3           // 1 + s
	VMULPD  64(DX), Y1, Y4
	VADDPD  Y4, Y3, Y3           // A = 1 + s + (5/3) r2
	VXORPD  Y0, Y0, Y0
	VSUBPD  Y2, Y0, Y0           // y = -s
	VCMPPD  $0x0d, 96(DX), Y0, Y8 // underflow mask: y >= expLo (all-ones when e^y is representable)
	VMAXPD  96(DX), Y0, Y0       // clamp so the 2^k exponent bits stay sane
	VMULPD  128(DX), Y0, Y4
	VROUNDPD $0, Y4, Y4          // k = round(y*log2e)
	VMOVAPD Y0, Y5
	VFNMADD231PD 160(DX), Y4, Y5 // r = y - k*ln2hi
	VFNMADD231PD 192(DX), Y4, Y5 // r -= k*ln2lo
	VMOVUPD 256(DX), Y6          // Horner from 1/11!
	VFMADD213PD 288(DX), Y5, Y6
	VFMADD213PD 320(DX), Y5, Y6
	VFMADD213PD 352(DX), Y5, Y6
	VFMADD213PD 384(DX), Y5, Y6
	VFMADD213PD 416(DX), Y5, Y6
	VFMADD213PD 448(DX), Y5, Y6
	VFMADD213PD 480(DX), Y5, Y6
	VFMADD213PD 512(DX), Y5, Y6
	VFMADD213PD 544(DX), Y5, Y6
	VFMADD213PD 576(DX), Y5, Y6
	VFMADD213PD 608(DX), Y5, Y6  // P(r) = e^r
	VCVTPD2DQY Y4, X7
	VPMOVSXDQ X7, Y7
	VPADDQ 224(DX), Y7, Y7
	VPSLLQ $52, Y7, Y7           // 2^k in the exponent bits
	VMULPD Y7, Y6, Y6
	VMULPD Y3, Y6, Y6
	VMULPD Y15, Y6, Y6
	VANDPD Y8, Y6, Y6            // zero lanes whose exponent underflowed
	VMOVUPD Y6, (SI)
	ADDQ $32, SI
	DECQ CX
	JNZ  m52loop

m52done:
	VZEROUPPER
	RET

// func axpyAsm(dst, x *float64, n int, a float64)
//
// dst[i] += a*x[i] for i < n, n a multiple of 4. Two independent FMA
// accumulator streams cover the FMA latency; the sparse-GP rank-1 updates
// call this once per packed matrix row.
TEXT ·axpyAsm(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Y15
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   axquad

axloop8:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VFMADD231PD (SI), Y15, Y0
	VFMADD231PD 32(SI), Y15, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ DX
	JNZ  axloop8

axquad:
	TESTQ $4, CX
	JZ    axdone
	VMOVUPD (DI), Y0
	VFMADD231PD (SI), Y15, Y0
	VMOVUPD Y0, (DI)

axdone:
	VZEROUPPER
	RET

// func matern52ARD8Asm(dst, sqd, inv2 *float64, n int, vr float64)
//
// Fused ARD distance+covariance for d=8, four rows per iteration: each row's
// eight squared differences are scaled by inv2 into 4-lane partials, a 4×4
// transpose-reduce (VHADDPD + VPERM2F128) packs the four row sums into one
// register, and the Matérn-5/2 pipeline of matern52Asm finishes in registers.
// n is a multiple of 4; constants live in ·maternTab.
TEXT ·matern52ARD8Asm(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ sqd+8(FP), SI
	MOVQ inv2+16(FP), BX
	MOVQ n+24(FP), CX
	VBROADCASTSD vr+32(FP), Y15
	LEAQ ·maternTab(SB), DX
	VMOVUPD (BX), Y14            // inv2[0..3]
	VMOVUPD 32(BX), Y13          // inv2[4..7]
	SHRQ $2, CX
	JZ   ard8done

ard8loop:
	// Per-row 4-lane partials: lane l of row r holds d_l·c_l + d_{l+4}·c_{l+4}.
	VMOVUPD     (SI), Y8
	VMULPD      Y14, Y8, Y8
	VFMADD231PD 32(SI), Y13, Y8  // row a
	VMOVUPD     64(SI), Y9
	VMULPD      Y14, Y9, Y9
	VFMADD231PD 96(SI), Y13, Y9  // row b
	VMOVUPD     128(SI), Y10
	VMULPD      Y14, Y10, Y10
	VFMADD231PD 160(SI), Y13, Y10 // row c
	VMOVUPD     192(SI), Y11
	VMULPD      Y14, Y11, Y11
	VFMADD231PD 224(SI), Y13, Y11 // row d

	// 4×4 transpose-reduce: Y1 = [r²a, r²b, r²c, r²d].
	VHADDPD    Y9, Y8, Y8        // [a01, b01, a23, b23]
	VHADDPD    Y11, Y10, Y10     // [c01, d01, c23, d23]
	VPERM2F128 $0x20, Y10, Y8, Y9 // [a01, b01, c01, d01]
	VPERM2F128 $0x31, Y10, Y8, Y10 // [a23, b23, c23, d23]
	VADDPD     Y10, Y9, Y1

	// Matérn-5/2 of the four r² values (same pipeline as matern52Asm).
	VSQRTPD Y1, Y2
	VMULPD  (DX), Y2, Y2         // s = sqrt5 * sqrt(r2)
	VMOVUPD 32(DX), Y3
	VADDPD  Y2, Y3, Y3           // 1 + s
	VMULPD  64(DX), Y1, Y4
	VADDPD  Y4, Y3, Y3           // A = 1 + s + (5/3) r2
	VXORPD  Y0, Y0, Y0
	VSUBPD  Y2, Y0, Y0           // y = -s
	VCMPPD  $0x0d, 96(DX), Y0, Y8 // underflow mask: y >= expLo
	VMAXPD  96(DX), Y0, Y0
	VMULPD  128(DX), Y0, Y4
	VROUNDPD $0, Y4, Y4          // k = round(y*log2e)
	VMOVAPD Y0, Y5
	VFNMADD231PD 160(DX), Y4, Y5 // r = y - k*ln2hi
	VFNMADD231PD 192(DX), Y4, Y5 // r -= k*ln2lo
	VMOVUPD 256(DX), Y6          // Horner from 1/11!
	VFMADD213PD 288(DX), Y5, Y6
	VFMADD213PD 320(DX), Y5, Y6
	VFMADD213PD 352(DX), Y5, Y6
	VFMADD213PD 384(DX), Y5, Y6
	VFMADD213PD 416(DX), Y5, Y6
	VFMADD213PD 448(DX), Y5, Y6
	VFMADD213PD 480(DX), Y5, Y6
	VFMADD213PD 512(DX), Y5, Y6
	VFMADD213PD 544(DX), Y5, Y6
	VFMADD213PD 576(DX), Y5, Y6
	VFMADD213PD 608(DX), Y5, Y6  // P(r) = e^r
	VCVTPD2DQY Y4, X7
	VPMOVSXDQ X7, Y7
	VPADDQ 224(DX), Y7, Y7
	VPSLLQ $52, Y7, Y7           // 2^k in the exponent bits
	VMULPD Y7, Y6, Y6
	VMULPD Y3, Y6, Y6
	VMULPD Y15, Y6, Y6
	VANDPD Y8, Y6, Y6            // zero lanes whose exponent underflowed
	VMOVUPD Y6, (DI)
	ADDQ $256, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  ard8loop

ard8done:
	VZEROUPPER
	RET

// func scaledExpAsm(v *float64, n int, vr float64) int
//
// In-place v[i] = vr·e^{v[i]}, four lanes per iteration, replaying the FMA
// path of math.Exp's amd64 assembly (exp_amd64.s) operation for operation:
// k = round(x·log2e), r = (x − k·ln2u − k·ln2l)/16, a degree-8 Taylor
// polynomial in Horner form, four squarings as r·(r+2), then the scale by
// 2^k built in the exponent bits. Arguments in [−708, 0] never reach that
// code's special cases, so a block is processed only when all four lanes
// are in range; the first block that is not ends the loop. Returns the
// number of elements transformed. Constants live in ·expTab.
TEXT ·scaledExpAsm(SB), NOSPLIT, $0-32
	MOVQ v+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSD vr+16(FP), Y15
	LEAQ ·expTab(SB), DX
	XORQ AX, AX
	SHRQ $2, CX
	JZ   sedone

seloop:
	VMOVUPD (SI), Y0                // x
	VCMPPD  $0x0d, (DX), Y0, Y1     // x >= -708 (false for NaN)
	VCMPPD  $0x02, 32(DX), Y0, Y2   // x <= 0
	VANDPD  Y2, Y1, Y1
	VMOVMSKPD Y1, BX
	CMPQ    BX, $15
	JNE     sedone
	VMULPD  64(DX), Y0, Y1          // x·log2e
	VCVTPD2DQY Y1, X2               // k, rounded to nearest even
	VCVTDQ2PD X2, Y1
	VFNMADD231PD 96(DX), Y1, Y0     // x -= k·ln2u
	VFNMADD231PD 128(DX), Y1, Y0    // x -= k·ln2l
	VMULPD  160(DX), Y0, Y0         // r = x/16
	VMOVUPD 192(DX), Y3             // Horner from 1/8!
	VFMADD213PD 224(DX), Y0, Y3
	VFMADD213PD 256(DX), Y0, Y3
	VFMADD213PD 288(DX), Y0, Y3
	VFMADD213PD 320(DX), Y0, Y3
	VFMADD213PD 352(DX), Y0, Y3
	VFMADD213PD 384(DX), Y0, Y3
	VFMADD213PD 416(DX), Y0, Y3
	VMULPD  Y3, Y0, Y0              // e^r − 1
	VADDPD  448(DX), Y0, Y3         // four squarings: y = y·(y+2)
	VMULPD  Y3, Y0, Y0
	VADDPD  448(DX), Y0, Y3
	VMULPD  Y3, Y0, Y0
	VADDPD  448(DX), Y0, Y3
	VMULPD  Y3, Y0, Y0
	VADDPD  448(DX), Y0, Y3
	VFMADD213PD 416(DX), Y3, Y0     // ... the last one plus 1: e^{16r}
	VPMOVSXDQ X2, Y4
	VPADDQ  480(DX), Y4, Y4
	VPSLLQ  $52, Y4, Y4             // 2^k in the exponent bits
	VMULPD  Y4, Y0, Y0
	VMULPD  Y15, Y0, Y0
	VMOVUPD Y0, (SI)
	ADDQ    $32, SI
	ADDQ    $4, AX
	DECQ    CX
	JNZ     seloop

sedone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET
