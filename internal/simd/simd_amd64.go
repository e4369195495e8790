//go:build amd64

package simd

import "math"

// dot4Asm is the AVX2+FMA kernel in simd_amd64.s. It computes four dot
// products of p against q0..q3 over n elements, reading exactly n entries
// from each pointer.
func dot4Asm(p, q0, q1, q2, q3 *float64, n int) (s0, s1, s2, s3 float64)

// matern52Asm transforms n (a multiple of 4) scaled squared distances in
// place into Matérn-5/2 covariances; see Matern52FromR2. It reads its
// constants from maternTab.
func matern52Asm(v *float64, n int, vr float64)

// matern52ARD8Asm is the fused AVX2+FMA distance+covariance kernel for the
// d=8 ARD case: it consumes n (a multiple of 4) rows of 8 squared
// differences each, scales them by inv2, and writes the Matérn-5/2 value per
// row into dst. See Matern52ARD.
func matern52ARD8Asm(dst, sqd, inv2 *float64, n int, vr float64)

// axpyAsm accumulates dst[i] += a*x[i] for i < n (n a multiple of 4).
func axpyAsm(dst, x *float64, n int, a float64)

// scaledExpAsm sets v[i] = vr·e^{v[i]} four lanes at a time for i < n (n a
// multiple of 4), stopping before the first block of four with an argument
// outside [-708, 0]. It returns how many elements it transformed. See
// ScaledExp; its constants live in expTab.
func scaledExpAsm(v *float64, n int, vr float64) int

// cpuid executes the CPUID instruction with the given leaf/subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (requires OSXSAVE).
func xgetbv() (eax, edx uint32)

// useAsm reports whether the hardware and OS support the AVX2+FMA kernels:
// FMA and OSXSAVE in CPUID leaf 1, XMM+YMM state enabled in XCR0, and AVX2
// in leaf 7. The Go amd64 baseline (GOAMD64=v1) guarantees none of these, so
// the check runs once at startup.
var useAsm = func() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const fma, osxsave = 1 << 12, 1 << 27
	if c1&fma == 0 || c1&osxsave == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0
}()

// maternTab holds the constants for matern52Asm as 32-byte blocks (each
// value replicated into all four lanes). Block k lives at byte offset k·32:
//
//	0 √5 · 1 one · 2 5/3 · 3 exp clamp · 4 log2(e) · 5 ln2 hi · 6 ln2 lo ·
//	7 exponent bias 1023 as raw int64 · 8…19 Taylor 1/11! … 1/0! (Horner
//	order, highest degree first)
var maternTab [80]float64

func init() {
	vals := [20]float64{
		sqrt5, 1, fiveThd, expLo,
		1.4426950408889634,      // log2(e)
		6.93147180369123816e-1,  // ln2 high bits
		1.90821492927058770e-10, // ln2 low bits
		math.Float64frombits(1023),
		1.0 / 39916800, 1.0 / 3628800, 1.0 / 362880, 1.0 / 40320,
		1.0 / 5040, 1.0 / 720, 1.0 / 120, 1.0 / 24, 1.0 / 6, 0.5, 1, 1,
	}
	for k, v := range vals {
		for lane := 0; lane < 4; lane++ {
			maternTab[k*4+lane] = v
		}
	}
}

// expTab holds the constants of scaledExpAsm as 32-byte blocks (each value
// replicated into all four lanes). Block k lives at byte offset k·32:
//
//	0 domain floor −708 · 1 zero · 2 log2(e) · 3 ln2 upper · 4 ln2 lower ·
//	5 1/16 · 6…13 Taylor 1/8! … 1/2!, 1/1!, 1/0! as math.Exp spells them
//	(Horner order) · 14 two · 15 exponent bias 1023 as raw int64
//
// The values are the literals of math.Exp's amd64 assembly, so each lane
// repeats its arithmetic exactly.
var expTab [64]float64

func init() {
	vals := [16]float64{
		expFloor, 0,
		1.4426950408889634073599246810018920,                  // log2(e)
		0.69314718055966295651160180568695068359375,           // ln2 upper half
		0.28235290563031577122588448175013436025525412068e-12, // ln2 lower half
		0.0625,
		2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1,
		0.5, 1.0, 2.0,
		math.Float64frombits(1023),
	}
	for k, v := range vals {
		for lane := 0; lane < 4; lane++ {
			expTab[k*4+lane] = v
		}
	}
}
