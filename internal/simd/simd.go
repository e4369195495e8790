// Package simd hosts the hand-vectorised kernels behind the GP hot path:
// the fused multi-dot product that drives the packed Cholesky factorisation
// and the Matérn-5/2 distance→covariance transform that drives the cached
// Gram fill. On amd64 with AVX2+FMA (checked once at startup) both run in
// assembly; everywhere else they fall back to portable Go with unrolled
// scalar loops. The fallbacks compute the same quantities with the same
// operation order per element, but SIMD results may differ from scalar ones
// in the last few ulps (FMA contraction, vectorised exp) — callers get
// deterministic results within one process, not across architectures.
package simd

import "math"

// Enabled reports whether the assembly kernels are in use (for diagnostics
// and tests).
func Enabled() bool { return useAsm }

// DotUnroll is a four-accumulator scalar dot product. Splitting the sum
// across independent accumulators breaks the add-latency chain so the CPU
// keeps several multiply-adds in flight even without SIMD.
func DotUnroll(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= len(a); k += 4 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
		s2 += a[k+2] * b[k+2]
		s3 += a[k+3] * b[k+3]
	}
	var s float64
	for ; k < len(a); k++ {
		s += a[k] * b[k]
	}
	return s + s0 + s1 + s2 + s3
}

// Dot4 computes the four dot products p[:n]·q0[:n] … p[:n]·q3[:n] in one
// pass. Sharing the p loads across four columns is what lifts a triangular
// factorisation's inner loop from load-bound scalar speed to SIMD speed.
func Dot4(p, q0, q1, q2, q3 []float64, n int) (s0, s1, s2, s3 float64) {
	if useAsm && n >= 8 {
		return dot4Asm(&p[0], &q0[0], &q1[0], &q2[0], &q3[0], n)
	}
	return DotUnroll(p[:n], q0[:n]), DotUnroll(p[:n], q1[:n]),
		DotUnroll(p[:n], q2[:n]), DotUnroll(p[:n], q3[:n])
}

const (
	sqrt5   = 2.23606797749979   // math.Sqrt(5)
	fiveThd = 5.0 / 3.0          // Matérn-5/2 polynomial coefficient
	expLo   = -708.3964185322641 // below this e^x underflows to 0
)

// Matern52FromR2 transforms scaled squared distances into Matérn-5/2
// covariances in place:
//
//	v[i] = vr · (1 + s + 5/3·v[i]) · e^{−s},   s = √5·√v[i]
//
// matching gp.Cov.EvalR2 for the Matérn kernel to within a few ulps. This is
// the scalar-transform half of every cached-Gram NLML evaluation, so on
// amd64 it runs 4-wide in assembly, including a polynomial e^x.
func Matern52FromR2(v []float64, vr float64) {
	i := 0
	if useAsm && len(v) >= 4 {
		quads := len(v) &^ 3
		matern52Asm(&v[0], quads, vr)
		i = quads
	}
	for ; i < len(v); i++ {
		s := sqrt5 * math.Sqrt(v[i])
		v[i] = vr * (1 + s + fiveThd*v[i]) * math.Exp(-s)
	}
}

// Matern52ARD fuses the two passes of the ARD Gram fill — per-dimension
// distance accumulation and the Matérn-5/2 transform — into one kernel:
//
//	dst[p] = vr · (1 + s + 5/3·r²) · e^{−s},
//	r²     = Σ_k sqd[p·d+k] · inv2[k],   s = √5·√r²,   d = len(inv2)
//
// where sqd is the pair-major squared-difference tensor and inv2 the
// per-dimension 1/ℓ². The paper's 8-knob tuning space gets a dedicated
// AVX2+FMA fast path; other dimensions and non-amd64 builds take the
// portable loop. Like the rest of
// the package, asm and portable results agree to within a few ulps, not
// bit-for-bit.
func Matern52ARD(dst, sqd, inv2 []float64, vr float64) {
	d := len(inv2)
	n := len(dst)
	if len(sqd) < n*d {
		panic("simd: Matern52ARD sqd shorter than len(dst)*len(inv2)")
	}
	i := 0
	if d == 8 {
		if useAsm && n >= 4 {
			q := n &^ 3
			matern52ARD8Asm(&dst[0], &sqd[0], &inv2[0], q, vr)
			i = q
		}
		// Scalar tail (and the full portable path off amd64), unrolled with
		// named locals so the compiler drops the bounds checks.
		c0, c1, c2, c3 := inv2[0], inv2[1], inv2[2], inv2[3]
		c4, c5, c6, c7 := inv2[4], inv2[5], inv2[6], inv2[7]
		for ; i < n; i++ {
			row := sqd[i*8 : i*8+8 : i*8+8]
			r2 := row[0]*c0 + row[1]*c1 + row[2]*c2 + row[3]*c3 +
				row[4]*c4 + row[5]*c5 + row[6]*c6 + row[7]*c7
			s := sqrt5 * math.Sqrt(r2)
			dst[i] = vr * (1 + s + fiveThd*r2) * math.Exp(-s)
		}
		return
	}
	for ; i < n; i++ {
		row := sqd[i*d : i*d+d : i*d+d]
		var r2 float64
		for k := 0; k < d; k++ {
			r2 += row[k] * inv2[k]
		}
		s := sqrt5 * math.Sqrt(r2)
		dst[i] = vr * (1 + s + fiveThd*r2) * math.Exp(-s)
	}
}

// Axpy accumulates dst[i] += a·x[i] over len(dst) elements. It is the
// building block of the sparse-GP rank-1 updates (packed outer-product
// accumulation), so on amd64 it runs as an AVX2+FMA loop.
func Axpy(dst, x []float64, a float64) {
	n := len(dst)
	if len(x) < n {
		panic("simd: Axpy x shorter than dst")
	}
	i := 0
	if useAsm && n >= 4 {
		q := n &^ 3
		axpyAsm(&dst[0], &x[0], q, a)
		i = q
	}
	for ; i < n; i++ {
		dst[i] += a * x[i]
	}
}

// expFloor is the least argument ScaledExp's assembly path takes: from
// −708 up to 0, math.Exp's amd64 code runs straight through, with no
// underflow, denormal or overflow branch.
const expFloor = -708.0

// ScaledExp sets v[i] = vr·e^{v[i]} for every i, bit for bit what the
// scalar expression vr*math.Exp(v[i]) gives — unlike the package's other
// kernels, it is exact. On amd64 with AVX2+FMA it runs math.Exp's own
// algorithm four lanes at a time, in the FMA variant that math.Exp itself
// selects on such hardware, for arguments in [−708, 0] (a Gram fill's
// −r²/2); blocks holding any other argument, and other hardware, call
// math.Exp.
func ScaledExp(v []float64, vr float64) {
	i := 0
	if useAsm {
		for len(v)-i >= 4 {
			i += scaledExpAsm(&v[i], (len(v)-i)&^3, vr)
			if len(v)-i < 4 {
				break
			}
			// The assembly stopped at a block with an argument outside
			// its domain.
			for end := i + 4; i < end; i++ {
				v[i] = vr * math.Exp(v[i])
			}
		}
	}
	for ; i < len(v); i++ {
		v[i] = vr * math.Exp(v[i])
	}
}
