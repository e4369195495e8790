package simd

import (
	"math"
	"math/rand"
	"testing"
)

func TestDot4MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 4, 7, 8, 9, 15, 16, 31, 64, 127, 200} {
		p := make([]float64, n)
		qs := make([][]float64, 4)
		for k := range qs {
			qs[k] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			p[i] = rng.NormFloat64()
			for k := range qs {
				qs[k][i] = rng.NormFloat64()
			}
		}
		s0, s1, s2, s3 := Dot4(p, qs[0], qs[1], qs[2], qs[3], n)
		got := []float64{s0, s1, s2, s3}
		for k := range qs {
			var want float64
			for i := 0; i < n; i++ {
				want += p[i] * qs[k][i]
			}
			if diff := math.Abs(got[k] - want); diff > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("n=%d col=%d: got %g want %g (diff %g)", n, k, got[k], want, diff)
			}
		}
	}
}

func TestMatern52FromR2MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13, 64, 257} {
		r2 := make([]float64, n)
		for i := range r2 {
			switch i % 4 {
			case 0:
				r2[i] = 0 // diagonal entries are exact zeros
			case 1:
				r2[i] = rng.Float64() * 1e-6 // near-duplicate points
			default:
				// Up to the largest scaled distance the bounded length-scales
				// admit (ℓ ≥ 0.02 over the unit box ⇒ r² ≲ 8/0.02² = 2·10⁴).
				r2[i] = rng.Float64() * 2e4
			}
		}
		vr := 0.5 + rng.Float64()
		got := append([]float64(nil), r2...)
		Matern52FromR2(got, vr)
		for i, v := range r2 {
			s := sqrt5 * math.Sqrt(v)
			want := vr * (1 + s + fiveThd*v) * math.Exp(-s)
			if v == 0 && got[i] != vr {
				t.Fatalf("n=%d i=%d: r2=0 must give exactly vr=%g, got %g", n, i, vr, got[i])
			}
			diff := math.Abs(got[i] - want)
			if diff > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("n=%d i=%d r2=%g: got %g want %g (rel %g)", n, i, v, got[i], want, diff/math.Max(want, 1e-300))
			}
		}
	}
}

// TestMatern52FromR2Underflow checks that distances far beyond the clamp
// threshold come back as zero rather than garbage exponent bits.
func TestMatern52FromR2Underflow(t *testing.T) {
	v := []float64{1e12, 1e12, 1e12, 1e12}
	Matern52FromR2(v, 1.0)
	for i, x := range v {
		if x != 0 || math.Signbit(x) && x == 0 {
			if x != 0 {
				t.Fatalf("lane %d: want 0 for underflow, got %g", i, x)
			}
		}
	}
}

// edgeLens are the lengths the kernel dispatchers branch on: empty input,
// scalar-tail-only inputs (1, 3), and one each side of the 4-lane and 8-lane
// block sizes (4k±1), plus a few longer mixed cases.
var edgeLens = []int{0, 1, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 31, 32, 33, 63, 64, 65}

// TestDot4EdgeLengths drives Dot4 through every dispatch boundary on
// whatever path (asm or portable) is live in this binary; the amd64-only
// TestKernelsAcrossPaths re-runs it with each path forced.
func TestDot4EdgeLengths(t *testing.T) { testDot4EdgeLengths(t) }

func testDot4EdgeLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range edgeLens {
		p := make([]float64, n)
		qs := make([][]float64, 4)
		for k := range qs {
			qs[k] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			p[i] = rng.NormFloat64()
			for k := range qs {
				qs[k][i] = rng.NormFloat64()
			}
		}
		s0, s1, s2, s3 := Dot4(p, qs[0], qs[1], qs[2], qs[3], n)
		got := []float64{s0, s1, s2, s3}
		for k := range qs {
			want := 0.0
			for i := 0; i < n; i++ {
				want += p[i] * qs[k][i]
			}
			if diff := math.Abs(got[k] - want); diff > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("n=%d col=%d: got %g want %g (diff %g)", n, k, got[k], want, diff)
			}
		}
	}
}

// TestMatern52FromR2EdgeLengths covers the quad/tail split of the in-place
// transform at every boundary length.
func TestMatern52FromR2EdgeLengths(t *testing.T) { testMatern52FromR2EdgeLengths(t) }

func testMatern52FromR2EdgeLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range edgeLens {
		r2 := make([]float64, n)
		for i := range r2 {
			switch i % 3 {
			case 0:
				r2[i] = 0
			case 1:
				r2[i] = rng.Float64() * 1e-6
			default:
				r2[i] = rng.Float64() * 2e4
			}
		}
		vr := 0.5 + rng.Float64()
		got := append([]float64(nil), r2...)
		Matern52FromR2(got, vr)
		for i, v := range r2 {
			s := sqrt5 * math.Sqrt(v)
			want := vr * (1 + s + fiveThd*v) * math.Exp(-s)
			if v == 0 && got[i] != vr {
				t.Fatalf("n=%d i=%d: r2=0 must give exactly vr=%g, got %g", n, i, vr, got[i])
			}
			if diff := math.Abs(got[i] - want); diff > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("n=%d i=%d r2=%g: got %g want %g", n, i, v, got[i], want)
			}
		}
	}
}

// TestMatern52ARDMatchesScalar checks the fused distance+covariance kernel
// against the plain two-pass scalar computation, across dispatch-boundary
// lengths and the full distance range the bounded lengthscales admit. The
// asm paths accumulate r² in a different association order than the scalar
// loop, so the tolerance is a little wider than the pure-transform tests
// (the r² ulps are amplified by s in e^{−s}).
func TestMatern52ARDMatchesScalar(t *testing.T) { testMatern52ARDMatchesScalar(t) }

func testMatern52ARDMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, d := range []int{1, 3, 5, 8} {
		inv2 := make([]float64, d)
		for k := range inv2 {
			inv2[k] = 0.25 + 2*rng.Float64()
		}
		for _, n := range edgeLens {
			sqd := make([]float64, n*d)
			for p := 0; p < n; p++ {
				if p%5 == 0 {
					continue // whole-row zeros: the r2=0 diagonal case
				}
				for k := 0; k < d; k++ {
					sqd[p*d+k] = rng.Float64() * 2e3
				}
			}
			vr := 0.5 + rng.Float64()
			dst := make([]float64, n)
			Matern52ARD(dst, sqd, inv2, vr)
			for p := 0; p < n; p++ {
				var r2 float64
				for k := 0; k < d; k++ {
					r2 += sqd[p*d+k] * inv2[k]
				}
				s := sqrt5 * math.Sqrt(r2)
				want := vr * (1 + s + fiveThd*r2) * math.Exp(-s)
				if r2 == 0 && dst[p] != vr {
					t.Fatalf("d=%d n=%d p=%d: r2=0 must give exactly vr=%g, got %g", d, n, p, vr, dst[p])
				}
				if diff := math.Abs(dst[p] - want); diff > 5e-12*(1+math.Abs(want)) {
					t.Fatalf("d=%d n=%d p=%d r2=%g: got %g want %g (diff %g)", d, n, p, r2, dst[p], want, diff)
				}
			}
		}
	}
}

// TestAxpyEdgeLengths checks the FMA accumulate kernel at every dispatch
// boundary.
func TestAxpyEdgeLengths(t *testing.T) { testAxpyEdgeLengths(t) }

func testAxpyEdgeLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range edgeLens {
		dst := make([]float64, n)
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			dst[i] = rng.NormFloat64()
			x[i] = rng.NormFloat64()
		}
		a := rng.NormFloat64()
		want := make([]float64, n)
		for i := range want {
			want[i] = dst[i] + a*x[i]
		}
		Axpy(dst, x, a)
		for i := range dst {
			if diff := math.Abs(dst[i] - want[i]); diff > 1e-13*(1+math.Abs(want[i])) {
				t.Fatalf("n=%d i=%d: got %g want %g", n, i, dst[i], want[i])
			}
		}
	}
}

func BenchmarkMatern52FromR2(b *testing.B) {
	n := 20100 // packed length of a 200-point Gram matrix
	src := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range src {
		src[i] = rng.Float64() * 100
	}
	buf := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		Matern52FromR2(buf, 1.3)
	}
}

func BenchmarkMatern52ARD(b *testing.B) {
	const d = 8
	n := 20100 // packed length of a 200-point Gram matrix
	sqd := make([]float64, n*d)
	rng := rand.New(rand.NewSource(4))
	for i := range sqd {
		sqd[i] = rng.Float64() * 50
	}
	inv2 := make([]float64, d)
	for k := range inv2 {
		inv2[k] = 1 + rng.Float64()
	}
	dst := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Matern52ARD(dst, sqd, inv2, 1.3)
	}
}

// TestScaledExpMatchesMathExp pins ScaledExp to the scalar expression bit
// for bit, over the assembly's domain, its edges, and arguments outside it
// that must fall back to math.Exp.
func TestScaledExpMatchesMathExp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs []float64
	for i := 0; i < 200000; i++ {
		switch i % 4 {
		case 0:
			xs = append(xs, -rng.Float64()*720) // a few past the floor
		case 1:
			xs = append(xs, -rng.ExpFloat64()) // near zero, where r² is small
		case 2:
			xs = append(xs, -0.5*rng.Float64()*rng.Float64()*60)
		default:
			xs = append(xs, -rng.Float64()*1e-3)
		}
	}
	xs = append(xs, 0, math.Copysign(0, -1), -708, math.Nextafter(-708, 0), math.Nextafter(-708, -1000),
		-745.2, -1e6, math.Inf(-1), math.NaN(), 1e-300, 3.5, 710, math.Inf(1), -0.5*math.Ln2, -math.Ln2*1021.5)
	for _, vr := range []float64{1, 0.37, 2.5e3} {
		got := append([]float64(nil), xs...)
		ScaledExp(got, vr)
		for i, x := range xs {
			want := vr * math.Exp(x)
			if math.Float64bits(got[i]) != math.Float64bits(want) && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
				t.Fatalf("vr=%g x=%v: ScaledExp %v (%#x), vr*math.Exp %v (%#x)", vr, x, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
			}
		}
	}
}
