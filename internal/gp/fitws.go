package gp

import (
	"math"

	"ppatuner/internal/mat"
	"ppatuner/internal/simd"
)

// fitWS is the scratch space behind the Nelder–Mead NLML loop in Fit. The
// training inputs are fixed for the duration of a Fit call, so everything
// about them that the hyper-parameters cannot change is computed once here:
// the per-dimension pairwise squared differences (ARD) or the raw squared
// distances (isotropic), and the standardised outputs. Each NLML evaluation
// is then only a scalar transform of the cached distances plus one packed
// factorisation, with the Gram, Cholesky and solve buffers reused across all
// evaluations — the hot loop allocates nothing.
type fitWS struct {
	n, ns, d int
	ard      bool
	// sqd caches appendSqDiffs over every packed pair p = (i, j ≤ i) of
	// training inputs: sqd[p*d+k] = (x_i[k]-x_j[k])² when ARD, the unscaled
	// squared distance sqd[p] otherwise.
	sqd   []float64
	y     []float64 // outputs standardised per task, training order
	gram  []float64 // packed Gram workspace, rewritten every evaluation
	inv2  []float64 // per-dimension 1/ℓ² for the current hyper-parameters
	alpha []float64
	chol  mat.Cholesky
}

const log2pi = 1.8378770664093453 // log(2π)

// newFitWS caches the hyper-parameter-independent parts of c's training set.
// The outputs are standardised with c's current per-task constants, so call
// standardise first.
func newFitWS(c *core) *fitWS {
	n := c.N()
	w := &fitWS{n: n, ns: len(c.xs), d: c.dim, ard: len(c.cov.Len) > 1}
	w.sqd = packedSqDiffs(c.trainXs(), w.ard)
	w.y = c.yStdAll()
	w.gram = make([]float64, mat.PackedLen(n))
	w.inv2 = make([]float64, w.d)
	w.alpha = make([]float64, n)
	return w
}

// fillGram rebuilds the packed noisy Gram matrix K̃ + Λ for c's current
// hyper-parameters from the cached distances. It matches (*GP).gram entry
// for entry up to the ulp-level difference of accumulating Σ d²·(1/ℓ²)
// instead of Σ (d/ℓ)².
//
//ppalint:noalloc
func (w *fitWS) fillGram(c *core) {
	np := mat.PackedLen(w.n)
	gm := w.gram
	vr := c.cov.Var
	if w.ard {
		inv2 := w.inv2
		for k, l := range c.cov.Len {
			inv2[k] = 1 / (l * l)
		}
		d := w.d
		sq := w.sqd
		switch c.cov.Kind {
		case Matern52:
			// One fused pass: the kernel scales each row of cached squared
			// differences by 1/ℓ² and applies the distance→covariance
			// transform without a second sweep over the Gram buffer. The
			// paper's 8-dimensional tuning space hits the asm fast path.
			simd.Matern52ARD(gm[:np], sq, inv2, vr)
		case RBF:
			// EvalR2's RBF arm split in two passes: −r²/2 per entry, then
			// vr·e^x over the buffer, four lanes at a time and bit for bit
			// what the scalar arm computes. The first pass runs four
			// entries side by side: each still sums its own terms in
			// dimension order, but the four add chains overlap.
			p := 0
			for ; p+4 <= np; p += 4 {
				rows := sq[p*d : p*d+4*d : p*d+4*d]
				var r0, r1, r2, r3 float64
				for k, ik := range inv2[:d] {
					r0 += rows[k] * ik
					r1 += rows[d+k] * ik
					r2 += rows[2*d+k] * ik
					r3 += rows[3*d+k] * ik
				}
				gm[p], gm[p+1], gm[p+2], gm[p+3] = -0.5*r0, -0.5*r1, -0.5*r2, -0.5*r3
			}
			for ; p < np; p++ {
				row := sq[p*d : p*d+d : p*d+d]
				var r2 float64
				for k := 0; k < d; k++ {
					r2 += row[k] * inv2[k]
				}
				gm[p] = -0.5 * r2
			}
			simd.ScaledExp(gm[:np], vr)
		default:
			evalRows(gm[:np], sq, inv2, d, c.cov)
		}
	} else {
		inv2 := 1 / (c.cov.Len[0] * c.cov.Len[0])
		switch c.cov.Kind {
		case Matern52:
			for p, s := range w.sqd {
				gm[p] = s * inv2
			}
			simd.Matern52FromR2(gm[:np], vr)
		case RBF:
			for p, s := range w.sqd {
				gm[p] = -0.5 * (s * inv2)
			}
			simd.ScaledExp(gm[:np], vr)
		default:
			for p, s := range w.sqd {
				gm[p] = c.cov.EvalR2(s * inv2)
			}
		}
	}
	// Scale the cross-task block (target rows × source columns) by ρ. The
	// block is contiguous per row in packed layout, and hoisting ρ here keeps
	// TransferFactor's math.Pow out of the per-pair loop entirely.
	if c.hasSource {
		if rho := TransferFactor(c.a, c.b); rho != 1 {
			for i := w.ns; i < w.n; i++ {
				off := mat.PackedLen(i)
				seg := gm[off : off+w.ns]
				for k := range seg {
					seg[k] *= rho
				}
			}
		}
	}
	// Heteroscedastic task noise plus the fixed numerical jitter on the
	// diagonal (the kernel's own diagonal value is exactly Var).
	for i := 0; i < w.n; i++ {
		di := mat.PackedLen(i) + i
		if i < w.ns {
			gm[di] += c.noiseS + 1e-8
		} else {
			gm[di] += c.noiseT + 1e-8
		}
	}
}

// nlml evaluates the negative log marginal likelihood of the cached data
// under c's current hyper-parameters, reusing all workspace buffers. It
// applies the same jitter-retry ladder as the non-workspace path and returns
// +Inf when the Gram matrix is not positive definite even with jitter.
//
//ppalint:noalloc
func (w *fitWS) nlml(c *core) float64 {
	w.fillGram(c)
	if err := w.chol.FactorizePacked(w.gram, w.n, 1e-8, 6); err != nil {
		return math.Inf(1)
	}
	w.chol.SolveInto(w.alpha, w.y)
	return 0.5*mat.Dot(w.y, w.alpha) + 0.5*w.chol.LogDet() + 0.5*float64(w.n)*log2pi
}
