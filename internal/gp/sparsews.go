package gp

import (
	"math"

	"ppatuner/internal/mat"
	"ppatuner/internal/simd"
)

// sparseFitWS is the scratch space behind SparseGP's NLML loop. It mirrors
// fitWS for the DTC objective: the inducing set is frozen at construction
// (selected under the entry lengthscales, so the objective is continuous in
// the hyper-parameters) and the hyper-independent squared differences between
// training and inducing inputs are cached once. Each evaluation is then the
// Woodbury form of the DTC marginal likelihood,
//
//	log det(Q_ff + Λ) = log det Λ + log det B,   B = I + Σ_i c_i v_i v_iᵀ
//	yᵀ(Q_ff + Λ)⁻¹ y  = Σ_i c_i y_i² − ‖L_B⁻¹ z‖²,  z = Σ_i c_i y_i v_i
//
// with v_i = L_m⁻¹ k_u(x_i) and c_i = 1/λ_i, at O(n·m²) per evaluation and
// zero allocation in the hot loop. Memory is O(n·m·d) for the distance cache.
type sparseFitWS struct {
	n, ns, d int
	m, uSrc  int
	ard      bool

	// squu: packed inducing-pair squared differences (per-dim when ARD,
	// raw r² otherwise). squf: training×inducing, row-major [i*m+r].
	squu, squf []float64

	y              []float64 // standardised per task, training order
	sumY2S, sumY2T float64   // Σ y² per task (for the Λ⁻¹ quadratic)

	kuu  []float64 // packed K_uu workspace
	kfu  []float64 // n×m covariance workspace
	bmat []float64 // packed B workspace
	zvec []float64
	vbuf []float64
	inv2 []float64
	lm   mat.Cholesky
	lb   mat.Cholesky
}

// newSparseFitWS freezes s's inducing set under the current lengthscales and
// caches every hyper-independent quantity. Call s.standardise() first.
func newSparseFitWS(s *SparseGP) (*sparseFitWS, error) {
	_, u, uSrc, err := s.chooseInducing()
	if err != nil {
		return nil, err
	}
	n, m := s.N(), len(u)
	w := &sparseFitWS{
		n: n, ns: len(s.xs), d: s.dim,
		m: m, uSrc: uSrc,
		ard: len(s.cov.Len) > 1,
	}
	w.squu = packedSqDiffs(u, w.ard)
	w.squf = crossSqDiffs(s.trainXs(), u, w.ard)
	w.y = s.yStdAll()
	for i, yv := range w.y {
		if i < w.ns {
			w.sumY2S += yv * yv
		} else {
			w.sumY2T += yv * yv
		}
	}

	mp := mat.PackedLen(m)
	w.kuu = make([]float64, mp)
	w.kfu = make([]float64, n*m)
	w.bmat = make([]float64, mp)
	w.zvec = make([]float64, m)
	w.vbuf = make([]float64, m)
	w.inv2 = make([]float64, w.d)
	return w, nil
}

// fillCov rewrites the K_uu and K_fu workspaces for c's current
// hyper-parameters from the cached distances, including the ρ factor on
// cross-task entries and the diagonal jitter on K_uu.
//
//ppalint:noalloc
func (w *sparseFitWS) fillCov(c *core) {
	m := w.m
	mp := mat.PackedLen(m)
	vr := c.cov.Var
	if w.ard {
		for k, l := range c.cov.Len {
			w.inv2[k] = 1 / (l * l)
		}
		switch c.cov.Kind {
		case Matern52:
			simd.Matern52ARD(w.kuu[:mp], w.squu, w.inv2, vr)
			simd.Matern52ARD(w.kfu[:w.n*m], w.squf, w.inv2, vr)
		default:
			evalRows(w.kuu[:mp], w.squu, w.inv2, w.d, c.cov)
			evalRows(w.kfu[:w.n*m], w.squf, w.inv2, w.d, c.cov)
		}
	} else {
		inv2 := 1 / (c.cov.Len[0] * c.cov.Len[0])
		switch c.cov.Kind {
		case Matern52:
			for p, r2 := range w.squu {
				w.kuu[p] = r2 * inv2
			}
			simd.Matern52FromR2(w.kuu[:mp], vr)
			for p, r2 := range w.squf {
				w.kfu[p] = r2 * inv2
			}
			simd.Matern52FromR2(w.kfu[:w.n*m], vr)
		default:
			for p, r2 := range w.squu {
				w.kuu[p] = c.cov.EvalR2(r2 * inv2)
			}
			for p, r2 := range w.squf {
				w.kfu[p] = c.cov.EvalR2(r2 * inv2)
			}
		}
	}
	if c.hasSource {
		if rho := TransferFactor(c.a, c.b); rho != 1 {
			// K_uu: target-inducing rows × source-inducing columns.
			for i := w.uSrc; i < m; i++ {
				off := mat.PackedLen(i)
				seg := w.kuu[off : off+w.uSrc]
				for k := range seg {
					seg[k] *= rho
				}
			}
			// K_fu: source rows cross target-inducing columns; target rows
			// cross source-inducing columns.
			for i := 0; i < w.n; i++ {
				row := w.kfu[i*m : i*m+m]
				if i < w.ns {
					for r := w.uSrc; r < m; r++ {
						row[r] *= rho
					}
				} else {
					for r := 0; r < w.uSrc; r++ {
						row[r] *= rho
					}
				}
			}
		}
	}
	for i := 0; i < m; i++ {
		w.kuu[mat.PackedLen(i)+i] += 1e-8
	}
}

// evalRows applies cov's distance→covariance transform to each d-wide row of
// per-dimension squared differences (generic non-Matérn path).
//
//ppalint:noalloc
func evalRows(dst, sqd, inv2 []float64, d int, cov *Cov) {
	for p := range dst {
		row := sqd[p*d : p*d+d : p*d+d]
		var r2 float64
		for k := 0; k < d; k++ {
			r2 += row[k] * inv2[k]
		}
		dst[p] = cov.EvalR2(r2)
	}
}

// nlml evaluates the DTC negative log marginal likelihood under c's current
// hyper-parameters, reusing all workspace buffers. Returns +Inf when either
// m×m factorisation fails even with jitter.
//
//ppalint:noalloc
func (w *sparseFitWS) nlml(c *core) float64 {
	w.fillCov(c)
	m := w.m
	if err := w.lm.FactorizePacked(w.kuu, m, 1e-8, 6); err != nil {
		return math.Inf(1)
	}
	// B starts at identity; z at zero.
	for p := range w.bmat {
		w.bmat[p] = 0
	}
	for i := 0; i < m; i++ {
		w.bmat[mat.PackedLen(i)+i] = 1
	}
	for r := range w.zvec {
		w.zvec[r] = 0
	}
	cS := 1 / c.noiseS
	cT := 1 / c.noiseT
	for i := 0; i < w.n; i++ {
		c := cT
		if i < w.ns {
			c = cS
		}
		w.lm.SolveLInto(w.vbuf, w.kfu[i*m:i*m+m])
		mat.AddScaledOuterPacked(w.bmat, w.vbuf, c)
		simd.Axpy(w.zvec, w.vbuf, c*w.y[i])
	}
	if err := w.lb.FactorizePacked(w.bmat, m, 1e-10, 6); err != nil {
		return math.Inf(1)
	}
	w.lb.SolveLInto(w.vbuf, w.zvec)
	quad := cS*w.sumY2S + cT*w.sumY2T - mat.Dot(w.vbuf, w.vbuf)
	logdet := float64(w.ns)*math.Log(c.noiseS) + float64(w.n-w.ns)*math.Log(c.noiseT) + w.lb.LogDet()
	return 0.5*quad + 0.5*logdet + 0.5*float64(w.n)*log2pi
}
