package gp

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ppatuner/internal/mat"
	"ppatuner/internal/par"
	"ppatuner/internal/simd"
)

// SparseGP is the subset-of-regressors / DTC approximation of the transfer
// GP: m inducing points U ⊂ training inputs (selected deterministically by
// SelectInducing) replace the full Gram matrix with the Nyström form
// Q_ff = K_fu K_uu⁻¹ K_uf, taking every posterior operation from O(n³) to
// O(n·m²) with m ≪ n. The transfer kernel is untouched — cross-task entries
// carry the same Eq. (6) factor ρ as the exact GP — so a SparseGP is a drop-in
// Model wherever the campaign's observation count outgrows the exact solver.
//
// State kept between rebuilds (Λ = diag of per-task noises, c_i = 1/λ_i,
// y standardised per task):
//
//	Lm  = chol(K_uu)                               — prior factor
//	Σ   = K_uu + Σ_i c_i·k_u(x_i)·k_u(x_i)ᵀ,  LΣ = chol(Σ)
//	b   = Σ_i c_i·y_i·k_u(x_i),                αu = Σ⁻¹ b
//
// giving the DTC posterior for a target-task point x:
//
//	μ(x)  = k_u(x)ᵀ αu
//	σ²(x) = k(x,x) + βt⁻¹ − ‖Lm⁻¹k_u(x)‖² + ‖LΣ⁻¹k_u(x)‖²
//
// AddTarget is incremental: Σ and b absorb one rank-1 term, the cached
// per-candidate variance quadratics update by Sherman–Morrison in O(pool·m),
// and only the m×m factor is redone — no O(n) work at all. The inducing set
// is fixed between Rebuild/Fit calls; while it is still below the budget
// (early iterations, n ≤ m) every add triggers a cheap full rebuild instead,
// which keeps the approximation exact exactly when exactness is affordable.
type SparseGP struct {
	core
	m    int    // inducing budget
	seed uint64 // selection stream (see SelectInducing)

	// Posterior state, valid after Rebuild/Fit.
	u    [][]float64 // inducing inputs (views into xs/xt), source-first
	uIdx []int       // their indices in source-then-target training order
	uSrc int         // how many inducing points come from the source task

	lm     mat.Cholesky // chol(K_uu + jitter)
	sigma  []float64    // packed Σ
	ls     mat.Cholesky // chol(Σ)
	bvec   []float64
	alphaU []float64

	pool    [][]float64
	poolKu  [][]float64 // poolKu[p][r] = k̃(u_r, pool_p) (target-task column)
	poolQk  []float64   // ‖Lm⁻¹ k_u(pool_p)‖²  (fixed per rebuild)
	poolQs  []float64   // ‖LΣ⁻¹ k_u(pool_p)‖²  (updated per AddTarget)
	poolKpp []float64   // prior variance k(p,p) + βt⁻¹

	kuuBuf  []float64 // packed K_uu workspace
	kuBuf   []float64 // one k_u column
	wBuf    []float64 // Σ⁻¹ k_u scratch for the Sherman–Morrison update
	workers int
}

// NewSparse returns a sparse transfer GP over dim-dimensional inputs with an
// inducing budget of m points. seed drives the deterministic inducing-point
// selection; draw it from the run's seeded stream.
func NewSparse(kind CovKind, dim int, ard bool, m int, seed uint64) *SparseGP {
	if m <= 0 {
		m = DefaultSparseM
	}
	return &SparseGP{core: newCore(kind, dim, ard), m: m, seed: seed}
}

// ReserveAdds declares expected future AddTarget observations; target-side
// slices pre-grow so a campaign of adds appends in place. (The m×m posterior
// state is fixed-size, so unlike the exact GP nothing else needs headroom.)
func (s *SparseGP) ReserveAdds(n int) {
	if n <= 0 {
		return
	}
	if cap(s.xt)-len(s.xt) < n {
		nx := make([][]float64, len(s.xt), len(s.xt)+n)
		copy(nx, s.xt)
		s.xt = nx
	}
	if cap(s.yt)-len(s.yt) < n {
		ny := make([]float64, len(s.yt), len(s.yt)+n)
		copy(ny, s.yt)
		s.yt = ny
	}
}

// SetWorkers bounds the goroutines used for pool-cache rebuilds and the
// per-candidate Sherman–Morrison sweeps. Any value produces bit-identical
// results; n <= 1 stays sequential.
func (s *SparseGP) SetWorkers(n int) { s.workers = n }

// NInducing returns the current inducing-set size (≤ the budget m).
func (s *SparseGP) NInducing() int { return len(s.u) }

// InducingIdx returns a copy of the inducing-point indices in
// source-then-target training order (diagnostics and tests).
func (s *SparseGP) InducingIdx() []int { return append([]int(nil), s.uIdx...) }

// kuInto writes k̃(u_r, x) into dst for a point belonging to the source task
// (src=true) or target task (src=false), applying ρ to cross-task entries.
func (s *SparseGP) kuInto(dst []float64, x []float64, src bool, rho float64) {
	for r, ur := range s.u {
		v := s.cov.Eval(x, ur)
		if (r < s.uSrc) != src {
			v *= rho
		}
		dst[r] = v
	}
}

// chooseInducing selects min(m, N) inducing points under the current
// lengthscales. Indices are sorted ascending, which in source-then-target
// order means the inducing set is source-first — the same contiguous
// cross-task block structure the exact GP's packed Gram uses. u holds views
// into the training inputs; uSrc counts those from the source task.
func (s *SparseGP) chooseInducing() (idx []int, u [][]float64, uSrc int, err error) {
	all := s.trainXs()
	idx, err = SelectInducing(all, s.cov.Len, min(s.m, len(all)), s.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	sort.Ints(idx)
	u = make([][]float64, len(idx))
	for r, i := range idx {
		u[r] = all[i]
		if i < len(s.xs) {
			uSrc++
		}
	}
	return idx, u, uSrc, nil
}

// fillKuu writes the packed lower triangle of K_uu (+ jitter) into dst.
func (s *SparseGP) fillKuu(dst []float64) {
	rho := s.Rho()
	idx := 0
	for i, ui := range s.u {
		for j := 0; j <= i; j++ {
			v := s.cov.Eval(ui, s.u[j])
			if (i < s.uSrc) != (j < s.uSrc) {
				v *= rho
			}
			dst[idx] = v
			idx++
		}
		dst[idx-1] += 1e-8 // numerical jitter
	}
}

// Rebuild re-derives the whole sparse posterior for the current data and
// hyper-parameters: inducing selection, prior factor, information matrix
// Σ = K_uu + Σ_i c_i·k_u(x_i)k_u(x_i)ᵀ, weights αu, and (when attached) the
// pool cache. Cost O(n·m·(d+m)).
func (s *SparseGP) Rebuild() error {
	n := s.N()
	if n == 0 {
		return errors.New("gp: no training data")
	}
	s.standardise()
	idx, u, uSrc, err := s.chooseInducing()
	if err != nil {
		return fmt.Errorf("gp: inducing selection: %w", err)
	}
	s.uIdx, s.u, s.uSrc = idx, u, uSrc
	m := len(s.u)
	mp := mat.PackedLen(m)
	if cap(s.kuuBuf) < mp {
		s.kuuBuf = make([]float64, mp)
		s.sigma = make([]float64, mp)
		s.bvec = make([]float64, m)
		s.alphaU = make([]float64, m)
		s.kuBuf = make([]float64, m)
		s.wBuf = make([]float64, m)
	}
	s.kuuBuf = s.kuuBuf[:mp]
	s.sigma = s.sigma[:mp]
	s.bvec = s.bvec[:m]
	s.alphaU = s.alphaU[:m]
	s.kuBuf = s.kuBuf[:m]
	s.wBuf = s.wBuf[:m]

	s.fillKuu(s.kuuBuf)
	if err := s.lm.FactorizePacked(s.kuuBuf, m, 1e-8, 8); err != nil {
		return fmt.Errorf("gp: inducing prior factorisation: %w", err)
	}
	copy(s.sigma, s.kuuBuf)
	for r := range s.bvec {
		s.bvec[r] = 0
	}
	rho := s.Rho()
	ku := s.kuBuf
	i := 0
	for _, y := range s.ys {
		s.kuInto(ku, s.xs[i], true, rho)
		c := 1 / s.noiseS
		mat.AddScaledOuterPacked(s.sigma, ku, c)
		simd.Axpy(s.bvec, ku, c*(y-s.yMeanS)/s.yStdS)
		i++
	}
	for j, y := range s.yt {
		s.kuInto(ku, s.xt[j], false, rho)
		c := 1 / s.noiseT
		mat.AddScaledOuterPacked(s.sigma, ku, c)
		simd.Axpy(s.bvec, ku, c*(y-s.yMeanT)/s.yStdT)
	}
	if err := s.ls.FactorizePacked(s.sigma, m, 1e-8, 8); err != nil {
		return fmt.Errorf("gp: sparse posterior factorisation: %w", err)
	}
	s.ls.SolveInto(s.alphaU, s.bvec)
	if s.pool != nil {
		s.rebuildPool()
	}
	return nil
}

// AttachPool installs the candidate pool; must follow Fit or Rebuild.
func (s *SparseGP) AttachPool(pool [][]float64) error {
	if s.ls.Size() == 0 {
		return errors.New("gp: AttachPool before Rebuild/Fit")
	}
	for _, p := range pool {
		if len(p) != s.dim {
			return fmt.Errorf("gp: pool point dim %d, want %d", len(p), s.dim)
		}
	}
	s.pool = pool
	s.rebuildPool()
	return nil
}

// rebuildPool recomputes the per-candidate inducing columns and variance
// quadratics. Candidates are sharded across SetWorkers goroutines; each
// worker writes only its own candidates' slots and uses its own solve
// scratch, so the cache is bit-identical for any worker count.
func (s *SparseGP) rebuildPool() {
	m := len(s.u)
	np := len(s.pool)
	if len(s.poolKu) != np {
		s.poolKu = make([][]float64, np)
		s.poolQk = make([]float64, np)
		s.poolQs = make([]float64, np)
		s.poolKpp = make([]float64, np)
	}
	rho := s.Rho()
	par.Do(s.workers, np, func(lo, hi int) {
		v := make([]float64, m)
		for p := lo; p < hi; p++ {
			xp := s.pool[p]
			col := s.poolKu[p]
			if cap(col) < m {
				col = make([]float64, m)
			}
			col = col[:m]
			s.kuInto(col, xp, false, rho)
			s.poolKu[p] = col
			s.lm.SolveLInto(v, col)
			s.poolQk[p] = mat.Dot(v, v)
			s.ls.SolveLInto(v, col)
			s.poolQs[p] = mat.Dot(v, v)
			s.poolKpp[p] = s.cov.Eval(xp, xp) + s.noiseT
		}
	})
}

// AddTarget appends one target-task observation. While the inducing budget
// is unsaturated the posterior is rebuilt outright (cheap, and the new point
// can join the inducing set); once saturated the update is fully
// incremental: a rank-1 Σ update, a Sherman–Morrison sweep over the cached
// pool variances (O(pool·m)), and an O(m³) refactorisation — independent of
// the training count n.
func (s *SparseGP) AddTarget(x []float64, y float64) error {
	if len(x) != s.dim {
		return fmt.Errorf("gp: AddTarget input dim %d, want %d", len(x), s.dim)
	}
	if s.ls.Size() == 0 || len(s.u) < s.m {
		s.xt = append(s.xt, x)
		s.yt = append(s.yt, y)
		return s.Rebuild()
	}
	ku := s.kuBuf
	s.kuInto(ku, x, false, s.Rho())
	c := 1 / s.noiseT
	w := s.wBuf
	s.ls.SolveInto(w, ku)
	gamma := c / (1 + c*mat.Dot(ku, w))
	if s.pool != nil {
		par.Do(s.workers, len(s.pool), func(lo, hi int) {
			for p := lo; p < hi; p++ {
				d := mat.Dot(s.poolKu[p], w)
				q := s.poolQs[p] - gamma*d*d
				if q < 0 {
					q = 0
				}
				s.poolQs[p] = q
			}
		})
	}
	mat.AddScaledOuterPacked(s.sigma, ku, c)
	simd.Axpy(s.bvec, ku, c*(y-s.yMeanT)/s.yStdT)
	s.xt = append(s.xt, x)
	s.yt = append(s.yt, y)
	if err := s.ls.FactorizePacked(s.sigma, len(s.u), 1e-8, 8); err != nil {
		// Degenerate update: rebuild from scratch with fresh standardisation
		// and inducing selection, mirroring the exact GP's fallback.
		return s.Rebuild()
	}
	s.ls.SolveInto(s.alphaU, s.bvec)
	return nil
}

// PredictPool returns the posterior mean and standard deviation (raw output
// units) for pool candidate p. O(m) per call.
func (s *SparseGP) PredictPool(p int) (mu, sd float64) {
	ku := s.poolKu[p]
	muStd := mat.Dot(s.alphaU, ku)
	varStd := s.poolKpp[p] - s.poolQk[p] + s.poolQs[p]
	if varStd < 1e-12 {
		varStd = 1e-12
	}
	return s.yMeanT + s.yStdT*muStd, s.yStdT * math.Sqrt(varStd)
}

// Predict returns the posterior mean and standard deviation for an arbitrary
// target-task point (raw units).
func (s *SparseGP) Predict(x []float64) (mu, sd float64) {
	if s.ls.Size() == 0 {
		panic("gp: Predict before Rebuild/Fit")
	}
	m := len(s.u)
	ku := make([]float64, m)
	s.kuInto(ku, x, false, s.Rho())
	muStd := mat.Dot(s.alphaU, ku)
	v := s.lm.SolveL(ku)
	qk := mat.Dot(v, v)
	s.ls.SolveLInto(v, ku)
	qs := mat.Dot(v, v)
	varStd := s.cov.Eval(x, x) + s.noiseT - qk + qs
	if varStd < 1e-12 {
		varStd = 1e-12
	}
	return s.yMeanT + s.yStdT*muStd, s.yStdT * math.Sqrt(varStd)
}

// NLML returns the DTC negative log marginal likelihood of the standardised
// data under the current hyper-parameters (lower is better). O(n·m²).
func (s *SparseGP) NLML() float64 {
	if s.N() == 0 {
		return math.Inf(1)
	}
	s.standardise()
	ws, err := newSparseFitWS(s)
	if err != nil {
		return math.Inf(1)
	}
	return ws.nlml(&s.core)
}

// Fit maximises the DTC marginal likelihood over the same hyper-parameters
// as the exact GP (covariance, task noises, transfer Gamma parameters),
// then rebuilds the posterior. The inducing set is frozen for the duration
// of the search (selected under the entry lengthscales) so the objective
// stays continuous in the hypers; Rebuild reselects under the fitted ones.
// FitOptions.Subsample is ignored: each sparse NLML evaluation is already
// O(n·m²), which is what subsampling approximates for the exact solver.
func (s *SparseGP) Fit(opts FitOptions) error {
	if s.N() == 0 {
		return errors.New("gp: no training data")
	}
	s.standardise()
	ws, err := newSparseFitWS(s)
	if err != nil {
		return err
	}
	s.fitHypers(opts, &s.core, ws.nlml)
	return s.Rebuild()
}
