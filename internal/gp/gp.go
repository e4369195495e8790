package gp

import (
	"errors"
	"fmt"
	"math"

	"ppatuner/internal/mat"
	"ppatuner/internal/par"
	"ppatuner/internal/simd"
)

// GP is an exact Gaussian-process regressor over one QoR metric, optionally
// coupling a fixed source-task dataset with a growing target-task dataset
// through the transfer kernel of Eq. (5)–(7):
//
//	K̃(x_n, x_m) = k(x_n, x_m) · (2(1/(1+a))^b − 1)   across tasks,
//	K̃(x_n, x_m) = k(x_n, x_m)                         within a task,
//
// with heteroscedastic task noise Λ = diag(βs⁻¹ I_N, βt⁻¹ I_M) as in
// Eq. (8). A GP without source data degenerates to a standard GP — that is
// exactly the surrogate of the TCAD'19 baseline.
type GP struct {
	core

	chol  *mat.Cholesky
	alpha []float64

	pool    [][]float64
	poolK   [][]float64 // poolK[p][i] = k̃(x_i, pool_p)
	poolV   [][]float64 // poolV[p]    = L⁻¹ poolK[p]
	poolKpp []float64   // prior variance k(p,p) + βt⁻¹

	// Reused buffers: the packed Gram workspace and standardised-output /
	// Extend-row scratch. They make Rebuild and AddTarget allocation-free
	// once warm (the pool caches above are persistent state, not scratch).
	gramBuf []float64
	yBuf    []float64
	rowBuf  []float64

	// growth is the expected number of future AddTarget calls; Rebuild and
	// the pool cache size their backing arrays for it so a whole campaign of
	// incremental adds appends without reallocating (ReserveAdds).
	growth int
	// workers bounds the goroutines used for pool-cache rebuilds
	// (SetWorkers); <=1 keeps everything on the calling goroutine.
	workers int
}

// ReserveAdds declares how many future AddTarget observations the posterior
// should make room for. The next Rebuild (and every pool-cache build) then
// preallocates Cholesky and per-candidate cache capacity so the incremental
// updates of a whole tuning campaign append in place.
func (g *GP) ReserveAdds(n int) {
	if n > 0 {
		g.growth = n
	}
}

// SetWorkers bounds the worker goroutines used when rebuilding the pool
// cache. Results are applied per candidate, so any worker count produces
// bit-identical caches; n <= 1 (the default) stays fully sequential.
func (g *GP) SetWorkers(n int) { g.workers = n }

// New returns a GP over dim-dimensional inputs with the given covariance
// family. ard selects per-dimension lengthscales.
func New(kind CovKind, dim int, ard bool) *GP {
	return &GP{core: newCore(kind, dim, ard)}
}

// ktrain evaluates the transfer kernel between training points i and j.
func (g *GP) ktrain(i, j int) float64 {
	xi, si := g.trainX(i)
	xj, sj := g.trainX(j)
	v := g.cov.Eval(xi, xj)
	if si != sj {
		v *= g.Rho()
	}
	return v
}

// kvecInto evaluates k̃(x, x_i) for a *target-task* test point against all
// training points, writing into dst (len N). The cross-task factor is
// hoisted by the caller, so sweeps over many test points pay
// TransferFactor's math.Pow once.
func (g *GP) kvecInto(x []float64, dst []float64, rho float64) {
	if g.cov.Kind == RBF {
		// Eval's RBF arm in two passes: −r²/2 per training point, then
		// Var·e^x over the vector, four lanes at a time and bit for bit
		// what Eval computes; source entries then take their ρ.
		for i, xi := range g.xs {
			dst[i] = -0.5 * g.cov.r2(x, xi)
		}
		off := len(g.xs)
		for i, xi := range g.xt {
			dst[off+i] = -0.5 * g.cov.r2(x, xi)
		}
		simd.ScaledExp(dst[:off+len(g.xt)], g.cov.Var)
		for i := range g.xs {
			dst[i] *= rho
		}
		return
	}
	for i, xi := range g.xs {
		dst[i] = rho * g.cov.Eval(x, xi)
	}
	off := len(g.xs)
	for i, xi := range g.xt {
		dst[off+i] = g.cov.Eval(x, xi)
	}
}

// gram builds the full noisy Gram matrix K̃ + Λ for the current data and
// hyper-parameters.
func (g *GP) gram() *mat.Matrix {
	n := g.N()
	k := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := g.ktrain(i, j)
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
		if i < len(g.xs) {
			k.Data[i*n+i] += g.noiseS
		} else {
			k.Data[i*n+i] += g.noiseT
		}
		k.Data[i*n+i] += 1e-8 // numerical jitter
	}
	return k
}

// fillGramPacked writes the packed lower triangle of the full noisy Gram
// matrix K̃ + Λ into dst (length mat.PackedLen(N)), with the cross-task
// factor ρ hoisted out of the pair loop.
func (g *GP) fillGramPacked(dst []float64) {
	n := g.N()
	rho := g.Rho()
	idx := 0
	for i := 0; i < n; i++ {
		xi, si := g.trainX(i)
		for j := 0; j <= i; j++ {
			xj, sj := g.trainX(j)
			v := g.cov.Eval(xi, xj)
			if si != sj {
				v *= rho
			}
			dst[idx] = v
			idx++
		}
		if si {
			dst[idx-1] += g.noiseS
		} else {
			dst[idx-1] += g.noiseT
		}
		dst[idx-1] += 1e-8 // numerical jitter
	}
}

// Rebuild refactorises the posterior from scratch for the current data and
// hyper-parameters, and recomputes the pool cache if a pool is attached.
// All posterior buffers (packed Gram, Cholesky, alpha) are reused, with
// ReserveAdds headroom so the incremental updates that follow append in
// place.
func (g *GP) Rebuild() error {
	n := g.N()
	if n == 0 {
		return errors.New("gp: no training data")
	}
	g.standardise()
	np := mat.PackedLen(n)
	if cap(g.gramBuf) < np {
		g.gramBuf = make([]float64, np, mat.PackedLen(n+g.growth))
	}
	g.gramBuf = g.gramBuf[:np]
	g.fillGramPacked(g.gramBuf)
	if g.chol == nil {
		g.chol = &mat.Cholesky{}
	}
	g.chol.Reserve(n + g.growth)
	if err := g.chol.FactorizePacked(g.gramBuf, n, 1e-8, 8); err != nil {
		return fmt.Errorf("gp: posterior factorisation: %w", err)
	}
	g.yBuf = g.yStdInto(g.yBuf, g.growth)
	if cap(g.alpha) < n {
		g.alpha = make([]float64, n, n+g.growth)
	}
	g.alpha = g.alpha[:n]
	g.chol.SolveInto(g.alpha, g.yBuf)
	if g.pool != nil {
		g.rebuildPool()
	}
	return nil
}

// AddTarget appends one target-task observation and updates the posterior
// and pool cache incrementally.
func (g *GP) AddTarget(x []float64, y float64) error {
	if len(x) != g.dim {
		return fmt.Errorf("gp: AddTarget input dim %d, want %d", len(x), g.dim)
	}
	if g.chol == nil {
		g.xt = append(g.xt, x)
		g.yt = append(g.yt, y)
		return g.Rebuild()
	}
	n := g.N()
	if cap(g.rowBuf) < n+1 {
		g.rowBuf = make([]float64, n+1, n+1+g.growth)
	}
	row := g.rowBuf[:n+1]
	g.kvecInto(x, row[:n], g.Rho())
	row[n] = g.cov.Eval(x, x) + g.noiseT + 1e-8
	if err := g.chol.Extend([][]float64{row}); err != nil {
		// Degenerate extension (e.g. duplicate point): fall back to a full
		// rebuild with stronger jitter.
		g.xt = append(g.xt, x)
		g.yt = append(g.yt, y)
		g.chol = nil
		return g.Rebuild()
	}
	g.xt = append(g.xt, x)
	g.yt = append(g.yt, y)
	g.yBuf = append(g.yBuf, (y-g.yMeanT)/g.yStdT)
	if cap(g.alpha) < n+1 {
		g.alpha = make([]float64, n+1, n+1+g.growth)
	}
	g.alpha = g.alpha[:n+1]
	g.chol.SolveInto(g.alpha, g.yBuf)

	// Extend the pool cache with one entry per candidate. AttachPool sized
	// the per-candidate columns with ReserveAdds headroom, so these appends
	// stay in place for a whole campaign.
	if g.pool != nil {
		ln := g.chol.LRow(n)
		for p, xp := range g.pool {
			kp := g.cov.Eval(x, xp)
			g.poolK[p] = append(g.poolK[p], kp)
			vp := g.poolV[p]
			v := kp - mat.Dot(ln[:n], vp)
			g.poolV[p] = append(vp, v/ln[n])
		}
	}
	return nil
}

// AttachPool installs the candidate pool (target-task points, normalised
// coordinates) whose posterior will be queried repeatedly. Must be called
// after the posterior exists (Fit or Rebuild).
func (g *GP) AttachPool(pool [][]float64) error {
	if g.chol == nil {
		return errors.New("gp: AttachPool before Rebuild/Fit")
	}
	for _, p := range pool {
		if len(p) != g.dim {
			return fmt.Errorf("gp: pool point dim %d, want %d", len(p), g.dim)
		}
	}
	g.pool = pool
	g.rebuildPool()
	return nil
}

// rebuildPool recomputes the per-candidate kernel columns and solve vectors.
// Candidates are sharded across SetWorkers goroutines; every worker writes
// only its own candidates' slots and the per-candidate arithmetic is
// identical in any sharding, so the cache is bit-identical for any worker
// count. Existing per-candidate buffers are reused when the training size
// still fits (a refit at constant N allocates nothing).
func (g *GP) rebuildPool() {
	n := g.N()
	m := len(g.pool)
	if len(g.poolK) != m {
		g.poolK = make([][]float64, m)
		g.poolV = make([][]float64, m)
		g.poolKpp = make([]float64, m)
	}
	rho := g.Rho()
	par.Do(g.workers, m, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			xp := g.pool[p]
			col := g.poolK[p]
			if cap(col) < n {
				col = make([]float64, n, n+g.growth)
			}
			col = col[:n]
			g.kvecInto(xp, col, rho)
			g.poolK[p] = col
			v := g.poolV[p]
			if cap(v) < n {
				v = make([]float64, n, n+g.growth)
			}
			v = v[:n]
			g.chol.SolveLInto(v, col)
			g.poolV[p] = v
			g.poolKpp[p] = g.cov.Eval(xp, xp) + g.noiseT
		}
	})
}

// PredictPool returns the posterior mean and standard deviation (in raw
// output units) for pool candidate p, per Eq. (8).
func (g *GP) PredictPool(p int) (mu, sd float64) {
	kp := g.poolK[p]
	vp := g.poolV[p]
	muStd := mat.Dot(g.alpha, kp)
	varStd := g.poolKpp[p] - mat.Dot(vp, vp)
	if varStd < 1e-12 {
		varStd = 1e-12
	}
	return g.yMeanT + g.yStdT*muStd, g.yStdT * math.Sqrt(varStd)
}

// Predict returns the posterior mean and standard deviation for an arbitrary
// target-task point (raw units).
func (g *GP) Predict(x []float64) (mu, sd float64) {
	if g.chol == nil {
		panic("gp: Predict before Rebuild/Fit")
	}
	n := g.N()
	kv := make([]float64, n)
	g.kvecInto(x, kv, g.Rho())
	muStd := mat.Dot(g.alpha, kv)
	v := g.chol.SolveL(kv)
	varStd := g.cov.Eval(x, x) + g.noiseT - mat.Dot(v, v)
	if varStd < 1e-12 {
		varStd = 1e-12
	}
	return g.yMeanT + g.yStdT*muStd, g.yStdT * math.Sqrt(varStd)
}

// NLML returns the negative log marginal likelihood of the standardised data
// under the current hyper-parameters (lower is better). Used by Fit and
// exposed for tests and diagnostics.
func (g *GP) NLML() float64 {
	n := g.N()
	if n == 0 {
		return math.Inf(1)
	}
	return newFitWS(&g.core).nlml(&g.core)
}

// subsampled returns a copy of g whose data is a deterministic stride
// subsample of at most n points, split proportionally between tasks.
func (g *GP) subsampled(n int) *GP {
	total := g.N()
	if n <= 0 || total <= n {
		return g
	}
	sub := &GP{core: g.core} // shares g's Cov: Fit mutates it in place
	take := func(x [][]float64, y []float64, k int) ([][]float64, []float64) {
		if k >= len(x) {
			return x, y
		}
		xs := make([][]float64, 0, k)
		ys := make([]float64, 0, k)
		stride := float64(len(x)) / float64(k)
		for i := 0; i < k; i++ {
			j := int(float64(i) * stride)
			xs = append(xs, x[j])
			ys = append(ys, y[j])
		}
		return xs, ys
	}
	ns := n * len(g.xs) / total
	if g.hasSource && ns < 1 {
		ns = 1 // keep the task structure so the packed hyper layout matches
	}
	nt := n - ns
	sub.xs, sub.ys = take(g.xs, g.ys, ns)
	sub.xt, sub.yt = take(g.xt, g.yt, nt)
	sub.hasSource = len(sub.xs) > 0
	return sub
}

// Fit maximises the marginal likelihood over the covariance hyper-parameters,
// the task noises and (when source data is present) the transfer Gamma
// parameters, then rebuilds the posterior.
func (g *GP) Fit(opts FitOptions) error {
	if g.N() == 0 {
		return errors.New("gp: no training data")
	}
	g.standardise()
	// NLML is evaluated on a subsample when the training set is large; the
	// winning hyper-parameters are copied back to g before the full rebuild.
	work := g.subsampled(opts.Subsample)
	work.standardise()
	// The workspace caches pairwise distances and standardised outputs once;
	// every Nelder–Mead evaluation is then a scalar transform plus one packed
	// factorisation into reused buffers.
	g.fitHypers(opts, &work.core, newFitWS(&work.core).nlml)
	return g.Rebuild()
}
