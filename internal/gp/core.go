package gp

import (
	"fmt"
	"math"

	"ppatuner/internal/mat"
)

// core is the transfer GP both surrogates share: the kernel of Eq. (5)–(7)
// with its Gamma dissimilarity parameters, the per-task noises of Eq. (8),
// the two tasks' training data and their output standardisation. GP and
// SparseGP embed it and differ only in the posterior algebra built on top
// (exact Cholesky vs. DTC over inducing points) and its caches.
type core struct {
	cov            *Cov
	noiseT, noiseS float64 // βt⁻¹ and βs⁻¹ (variances)
	a, b           float64 // Gamma dissimilarity parameters of Eq. (6)

	dim       int
	hasSource bool

	xs [][]float64 // source inputs (fixed after SetSource)
	ys []float64   // raw source outputs
	xt [][]float64 // target inputs (grow during tuning)
	yt []float64   // raw target outputs

	// Per-task output standardisation: a systematic offset or scale gap
	// between the tasks (a larger design burns more power everywhere) would
	// otherwise masquerade as task dissimilarity and destroy the cross-task
	// correlation the transfer kernel needs. Each task is z-scored with its
	// own constants; the kernel then correlates response *shapes*.
	yMeanS, yStdS float64
	yMeanT, yStdT float64
}

func newCore(kind CovKind, dim int, ard bool) core {
	return core{
		cov:    NewCov(kind, dim, ard),
		noiseT: 1e-4,
		noiseS: 1e-4,
		a:      0.1,
		b:      1.0,
		dim:    dim,
		yStdS:  1,
		yStdT:  1,
	}
}

// SetSource installs the source-task dataset (historical configurations and
// their QoR values). Must be called before Fit; enables the transfer kernel.
func (c *core) SetSource(x [][]float64, y []float64) error {
	if err := c.checkData("source", x, y); err != nil {
		return err
	}
	c.xs = x
	c.ys = y
	c.hasSource = len(x) > 0
	return nil
}

// SetTarget installs the initial target-task observations.
func (c *core) SetTarget(x [][]float64, y []float64) error {
	if err := c.checkData("target", x, y); err != nil {
		return err
	}
	c.xt = append([][]float64(nil), x...)
	c.yt = append([]float64(nil), y...)
	return nil
}

func (c *core) checkData(task string, x [][]float64, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("gp: %s has %d inputs, %d outputs", task, len(x), len(y))
	}
	for _, xi := range x {
		if len(xi) != c.dim {
			return fmt.Errorf("gp: %s input dim %d, want %d", task, len(xi), c.dim)
		}
	}
	return nil
}

// Rho returns the current cross-task correlation factor of Eq. (7).
func (c *core) Rho() float64 {
	if !c.hasSource {
		return 1
	}
	return TransferFactor(c.a, c.b)
}

// Cov returns the covariance function (for inspection in tests/ablations).
func (c *core) Cov() *Cov { return c.cov }

// Noise returns the target and source noise variances (βt⁻¹, βs⁻¹).
func (c *core) Noise() (noiseT, noiseS float64) { return c.noiseT, c.noiseS }

// N returns the current number of training points (source + target).
func (c *core) N() int { return len(c.xs) + len(c.xt) }

// NTarget returns the number of target-task training points.
func (c *core) NTarget() int { return len(c.xt) }

// trainX returns training input i in source-then-target order, plus whether
// it belongs to the source task.
func (c *core) trainX(i int) ([]float64, bool) {
	if i < len(c.xs) {
		return c.xs[i], true
	}
	return c.xt[i-len(c.xs)], false
}

// trainXs returns every training input in source-then-target order.
func (c *core) trainXs() [][]float64 {
	return append(append(make([][]float64, 0, c.N()), c.xs...), c.xt...)
}

// standardise recomputes the per-task output normalisation constants.
func (c *core) standardise() {
	c.yMeanS, c.yStdS = meanStd(c.ys)
	c.yMeanT, c.yStdT = meanStd(c.yt)
	// With very few target observations the target scale estimate is
	// unreliable; borrow the source scale, which describes the same kind of
	// quantity.
	if len(c.yt) < 4 && len(c.ys) >= 4 {
		c.yStdT = c.yStdS
	}
}

func meanStd(y []float64) (mean, std float64) {
	if len(y) == 0 {
		return 0, 1
	}
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for _, v := range y {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(y)))
	if std < 1e-12 {
		std = 1
	}
	return mean, std
}

// yStdAll returns all outputs in training order, standardised per task.
func (c *core) yStdAll() []float64 {
	return c.yStdInto(nil, 0)
}

// yStdInto is yStdAll writing into buf, which is grown (with room for
// headroom further entries) only when too small.
func (c *core) yStdInto(buf []float64, headroom int) []float64 {
	n := c.N()
	if cap(buf) < n {
		buf = make([]float64, n, n+headroom)
	} else {
		buf = buf[:n]
	}
	i := 0
	for _, y := range c.ys {
		buf[i] = (y - c.yMeanS) / c.yStdS
		i++
	}
	for _, y := range c.yt {
		buf[i] = (y - c.yMeanT) / c.yStdT
		i++
	}
	return buf
}

// FitOptions bounds the hyper-parameter search.
type FitOptions struct {
	// MaxEvals caps Nelder–Mead objective evaluations (default 240).
	MaxEvals int
	// FixTransfer keeps (a, b) at their current values instead of fitting
	// them (ablation hook).
	FixTransfer bool
	// Subsample caps the number of training points entering each marginal-
	// likelihood evaluation (0 = use all). Large active-learning loops use
	// this: each NLML evaluation is O(n³), so fitting on a deterministic
	// stride subsample keeps refits cheap while the full posterior still
	// uses every point. The sparse GP ignores it: its NLML is already
	// O(n·m²).
	Subsample int
}

// fitHypers maximises the marginal likelihood over the covariance
// hyper-parameters, the task noises and (when source data is present) the
// transfer Gamma parameters, leaving the winner in c. nlml evaluates the
// model's negative log marginal likelihood under work's current
// hyper-parameters; work is c itself or a copy over a data subsample that
// shares c's Cov.
func (c *core) fitHypers(opts FitOptions, work *core, nlml func(*core) float64) {
	if opts.MaxEvals <= 0 {
		opts.MaxEvals = 240
	}
	fitTransfer := c.hasSource && !opts.FixTransfer
	pack := func() []float64 {
		h := c.cov.hyper()
		h = append(h, math.Log(c.noiseT))
		if c.hasSource {
			h = append(h, math.Log(c.noiseS))
		}
		if fitTransfer {
			h = append(h, math.Log(c.a), math.Log(c.b))
		}
		return h
	}
	unpackInto := func(t *core, h []float64) {
		nc := 1 + len(t.cov.Len)
		t.cov.setHyper(h[:nc])
		i := nc
		// The outputs are standardised, so 1e-4 is a 1%-of-σ noise floor: it
		// keeps the posterior honest when few points make "noise-free" fits
		// look attractive.
		t.noiseT = clampExp(h[i], 1e-4, 1e2)
		i++
		if t.hasSource {
			t.noiseS = clampExp(h[i], 1e-4, 1e2)
			i++
		}
		if fitTransfer {
			t.a = clampExp(h[i], 1e-4, 1e3)
			t.b = clampExp(h[i+1], 1e-4, 1e3)
		}
	}
	obj := func(h []float64) float64 {
		unpackInto(work, h)
		if work.cov.Var > 1e4 || work.cov.Var < 1e-6 {
			return math.Inf(1)
		}
		// Inputs live in the normalised [0,1]^d parameter space, so
		// lengthscales far outside it are degenerate extrapolators.
		for _, l := range work.cov.Len {
			if l > 8 || l < 0.02 {
				return math.Inf(1)
			}
		}
		// Weak log-normal priors guard against the overconfident optima
		// (huge variance, tiny noise) that small active-learning training
		// sets invite; they barely move well-identified fits.
		penalty := 0.0
		for _, l := range work.cov.Len {
			d := (math.Log(l) - math.Log(0.7)) / 1.2
			penalty += 0.5 * d * d
		}
		dv := math.Log(work.cov.Var) / 2.0
		penalty += 0.5 * dv * dv
		return nlml(work) + penalty
	}
	// Multi-start: the marginal-likelihood surface is shallow along the
	// transfer-dissimilarity direction, so a single simplex run can stall
	// with a mediocre rho. Restart from the current parameters and from a
	// "tasks are similar" initialisation, keep the best.
	starts := [][]float64{pack()}
	if fitTransfer {
		saveA, saveB := c.a, c.b
		c.a, c.b = 0.01, 1
		starts = append(starts, pack())
		c.a, c.b = saveA, saveB
	}
	// Reserve part of the budget to re-run the simplex from the best point
	// found: a restart re-inflates the collapsed simplex and reliably walks
	// the remaining shallow directions (noise, dissimilarity).
	per := opts.MaxEvals / (len(starts) + 1)
	bestV := math.Inf(1)
	var best []float64
	for _, s := range starts {
		x, v := NelderMead(obj, s, 0.5, per)
		if v < bestV {
			bestV = v
			best = x
		}
	}
	if x, v := NelderMead(obj, best, 0.25, opts.MaxEvals-per*len(starts)); v < bestV {
		best = x
	}
	unpackInto(c, best)
}

func clampExp(logv, lo, hi float64) float64 {
	v := math.Exp(logv)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// appendSqDiffs appends the squared differences between x and y to dst: one
// entry per dimension when ard (the ARD Gram fills scale each by its own
// 1/ℓ²), otherwise their sum in dimension order.
func appendSqDiffs(dst, x, y []float64, ard bool) []float64 {
	if ard {
		for k := range x {
			dk := x[k] - y[k]
			dst = append(dst, dk*dk)
		}
		return dst
	}
	var s float64
	for k := range x {
		dk := x[k] - y[k]
		s += dk * dk
	}
	return append(dst, s)
}

// packedSqDiffs returns appendSqDiffs over every pair (i, j ≤ i) of pts, in
// packed lower-triangle order.
func packedSqDiffs(pts [][]float64, ard bool) []float64 {
	dst := make([]float64, 0, mat.PackedLen(len(pts))*sqDiffWidth(pts, ard))
	for i, xi := range pts {
		for _, xj := range pts[:i+1] {
			dst = appendSqDiffs(dst, xi, xj, ard)
		}
	}
	return dst
}

// crossSqDiffs returns appendSqDiffs over every (row, col) pair, row-major.
func crossSqDiffs(rows, cols [][]float64, ard bool) []float64 {
	dst := make([]float64, 0, len(rows)*len(cols)*sqDiffWidth(rows, ard))
	for _, x := range rows {
		for _, y := range cols {
			dst = appendSqDiffs(dst, x, y, ard)
		}
	}
	return dst
}

// sqDiffWidth is the number of entries appendSqDiffs writes per pair of pts.
func sqDiffWidth(pts [][]float64, ard bool) int {
	if ard && len(pts) > 0 {
		return len(pts[0])
	}
	return 1
}
