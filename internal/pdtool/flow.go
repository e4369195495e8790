// Package pdtool is the physical-design tool simulator: the black box the
// tuners optimise. Given a design and a tool-parameter configuration it runs
// placement → DRV fixing → clock-tree synthesis → global routing → timing
// optimisation → power analysis, and reports the QoR metrics (power, delay,
// area) the paper tunes. It stands in for Cadence Innovus in the original
// experiments; see DESIGN.md for the substitution rationale.
package pdtool

import (
	"fmt"
	"math"
	"sync"

	"ppatuner/internal/param"
	"ppatuner/internal/pdtool/cts"
	"ppatuner/internal/pdtool/drv"
	"ppatuner/internal/pdtool/lib"
	"ppatuner/internal/pdtool/netlist"
	"ppatuner/internal/pdtool/place"
	"ppatuner/internal/pdtool/power"
	"ppatuner/internal/pdtool/route"
	"ppatuner/internal/pdtool/sta"
)

// QoR is the post-layout quality of results: the three metrics the paper's
// objective spaces combine. All are minimised.
type QoR struct {
	PowerMW float64
	DelayNS float64
	AreaUm2 float64
}

// Metric names the QoR axes.
type Metric int

const (
	Power Metric = iota
	Delay
	Area
)

func (m Metric) String() string {
	switch m {
	case Power:
		return "power"
	case Delay:
		return "delay"
	case Area:
		return "area"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Get returns the named metric value.
func (q QoR) Get(m Metric) float64 {
	switch m {
	case Power:
		return q.PowerMW
	case Delay:
		return q.DelayNS
	case Area:
		return q.AreaUm2
	default:
		panic(fmt.Sprintf("pdtool: unknown metric %d", int(m)))
	}
}

// Vector projects the QoR onto the given objective space.
func (q QoR) Vector(objs []Metric) []float64 {
	v := make([]float64, len(objs))
	for i, m := range objs {
		v[i] = q.Get(m)
	}
	return v
}

// Design is a benchmark circuit plus its library.
type Design struct {
	Name string
	NL   *netlist.Netlist
	Lib  *lib.Library
}

var (
	smallOnce sync.Once
	smallMAC  *Design
	smallErr  error
	largeOnce sync.Once
	largeMAC  *Design
	largeErr  error
)

// NewSmallMAC builds (once, cached) the ~3.5k-cell MAC standing in for the
// paper's 20k-cell design, returning an error instead of panicking when the
// netlist generator fails — library users embedding the tuner should not be
// killed by a bad build. The netlist is immutable; Run copies what it
// mutates.
func NewSmallMAC() (*Design, error) {
	smallOnce.Do(func() { smallMAC, smallErr = buildMAC("mac-small", 24) })
	return smallMAC, smallErr
}

// NewLargeMAC builds (once, cached) the ~9.5k-cell MAC standing in for the
// paper's 67k-cell design; error-returning like NewSmallMAC.
func NewLargeMAC() (*Design, error) {
	largeOnce.Do(func() { largeMAC, largeErr = buildMAC("mac-large", 44) })
	return largeMAC, largeErr
}

// buildMAC builds a MAC design for the process-lifetime cache, compacted
// because it is kept for as long as the process runs.
func buildMAC(name string, width int) (*Design, error) {
	nl, err := netlist.MAC(name, width)
	if err != nil {
		return nil, fmt.Errorf("pdtool: build %s: %w", name, err)
	}
	nl.Compact()
	return &Design{Name: name, NL: nl, Lib: lib.Default7nm()}, nil
}

// SmallMAC is the panicking convenience wrapper around NewSmallMAC, kept for
// compatibility (examples, quick scripts).
func SmallMAC() *Design {
	d, err := NewSmallMAC()
	if err != nil {
		panic(err)
	}
	return d
}

// LargeMAC is the panicking convenience wrapper around NewLargeMAC.
func LargeMAC() *Design {
	d, err := NewLargeMAC()
	if err != nil {
		panic(err)
	}
	return d
}

// Report carries per-stage diagnostics alongside the QoR.
type Report struct {
	Place    *place.Result
	DRV      *drv.Result
	CTS      *cts.Result
	Route    *route.Result
	Timing   *sta.Result
	FreqMHz  float64
	CellArea float64
}

// Run executes the full flow for one parameter configuration. It is a pure
// function of (design, cfg): deterministic and side-effect free (the design
// netlist is copied before sizing).
func Run(d *Design, cfg param.Config) (QoR, *Report, error) {
	return NewRunner(d).Run(cfg)
}

// A Runner runs the flow on one design again and again. It keeps the
// design's topology and every stage's working memory from one run to the
// next, so that after its first run a run allocates next to nothing. The
// Report of a run shares that memory and stays valid only until the next
// run. A Runner is not safe for concurrent use: give each goroutine its
// own.
type Runner struct {
	d *Design
	// nl is the per-run copy of the design netlist that sizing mutates;
	// its cells are refreshed from d at the start of every run.
	nl netlist.Netlist
	// Sizing never changes the netlist's structure, so one topology
	// serves every run and every stage.
	topo      netlist.Topology
	topoErr   error
	registers int
	placer    place.Placer
	fixer     drv.Fixer
	router    route.Router
	timer     sta.Timer
	power     power.Analyzer
	report    Report
}

// NewRunner returns a Runner for d.
func NewRunner(d *Design) *Runner {
	r := &Runner{d: d, nl: *d.NL}
	r.nl.Cells = nil // never share d's cells: runs resize them
	r.topoErr = r.topo.Compute(d.NL)
	r.registers = len(d.NL.Registers())
	return r
}

// Run executes the full flow for one parameter configuration, as the
// package-level Run does.
func (r *Runner) Run(cfg param.Config) (QoR, *Report, error) {
	d := r.d
	// ---- Decode tool parameters (Table 1), with tool defaults for knobs a
	// benchmark does not tune ("-" entries).
	freq := cfg.FloatOr("freq", 1000)                   // MHz
	uncertainty := cfg.FloatOr("place_uncertainty", 40) // ps
	rcFactor := cfg.FloatOr("place_rcfactor", 1.10)     //
	flowEffort := cfg.EnumOr("flowEffort", "standard")  //
	timingEffort := cfg.EnumOr("timing_effort", "medium")
	clockPower := cfg.BoolOr("clock_power_driven", false)
	uniform := cfg.BoolOr("uniform_density", false)
	congEffortS := cfg.EnumOr("cong_effort", "AUTO")
	maxBinDensity := cfg.FloatOr("max_density", 0.80)
	maxLen := cfg.FloatOr("max_Length", 300)          // µm
	targetUtil := cfg.FloatOr("max_Density", 0.75)    // utilisation
	maxTransNS := cfg.FloatOr("max_transition", 0.25) // ns
	maxCapPF := cfg.FloatOr("max_capacitance", 0.10)  // pF
	maxFanout := int(cfg.FloatOr("max_fanout", 32))
	maxAllowedNS := cfg.FloatOr("max_AllowedDelay", 0.05) // ns

	placeIters, optPasses, maxSize := effortKnobs(flowEffort)
	timingWeight := 0.3
	if timingEffort == "high" {
		timingWeight = 0.9
		optPasses += 2
	}
	congEffort, err := route.ParseEffort(congEffortS)
	if err != nil {
		return QoR{}, nil, err
	}

	// ---- Copy the cells so the sizing passes do not leak across runs.
	r.nl.Cells = append(r.nl.Cells[:0], d.NL.Cells...)
	nl := &r.nl
	if r.topoErr != nil {
		return QoR{}, nil, fmt.Errorf("pdtool: topology: %w", r.topoErr)
	}
	topo := &r.topo

	// ---- Placement.
	pl, err := r.placer.Place(nl, d.Lib, place.Options{
		TargetUtil:     targetUtil,
		MaxBinDensity:  maxBinDensity,
		UniformDensity: uniform,
		TimingWeight:   timingWeight,
		Iterations:     placeIters,
		Topo:           topo,
	})
	if err != nil {
		return QoR{}, nil, fmt.Errorf("pdtool: place: %w", err)
	}

	// ---- DRV fixing.
	fix, err := r.fixer.Fix(nl, d.Lib, pl, drv.Limits{
		MaxFanout:  maxFanout,
		MaxCapFF:   maxCapPF * 1000,
		MaxTransPS: maxTransNS * 1000,
		MaxLenUm:   maxLen,
	})
	if err != nil {
		return QoR{}, nil, fmt.Errorf("pdtool: drv: %w", err)
	}

	// ---- Clock-tree synthesis.
	ct, err := cts.Synthesize(d.Lib, r.registers, pl.CoreW, pl.CoreH, cts.Options{PowerDriven: clockPower})
	if err != nil {
		return QoR{}, nil, fmt.Errorf("pdtool: cts: %w", err)
	}

	// ---- Global routing.
	rt, err := r.router.Route(nl, pl, route.Options{Effort: congEffort})
	if err != nil {
		return QoR{}, nil, fmt.Errorf("pdtool: route: %w", err)
	}

	// ---- Timing optimisation.
	timing, err := r.timer.Optimize(nl, d.Lib, pl, fix, rt, sta.Options{
		TargetPeriodPS:    1e6 / freq,
		UncertaintyPS:     uncertainty,
		RCFactor:          rcFactor,
		SkewPS:            ct.SkewPS,
		MaxAllowedDelayPS: maxAllowedNS * 1000,
		OptPasses:         optPasses,
		MaxSize:           maxSize,
		Topo:              topo,
	})
	if err != nil {
		return QoR{}, nil, fmt.Errorf("pdtool: sta: %w", err)
	}

	// ---- Power at the target frequency.
	pw, err := r.power.Analyze(nl, d.Lib, fix, rt, ct, power.Options{FreqMHz: freq, Topo: topo})
	if err != nil {
		return QoR{}, nil, fmt.Errorf("pdtool: power: %w", err)
	}

	// ---- Area: the die is sized to hold the final (post-sizing, post-
	// buffering) cells plus the clock tree at the requested utilisation.
	cellArea := nl.TotalArea(d.Lib) + fix.BufferArea + ct.AreaUm2
	areaUm2 := cellArea / targetUtil
	// Congestion overflow forces a utilisation derate (die growth) — the
	// coupling that makes aggressive density targets backfire.
	areaUm2 *= 1 + 0.8*pl.Overflow + 0.15*math.Max(0, rt.MaxCongestion-0.8)

	q := QoR{
		PowerMW: pw.TotalMW(),
		DelayNS: timing.AchievedPeriodPS / 1000,
		AreaUm2: areaUm2,
	}
	// Tool variation: commercial P&R engines are famously seed-sensitive —
	// small parameter changes reshuffle placement and routing decisions and
	// move each QoR metric by a couple of percent. We model that as a
	// deterministic, configuration-hashed perturbation, so the flow stays a
	// pure function of (design, config) while the QoR landscape gains the
	// ruggedness (and dense Pareto fronts) real tools exhibit.
	jx, jy, jz := toolJitter(d.Name, cfg.Key())
	q.PowerMW *= 1 + jitterPct*jx
	q.DelayNS *= 1 + jitterPct*jy
	q.AreaUm2 *= 1 + jitterPct*jz

	// Tool heuristics: beyond the explicit physics above, commercial engines
	// layer hundreds of threshold-driven heuristics whose net effect is a
	// rugged, non-monotone — but *reproducible and design-family-consistent*
	// — response to parameter combinations (the observation, cited by the
	// paper from FIST, that "the influence of parameters can be consistent
	// for different designs", which is what makes transfer learning pay
	// off). We model it as a fixed low-dimensional sinusoidal field over the
	// physical parameter values, identical for every design.
	hp, hd, ha := heuristicField(cfg)
	q.PowerMW *= 1 + hp
	q.DelayNS *= 1 + hd
	q.AreaUm2 *= 1 + ha

	r.report = Report{Place: pl, DRV: fix, CTS: ct, Route: rt, Timing: timing, FreqMHz: freq, CellArea: cellArea}
	return q, &r.report, nil
}

// jitterPct is the amplitude of the modelled per-run tool variation
// (±0.5%): a deterministic tie-breaking ripple. The dominant modelled
// tool complexity is the systematic heuristic field (heuristics.go),
// which — unlike noise — similar tasks share and a transfer surrogate can
// learn.
const jitterPct = 0.005

// toolJitter derives three deterministic values in [-1, 1] from the design
// name and configuration key (FNV-1a based).
func toolJitter(design, key string) (float64, float64, float64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	mix(design)
	mix("|")
	mix(key)
	next := func() float64 {
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		// Map the top 53 bits to [0, 1), then to [-1, 1].
		u := float64(h>>11) / float64(1<<53)
		return 2*u - 1
	}
	return next(), next(), next()
}

// effortKnobs maps the flowEffort ladder to engine budgets.
func effortKnobs(effort string) (placeIters, optPasses int, maxSize float64) {
	switch effort {
	case "extreme":
		return 14, 8, 8
	case "high":
		return 10, 5, 6
	default: // standard
		return 6, 3, 4
	}
}
