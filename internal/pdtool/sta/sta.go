// Package sta implements static timing analysis over a placed, buffered and
// routed design: topological arrival-time propagation with load-dependent
// cell delays and Elmore wire delays, plus the timing-optimisation loop that
// commercial tools run — upsizing cells on (near-)critical paths until the
// target period (less uncertainty margin) is met within the allowed residual
// slack, or the effort budget runs out.
package sta

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"ppatuner/internal/pdtool/drv"
	"ppatuner/internal/pdtool/lib"
	"ppatuner/internal/pdtool/netlist"
	"ppatuner/internal/pdtool/place"
	"ppatuner/internal/pdtool/route"
)

// Options configures analysis and optimisation.
type Options struct {
	// TargetPeriodPS is the clock period implied by the freq parameter.
	TargetPeriodPS float64
	// UncertaintyPS is the optimisation margin (place_uncertainty): the
	// optimiser aims at TargetPeriodPS − UncertaintyPS.
	UncertaintyPS float64
	// RCFactor scales wire RC (place_rcfactor).
	RCFactor float64
	// SkewPS is the clock skew from CTS.
	SkewPS float64
	// MaxAllowedDelayPS is the residual negative slack the tool tolerates
	// (max_AllowedDelay, converted to ps).
	MaxAllowedDelayPS float64
	// OptPasses bounds the sizing passes (effort-derived; 0 = analysis only).
	OptPasses int
	// MaxSize caps the drive-strength multiplier reached by upsizing.
	MaxSize float64
	// Topo is the netlist's precomputed topology; nil computes it here.
	Topo *netlist.Topology
}

// Result reports timing.
type Result struct {
	// CriticalPathPS is the worst launch-to-capture data path delay.
	CriticalPathPS float64
	// AchievedPeriodPS = CriticalPathPS + setup + skew: the fastest clock
	// the design sustains. This is the flow's delay QoR metric.
	AchievedPeriodPS float64
	// SlackPS is TargetPeriodPS − AchievedPeriodPS.
	SlackPS float64
	// MinPathPS is the fastest launch-to-capture path (hold analysis).
	MinPathPS float64
	// HoldSlackPS = MinPathPS − skew − hold time; negative values flag hold
	// risk the router would fix with delay buffers.
	HoldSlackPS float64
	// Passes is the number of optimisation passes executed.
	Passes int
	// Upsized is the number of cell upsizings applied.
	Upsized int
}

// engine holds the propagation state reused across passes.
type engine struct {
	nl    *netlist.Netlist
	lib   *lib.Library
	pl    *place.Result
	fix   *drv.Result
	rt    *route.Result
	opt   Options
	order []int
	buf   lib.Cell // the DRV buffer cell
	// argmax[c] is the input net realising the latest arrival at cell c,
	// for backtracing.
	argmax []int
	// netArrive[n] is the data arrival at the sink pins of net n, ps.
	netArrive []float64
	netDelay  []float64
	// stale[n] marks netDelay[n] for recomputation by the next propagate:
	// every net at first, then the nets whose driver or sinks were resized.
	stale []bool
	// rank[c] is cell c's position in order. dirty is a bit set over
	// those positions: the cells an incremental propagate recomputes.
	// analysed records that the first, full propagate has run.
	rank     []int
	dirty    []uint64
	analysed bool
	// minNetArrive mirrors netArrive for the earliest (hold) paths; only
	// propagateEarly fills it.
	minNetArrive []float64
	// dNets are the register D-input nets in cell order: with the primary
	// outputs, the timing endpoints.
	dNets []int
	// Scratch reused by upsizeCritical across passes.
	endpoints []int
	seen      []bool
}

// Analyze runs one STA pass (no optimisation) and returns the timing result.
func Analyze(nl *netlist.Netlist, l *lib.Library, pl *place.Result, fix *drv.Result, rt *route.Result, opt Options) (*Result, error) {
	return new(Timer).Analyze(nl, l, pl, fix, rt, opt)
}

// Optimize runs STA passes interleaved with critical-path upsizing until the
// timing goal is met or the pass budget is exhausted. Cell sizes in nl are
// mutated — callers pass a per-run copy of the netlist.
func Optimize(nl *netlist.Netlist, l *lib.Library, pl *place.Result, fix *drv.Result, rt *route.Result, opt Options) (*Result, error) {
	return new(Timer).Optimize(nl, l, pl, fix, rt, opt)
}

// A Timer runs timing analyses one after another in the same memory: the
// Result of one Analyze or Optimize stays valid only until the next.
type Timer struct {
	e   engine
	res Result
}

// Analyze is the package-level Analyze, run in t's memory.
func (t *Timer) Analyze(nl *netlist.Netlist, l *lib.Library, pl *place.Result, fix *drv.Result, rt *route.Result, opt Options) (*Result, error) {
	e := &t.e
	if err := e.reset(nl, l, pl, fix, rt, opt); err != nil {
		return nil, err
	}
	e.propagate()
	t.res = e.result(0, 0)
	return &t.res, nil
}

// Optimize is the package-level Optimize, run in t's memory.
func (t *Timer) Optimize(nl *netlist.Netlist, l *lib.Library, pl *place.Result, fix *drv.Result, rt *route.Result, opt Options) (*Result, error) {
	e := &t.e
	if err := e.reset(nl, l, pl, fix, rt, opt); err != nil {
		return nil, err
	}
	if opt.MaxSize <= 1 {
		opt.MaxSize = 8
		e.opt.MaxSize = 8
	}
	goal := opt.TargetPeriodPS - opt.UncertaintyPS
	upsized := 0
	pass := 0
	for ; ; pass++ {
		e.propagate()
		achieved := e.achievedPeriod()
		if pass >= opt.OptPasses || achieved-goal <= opt.MaxAllowedDelayPS {
			break
		}
		n := e.upsizeCritical()
		if n == 0 {
			break // nothing left to improve
		}
		upsized += n
	}
	t.res = e.result(pass, upsized)
	return &t.res, nil
}

// reset prepares e for a new analysis, reusing its buffers.
func (e *engine) reset(nl *netlist.Netlist, l *lib.Library, pl *place.Result, fix *drv.Result, rt *route.Result, opt Options) error {
	if opt.TargetPeriodPS <= 0 {
		return fmt.Errorf("sta: target period %g ps", opt.TargetPeriodPS)
	}
	if opt.RCFactor <= 0 {
		opt.RCFactor = 1
	}
	topo := opt.Topo
	if topo == nil {
		var err error
		if topo, err = nl.Topology(); err != nil {
			return err
		}
	}
	nc, nn := len(nl.Cells), len(nl.Nets)
	*e = engine{
		nl: nl, lib: l, pl: pl, fix: fix, rt: rt, opt: opt,
		order:        topo.Order,
		buf:          l.Cell(lib.Buf),
		argmax:       slices.Grow(e.argmax[:0], nc)[:nc],
		netArrive:    slices.Grow(e.netArrive[:0], nn)[:nn],
		netDelay:     slices.Grow(e.netDelay[:0], nn)[:nn],
		stale:        slices.Grow(e.stale[:0], nn)[:nn],
		rank:         slices.Grow(e.rank[:0], nc)[:nc],
		dirty:        slices.Grow(e.dirty[:0], (nc+63)/64)[:(nc+63)/64],
		minNetArrive: slices.Grow(e.minNetArrive[:0], nn)[:nn],
		dNets:        e.dNets[:0],
		endpoints:    e.endpoints[:0],
		seen:         slices.Grow(e.seen[:0], nc)[:nc],
	}
	clear(e.argmax)
	clear(e.netArrive)
	clear(e.netDelay)
	clear(e.dirty)
	clear(e.minNetArrive)
	for id := range e.stale {
		e.stale[id] = true
	}
	for k, ci := range e.order {
		e.rank[ci] = k
	}
	for _, c := range nl.Cells {
		if c.Kind == lib.DFF && len(c.Inputs) > 0 {
			e.dNets = append(e.dNets, c.Inputs[0])
		}
	}
	return nil
}

// computeNetDelay returns the driver-cell-input to sink-pin delay of the
// net: the driving cell's intrinsic and drive-resistance terms plus the
// Elmore wire delay of each buffered stage. The RC factor scales the
// extracted wire parasitics (place_rcfactor).
func (e *engine) computeNetDelay(netID int) float64 {
	net := e.nl.Nets[netID]
	f := e.fix.Fix[netID]
	driveRes := 1.2 // pad driver for PI nets
	var intrinsic float64
	if net.Driver >= 0 {
		dc := e.nl.Cells[net.Driver]
		driveRes = e.lib.DriveRes(dc.Kind, dc.Size)
		intrinsic = e.lib.Cell(dc.Kind).Intrinsic // size-independent
	}
	var pinCap float64
	for _, s := range net.Sinks {
		pinCap += e.lib.InCap(e.nl.Cells[s].Kind, e.nl.Cells[s].Size)
	}
	pinCap /= float64(f.Stages)
	buf := &e.buf
	if f.Stages > 1 {
		pinCap += buf.InCap
	}
	segLen := f.StageLenUm * e.rt.Detour[netID]
	cw := e.lib.WireCapPerUm * segLen * e.opt.RCFactor
	rw := e.lib.WireResPerUm * segLen / 1000.0 * e.opt.RCFactor
	stageCap := pinCap + cw
	wireTerm := rw * (cw/2 + pinCap)
	d := intrinsic + driveRes*stageCap + wireTerm
	for s := 1; s < f.Stages; s++ {
		d += buf.Intrinsic + buf.DriveRes*stageCap + wireTerm
	}
	return d
}

// propagate computes the latest (setup) arrival times in topological
// order, first refreshing the delays of stale nets. The first call
// computes every cell. Later calls recompute only the cells whose output
// net's delay or one of whose input arrivals changed — after a sizing pass,
// the fan-out cones of the resized cells. Every other cell sees
// bit-identical inputs, so its arrival and critical input stay as they
// were. The earliest (hold) arrivals only feed the final result, so
// propagateEarly computes them once, after the last sizing pass.
//
//ppalint:noalloc
func (e *engine) propagate() {
	nl := e.nl
	full := !e.analysed
	e.analysed = true
	for id, stale := range e.stale {
		if !stale {
			continue
		}
		e.stale[id] = false
		d := e.computeNetDelay(id)
		if !full && math.Float64bits(d) == math.Float64bits(e.netDelay[id]) {
			continue
		}
		e.netDelay[id] = d
		if drv := nl.Nets[id].Driver; drv >= 0 {
			e.markDirty(e.rank[drv])
		}
	}
	// PI nets launch at t=0 for setup analysis (conservative).
	for _, pi := range nl.PINets {
		e.setArrival(pi, e.netDelay[pi], full, -1)
	}
	if full {
		for k := range e.order {
			e.evalCell(k, true)
		}
		return
	}
	// Visit the dirty positions in increasing order. Evaluating a cell
	// only marks later positions, so a word is re-read until it is clear.
	for w := range e.dirty {
		for e.dirty[w] != 0 {
			b := bits.TrailingZeros64(e.dirty[w])
			e.dirty[w] &^= 1 << b
			e.evalCell(w*64+b, false)
		}
	}
}

// evalCell recomputes the latest arrival at the output of the cell at
// position k of the topological order.
func (e *engine) evalCell(k int, full bool) {
	c := &e.nl.Cells[e.order[k]]
	if c.Kind == lib.DFF {
		// Launch: Q arrives clk-to-q plus its net delay.
		if c.Out >= 0 {
			e.setArrival(c.Out, e.lib.ClkToQ+e.netDelay[c.Out], full, k)
		}
		return
	}
	worst := 0.0
	arg := -1
	for _, in := range c.Inputs {
		if a := e.netArrive[in]; a > worst {
			worst = a
			arg = in
		}
	}
	e.argmax[e.order[k]] = arg
	if c.Out >= 0 {
		e.setArrival(c.Out, worst+e.netDelay[c.Out], full, k)
	}
}

// setArrival stores net's latest arrival, set by the cell at position k of
// the topological order (-1 for a primary input). On an incremental pass a
// changed arrival marks the net's sinks for recomputation. Combinational
// sinks come later in the order, so the same pass reaches them; a register
// launches independently of its D input, so sinks at or before k are
// registers and stay clean.
func (e *engine) setArrival(net int, a float64, full bool, k int) {
	if full {
		e.netArrive[net] = a
		return
	}
	if math.Float64bits(a) == math.Float64bits(e.netArrive[net]) {
		return
	}
	e.netArrive[net] = a
	for _, s := range e.nl.Nets[net].Sinks {
		if r := e.rank[s]; r > k {
			e.markDirty(r)
		}
	}
}

// markDirty marks the cell at position k of the topological order for
// recomputation.
func (e *engine) markDirty(k int) { e.dirty[k/64] |= 1 << (k % 64) }

// propagateEarly computes the earliest (hold) arrival times from the net
// delays and critical inputs of the last propagate. A cell none of whose
// inputs has a positive latest arrival launches its output at 0.
//
//ppalint:noalloc
func (e *engine) propagateEarly() {
	nl := e.nl
	// For hold analysis, primary inputs come from upstream registered
	// logic, so the earliest they can change is a clk-to-q after the edge.
	for _, pi := range nl.PINets {
		e.minNetArrive[pi] = e.lib.ClkToQ + e.netDelay[pi]
	}
	for _, ci := range e.order {
		c := &nl.Cells[ci]
		if c.Kind == lib.DFF {
			if c.Out >= 0 {
				e.minNetArrive[c.Out] = e.lib.ClkToQ + e.netDelay[c.Out]
			}
			continue
		}
		best := math.Inf(1)
		for _, in := range c.Inputs {
			if a := e.minNetArrive[in]; a < best {
				best = a
			}
		}
		if e.argmax[ci] < 0 {
			best = 0
		}
		if c.Out >= 0 {
			e.minNetArrive[c.Out] = best + e.netDelay[c.Out]
		}
	}
}

// minEndpointArrival returns the earliest endpoint arrival (hold analysis).
func (e *engine) minEndpointArrival() float64 {
	best := math.Inf(1)
	for _, d := range e.dNets {
		if a := e.minNetArrive[d]; a < best {
			best = a
		}
	}
	if math.IsInf(best, 1) {
		best = 0
	}
	return best
}

// criticalArrival returns the worst endpoint arrival (register D pins and
// primary outputs) and that endpoint's net.
func (e *engine) criticalArrival() (float64, int) {
	worst, arg := 0.0, -1
	for _, d := range e.dNets {
		if a := e.netArrive[d]; a > worst {
			worst = a
			arg = d
		}
	}
	for _, po := range e.nl.PONets {
		if a := e.netArrive[po]; a > worst {
			worst = a
			arg = po
		}
	}
	return worst, arg
}

func (e *engine) achievedPeriod() float64 {
	crit, _ := e.criticalArrival()
	return crit + e.lib.SetupTime + e.opt.SkewPS
}

// upsizeCritical backtraces the worst timing paths and upsizes the cells on
// them. Sizing is selective — only path cells grow — so the drive-strength
// gain is not cancelled by load growth on off-path sinks, mirroring how a
// real optimiser's sizing converges. Returns the number of sizes changed;
// the nets a resized cell drives or loads are marked stale.
func (e *engine) upsizeCritical() int {
	crit, _ := e.criticalArrival()
	if crit <= 0 {
		return 0
	}
	// Collect endpoint nets within 3% of the worst arrival.
	eps := e.endpoints[:0]
	threshold := 0.97 * crit
	for _, d := range e.dNets {
		if e.netArrive[d] >= threshold {
			eps = append(eps, d)
		}
	}
	for _, po := range e.nl.PONets {
		if e.netArrive[po] >= threshold {
			eps = append(eps, po)
		}
	}
	e.endpoints = eps
	const maxEndpoints = 32
	if len(eps) > maxEndpoints {
		eps = eps[:maxEndpoints]
	}
	changed := 0
	seen := e.seen
	clear(seen)
	for _, net := range eps {
		for net >= 0 {
			ci := e.nl.Nets[net].Driver
			if ci < 0 {
				break
			}
			c := &e.nl.Cells[ci]
			if c.Kind == lib.DFF {
				break // launch point reached
			}
			if !seen[ci] && c.Size < e.opt.MaxSize {
				ns := c.Size * 1.5
				if ns > e.opt.MaxSize {
					ns = e.opt.MaxSize
				}
				c.Size = ns
				changed++
				if c.Out >= 0 {
					e.stale[c.Out] = true
				}
				for _, in := range c.Inputs {
					e.stale[in] = true
				}
			}
			seen[ci] = true
			net = e.argmax[ci]
		}
	}
	return changed
}

func (e *engine) result(passes, upsized int) Result {
	e.propagateEarly()
	crit, _ := e.criticalArrival()
	achieved := crit + e.lib.SetupTime + e.opt.SkewPS
	minPath := e.minEndpointArrival()
	// Hold check: data launched at an edge must not race through before the
	// capture register's hold window (skew makes capture clocks late).
	const holdTimePS = 8
	return Result{
		CriticalPathPS:   crit,
		AchievedPeriodPS: achieved,
		SlackPS:          e.opt.TargetPeriodPS - achieved,
		MinPathPS:        minPath,
		HoldSlackPS:      minPath - e.opt.SkewPS - holdTimePS,
		Passes:           passes,
		Upsized:          upsized,
	}
}
