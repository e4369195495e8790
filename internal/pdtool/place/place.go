// Package place implements the global-placement step of the flow simulator:
// a levelised initial placement followed by force-directed refinement with
// bin-density legalisation. Its outputs — cell coordinates, bin utilisation,
// half-perimeter wirelength — feed the routing, timing and power engines.
//
// Tool parameters steering it: max_Density sets the core utilisation (die
// size), max_density caps local bin density during spreading,
// uniform_density forces even spreading, and the timing effort adds netlist-
// depth-weighted attraction so critical logic clusters.
package place

import (
	"fmt"
	"math"
	"slices"

	"ppatuner/internal/pdtool/lib"
	"ppatuner/internal/pdtool/netlist"
)

// Options configures a placement run.
type Options struct {
	// TargetUtil is the core utilisation (the tool's max_Density): the die
	// area is cellArea / TargetUtil.
	TargetUtil float64
	// MaxBinDensity caps the local bin utilisation during spreading (the
	// tool's max_density).
	MaxBinDensity float64
	// UniformDensity spreads cells evenly regardless of MaxBinDensity
	// (the tool's uniform_density switch).
	UniformDensity bool
	// TimingWeight in [0, 1] scales extra attraction on deep-logic nets.
	TimingWeight float64
	// Iterations is the number of refine+legalise rounds (effort-derived).
	Iterations int
	// Topo is the netlist's precomputed topology; nil computes it here.
	Topo *netlist.Topology
}

// Result is the placement outcome.
type Result struct {
	X, Y         []float64 // cell positions, µm
	CoreW, CoreH float64   // die dimensions, µm
	BinsX, BinsY int
	BinUtil      []float64 // row-major bin utilisation (area / bin capacity)
	Overflow     float64   // fraction of cell area in overfull bins
	HPWL         float64   // total half-perimeter wirelength, µm
	// NetLen[i] is net i's half-perimeter, µm: the routed-length estimate
	// DRV fixing and routing read (0 for PI-driven and sinkless nets).
	NetLen []float64
}

// Bin returns the bin index containing coordinate (x, y).
func (r *Result) Bin(x, y float64) int {
	bx := int(x / r.CoreW * float64(r.BinsX))
	by := int(y / r.CoreH * float64(r.BinsY))
	if bx < 0 {
		bx = 0
	} else if bx >= r.BinsX {
		bx = r.BinsX - 1
	}
	if by < 0 {
		by = 0
	} else if by >= r.BinsY {
		by = r.BinsY - 1
	}
	return by*r.BinsX + bx
}

// binCap is the area of one bin, µm².
func (r *Result) binCap() float64 {
	return (r.CoreW / float64(r.BinsX)) * (r.CoreH / float64(r.BinsY))
}

// Place runs global placement. It is deterministic: identical inputs yield
// identical results.
func Place(nl *netlist.Netlist, l *lib.Library, opt Options) (*Result, error) {
	return new(Placer).Place(nl, l, opt)
}

// A Placer runs placements one after another in the same memory: the
// Result of one Place stays valid only until the next. A flow that places
// many configurations keeps one Placer instead of allocating every buffer
// for every run.
type Placer struct {
	ws   workspace
	netW []float64
	res  Result
}

// Place runs global placement, as the package-level Place does, in p's
// memory.
func (p *Placer) Place(nl *netlist.Netlist, l *lib.Library, opt Options) (*Result, error) {
	n := len(nl.Cells)
	if n == 0 {
		return nil, fmt.Errorf("place: empty netlist %s", nl.Name)
	}
	if opt.TargetUtil <= 0 || opt.TargetUtil > 1 {
		return nil, fmt.Errorf("place: TargetUtil %g outside (0, 1]", opt.TargetUtil)
	}
	if opt.MaxBinDensity <= 0 {
		return nil, fmt.Errorf("place: MaxBinDensity %g <= 0", opt.MaxBinDensity)
	}
	if opt.Iterations <= 0 {
		opt.Iterations = 8
	}

	// Bin grid for legalisation.
	bins := int(math.Sqrt(float64(n)/12)) + 4
	ws := &p.ws
	ws.reset(n, bins*bins)
	for ci := range nl.Cells {
		ws.cellArea[ci] = l.Area(nl.Cells[ci].Kind, nl.Cells[ci].Size)
		ws.totalArea += ws.cellArea[ci]
	}
	coreArea := ws.totalArea / opt.TargetUtil
	side := math.Sqrt(coreArea)
	res := &p.res
	*res = Result{
		X:       slices.Grow(res.X[:0], n)[:n],
		Y:       slices.Grow(res.Y[:0], n)[:n],
		CoreW:   side,
		CoreH:   side,
		BinsX:   bins,
		BinsY:   bins,
		BinUtil: res.BinUtil,
		NetLen:  res.NetLen,
	}
	binCap := res.binCap()
	for ci, a := range ws.cellArea {
		ws.frac[ci] = a / binCap
	}
	binW, binH := res.CoreW/float64(bins), res.CoreH/float64(bins)
	for b := range ws.center {
		ws.center[b] = point{(float64(b%bins) + 0.5) * binW, (float64(b/bins) + 0.5) * binH}
	}

	topo := opt.Topo
	if topo == nil {
		var err error
		if topo, err = nl.Topology(); err != nil {
			return nil, err
		}
	}

	// Initial placement: snake cells across the core in topological order so
	// connected logic starts near its neighbours.
	order := topo.Order
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	pitchX := side / float64(cols)
	rows := (n + cols - 1) / cols
	pitchY := side / float64(rows)
	for i, ci := range order {
		r, c := i/cols, i%cols
		if r%2 == 1 {
			c = cols - 1 - c
		}
		ws.pos[ci] = point{(float64(c) + 0.5) * pitchX, (float64(r) + 0.5) * pitchY}
	}

	// Net weights: deeper logic gets stronger attraction under timing-driven
	// placement.
	lvl := topo.Levels
	maxLvl := 1
	for _, lv := range lvl {
		if lv > maxLvl {
			maxLvl = lv
		}
	}
	netW := slices.Grow(p.netW[:0], len(nl.Nets))[:len(nl.Nets)]
	p.netW = netW
	for id, net := range nl.Nets {
		w := 1.0
		if net.Driver >= 0 && opt.TimingWeight > 0 {
			w += opt.TimingWeight * float64(lvl[net.Driver]) / float64(maxLvl)
		}
		// Huge-fanout nets (e.g. operand broadcasts) attract weakly per pin.
		if len(net.Sinks) > 8 {
			w *= 8 / float64(len(net.Sinks))
		}
		netW[id] = w
	}
	// Each cell's total pull weight depends on the net weights alone, so
	// it is summed once here, in the order forceStep would sum it.
	wsum := ws.wsum
	clear(wsum)
	for id, net := range nl.Nets {
		a := net.Driver
		if a < 0 {
			continue
		}
		w, wa := netW[id], wsum[a]
		for _, b := range net.Sinks {
			if b != a {
				wa += w
				wsum[b] += w
			}
		}
		wsum[a] = wa
	}

	for iter := 0; iter < opt.Iterations; iter++ {
		step := 0.7 * math.Pow(0.85, float64(iter))
		forceStep(nl, res, ws, netW, step)
		spread(res, ws, opt, iter == opt.Iterations-1)
	}

	for ci, q := range ws.pos {
		res.X[ci], res.Y[ci] = q.x, q.y
	}
	res.Overflow = binStats(res, ws, opt)
	res.HPWL = netLengths(nl, res)
	return res, nil
}

// workspace holds the buffers the refine+legalise rounds reuse, so the
// rounds allocate nothing.
type workspace struct {
	cellArea  []float64 // per cell, µm²
	frac      []float64 // per cell: cellArea over one bin's area
	totalArea float64   // sum of cellArea, µm²
	pos       []point   // per cell: position, µm (copied to X, Y at the end)
	pull      []pull    // per cell: weighted pull sums (forceStep)
	wsum      []float64 // per cell: total pull weight
	util      []float64 // per bin: utilisation (spread)
	center    []point   // per bin: its centre, where spread puts moved cells
	// Each bin's members form a LIFO stack threaded through next: top[b]
	// is the most recently added cell of bin b (-1 when empty), next[ci]
	// the cell below ci, count[b] the stack depth.
	top, count []int
	next       []int
}

// reset sizes the workspace for a netlist of the given cells and bins.
// Place overwrites every per-cell buffer and spread clears the per-bin
// ones, so old contents never leak into a run.
func (ws *workspace) reset(cells, bins int) {
	ws.cellArea = slices.Grow(ws.cellArea[:0], cells)[:cells]
	ws.frac = slices.Grow(ws.frac[:0], cells)[:cells]
	ws.totalArea = 0
	ws.pos = slices.Grow(ws.pos[:0], cells)[:cells]
	ws.pull = slices.Grow(ws.pull[:0], cells)[:cells]
	ws.wsum = slices.Grow(ws.wsum[:0], cells)[:cells]
	ws.util = slices.Grow(ws.util[:0], bins)[:bins]
	ws.center = slices.Grow(ws.center[:0], bins)[:bins]
	ws.top = slices.Grow(ws.top[:0], bins)[:bins]
	ws.count = slices.Grow(ws.count[:0], bins)[:bins]
	ws.next = slices.Grow(ws.next[:0], cells)[:cells]
}

// push adds cell ci on top of bin b's stack.
func (ws *workspace) push(b, ci int) {
	ws.next[ci] = ws.top[b]
	ws.top[b] = ci
	ws.count[b]++
}

// pop removes and returns the top cell of bin b's stack.
func (ws *workspace) pop(b int) int {
	ci := ws.top[b]
	ws.top[b] = ws.next[ci]
	ws.count[b]--
	return ci
}

// point is a cell position; forceStep reads x and y together.
type point struct{ x, y float64 }

// pull accumulates the weighted positions of a cell's neighbours.
type pull struct{ x, y float64 }

// neighbours are the bin offsets spread tries, in preference order on ties.
var neighbours = [8][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {-1, -1}, {1, -1}, {-1, 1}}

// forceStep moves every cell a fraction of the way toward the weighted
// centroid of its connected cells.
//
//ppalint:noalloc
func forceStep(nl *netlist.Netlist, res *Result, ws *workspace, netW []float64, step float64) {
	ps, pos := ws.pull, ws.pos
	clear(ps)
	for id, net := range nl.Nets {
		a := net.Driver
		if a < 0 {
			continue
		}
		// The driver's sums accumulate in pa: a sink equal to the driver
		// is skipped, so nothing else updates them in this loop and the
		// additions keep their order.
		w := netW[id]
		xa, ya := pos[a].x, pos[a].y
		pa := ps[a]
		for _, b := range net.Sinks {
			if b == a {
				continue
			}
			pa.x += w * pos[b].x
			pa.y += w * pos[b].y
			pb := &ps[b]
			pb.x += w * xa
			pb.y += w * ya
		}
		ps[a] = pa
	}
	for ci, p := range ps {
		pw := ws.wsum[ci]
		if pw == 0 {
			continue
		}
		cx := p.x / pw
		cy := p.y / pw
		q := &pos[ci]
		q.x += step * (cx - q.x)
		q.y += step * (cy - q.y)
		q.x = clamp(q.x, 0, res.CoreW)
		q.y = clamp(q.y, 0, res.CoreH)
	}
}

// spread legalises bin density: cells in overfull bins are pushed to the
// least-full neighbouring bin. The density cap is MaxBinDensity, or the
// average utilisation when UniformDensity is set (even spreading). The final
// round always enforces the cap so the result respects the constraint.
//
//ppalint:noalloc
func spread(res *Result, ws *workspace, opt Options, final bool) {
	frac := ws.frac
	bx, by := res.BinsX, res.BinsY

	cap := opt.MaxBinDensity
	avg := ws.totalArea / (res.CoreW * res.CoreH)
	if opt.UniformDensity {
		// Even distribution: allow only a little headroom above average.
		cap = math.Min(cap, avg*1.15+0.02)
	}

	util := ws.util
	clear(util)
	clear(ws.count)
	for b := range ws.top {
		ws.top[b] = -1
	}
	for ci, f := range frac {
		b := res.Bin(ws.pos[ci].x, ws.pos[ci].y)
		util[b] += f
		ws.push(b, ci)
	}
	passes := 1
	if final {
		passes = 3
	}
	for p := 0; p < passes; p++ {
		moved := false
		for b := 0; b < bx*by; b++ {
			if util[b] <= cap {
				continue
			}
			cx, cy := b%bx, b/bx
			var nbrs [len(neighbours)]int
			k := 0
			for _, d := range neighbours {
				tx, ty := cx+d[0], cy+d[1]
				if tx >= 0 && tx < bx && ty >= 0 && ty < by {
					nbrs[k] = ty*bx + tx
					k++
				}
			}
			// Move the latest-arrived cells out to the least-full neighbour.
			for util[b] > cap && ws.count[b] > 1 {
				ci := ws.pop(b)
				nb := b
				bestU := math.Inf(1)
				for _, tb := range nbrs[:k] {
					if util[tb] < bestU {
						bestU = util[tb]
						nb = tb
					}
				}
				if nb == b {
					break
				}
				util[b] -= frac[ci]
				util[nb] += frac[ci]
				ws.push(nb, ci)
				ws.pos[ci] = ws.center[nb]
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

// binStats recomputes the final utilisation into res.BinUtil and returns
// the overflow fraction.
func binStats(res *Result, ws *workspace, opt Options) float64 {
	binCap := res.binCap()
	nb := res.BinsX * res.BinsY
	util := slices.Grow(res.BinUtil[:0], nb)[:nb]
	clear(util)
	res.BinUtil = util
	var total float64
	for ci, a := range ws.cellArea {
		util[res.Bin(res.X[ci], res.Y[ci])] += ws.frac[ci]
		total += a
	}
	var over float64
	for _, u := range util {
		if u > opt.MaxBinDensity {
			over += (u - opt.MaxBinDensity) * binCap
		}
	}
	return over / total
}

// netLengths stores every net's half-perimeter in res.NetLen and returns
// their sum, the HPWL.
func netLengths(nl *netlist.Netlist, res *Result) float64 {
	lengths := slices.Grow(res.NetLen[:0], len(nl.Nets))[:len(nl.Nets)]
	clear(lengths)
	res.NetLen = lengths
	var total float64
	for id, net := range nl.Nets {
		if net.Driver < 0 || len(net.Sinks) == 0 {
			continue
		}
		minX, maxX := res.X[net.Driver], res.X[net.Driver]
		minY, maxY := res.Y[net.Driver], res.Y[net.Driver]
		for _, s := range net.Sinks {
			minX = min(minX, res.X[s])
			maxX = max(maxX, res.X[s])
			minY = min(minY, res.Y[s])
			maxY = max(maxY, res.Y[s])
		}
		lengths[id] = (maxX - minX) + (maxY - minY)
		total += lengths[id]
	}
	return total
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
