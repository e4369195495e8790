// Package route models global routing over the placement bin grid: every
// net's bounding-box demand is smeared over the bins it crosses, congestion
// is demand over capacity, and congested regions force detours that lengthen
// nets. The tool's cong_effort parameter buys rip-up-and-reroute passes that
// spread demand out of hot bins at a small wirelength cost.
package route

import (
	"fmt"
	"math"
	"slices"

	"ppatuner/internal/pdtool/netlist"
	"ppatuner/internal/pdtool/place"
)

// Effort is the congestion-effort ladder of the tool.
type Effort int

const (
	EffortAuto Effort = iota
	EffortMedium
	EffortHigh
)

// ParseEffort maps the tool's enum strings.
func ParseEffort(s string) (Effort, error) {
	switch s {
	case "AUTO":
		return EffortAuto, nil
	case "MEDIUM":
		return EffortMedium, nil
	case "HIGH":
		return EffortHigh, nil
	default:
		return EffortAuto, fmt.Errorf("route: unknown congestion effort %q", s)
	}
}

// Options configures routing.
type Options struct {
	Effort Effort
	// TrackPitchUm is the routing track pitch (default 0.08 µm).
	TrackPitchUm float64
	// Layers is the number of routing layer pairs (default 5).
	Layers int
}

// Result is the routing outcome.
type Result struct {
	// Detour[i] is the routed-length multiplier (≥1) of net i.
	Detour []float64
	// TotalWirelenUm is the sum of routed net lengths.
	TotalWirelenUm float64
	// MaxCongestion is the peak bin demand/capacity ratio.
	MaxCongestion float64
	// AvgCongestion is the mean ratio over occupied bins.
	AvgCongestion float64
	// OverflowUm is the total demand above capacity.
	OverflowUm float64
}

// neighbours are the bin offsets a rip-up pass may shift demand to.
var neighbours = [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

// Route computes per-net detours and congestion statistics.
func Route(nl *netlist.Netlist, pl *place.Result, opt Options) (*Result, error) {
	return new(Router).Route(nl, pl, opt)
}

// A Router routes designs one after another in the same memory: the Result
// of one Route stays valid only until the next.
type Router struct {
	demand, moved []float64  // per bin, µm of wire
	ratio         []binRatio // per bin
	spans         []span     // per net
	cellBin       [][2]int   // per cell: bin column and row
	res           Result
}

// span is the bin rectangle a net's pins cover.
type span struct{ x0, x1, y0, y1 int }

// binRatio is a bin's demand and rerouted demand as fractions of capacity.
type binRatio struct{ cong, moved float64 }

// Route computes per-net detours and congestion statistics, as the
// package-level Route does, in r's memory.
func (r *Router) Route(nl *netlist.Netlist, pl *place.Result, opt Options) (*Result, error) {
	if opt.TrackPitchUm <= 0 {
		opt.TrackPitchUm = 0.08
	}
	if opt.Layers <= 0 {
		opt.Layers = 5
	}
	bx, by := pl.BinsX, pl.BinsY
	if bx == 0 || by == 0 {
		return nil, fmt.Errorf("route: placement has no bin grid")
	}
	binW := pl.CoreW / float64(bx)
	binH := pl.CoreH / float64(by)
	// Capacity: routable wirelength per bin across all layers.
	capacity := float64(opt.Layers) * (binW/opt.TrackPitchUm*binH + binH/opt.TrackPitchUm*binW) / 2

	nbins := bx * by
	demand := slices.Grow(r.demand[:0], nbins)[:nbins]
	clear(demand)
	r.demand = demand
	spans := slices.Grow(r.spans[:0], len(nl.Nets))[:len(nl.Nets)]
	r.spans = spans
	addDemand := func(s span, length float64) {
		nb := float64((s.x1 - s.x0 + 1) * (s.y1 - s.y0 + 1))
		per := length / nb
		for y := s.y0; y <= s.y1; y++ {
			for x := s.x0; x <= s.x1; x++ {
				demand[y*bx+x] += per
			}
		}
	}
	// Every cell's bin column and row, computed once rather than per pin.
	cellBin := slices.Grow(r.cellBin[:0], len(nl.Cells))[:len(nl.Cells)]
	r.cellBin = cellBin
	for ci := range cellBin {
		x := int(pl.X[ci] / pl.CoreW * float64(bx))
		y := int(pl.Y[ci] / pl.CoreH * float64(by))
		cellBin[ci] = [2]int{min(max(x, 0), bx-1), min(max(y, 0), by-1)}
	}
	lengths := pl.NetLen
	for id, net := range nl.Nets {
		if net.Driver < 0 || len(net.Sinks) == 0 {
			spans[id] = span{0, 0, 0, 0}
			continue
		}
		x0, y0 := cellBin[net.Driver][0], cellBin[net.Driver][1]
		s := span{x0, x0, y0, y0}
		for _, snk := range net.Sinks {
			x, y := cellBin[snk][0], cellBin[snk][1]
			s.x0 = min(s.x0, x)
			s.x1 = max(s.x1, x)
			s.y0 = min(s.y0, y)
			s.y1 = max(s.y1, y)
		}
		spans[id] = s
		addDemand(s, lengths[id])
	}

	// Rip-up passes: move demand from overfull bins to their least-loaded
	// neighbour; each unit moved pays a detour tax recorded per bin.
	passes := 1
	switch opt.Effort {
	case EffortMedium:
		passes = 2
	case EffortHigh:
		passes = 4
	}
	moved := slices.Grow(r.moved[:0], nbins)[:nbins]
	clear(moved)
	r.moved = moved
	for p := 0; p < passes; p++ {
		changed := false
		for y := 0; y < by; y++ {
			for x := 0; x < bx; x++ {
				b := y*bx + x
				if demand[b] <= capacity {
					continue
				}
				excess := demand[b] - capacity
				// Find least-loaded neighbour.
				bestB, bestD := -1, math.Inf(1)
				for _, d := range neighbours {
					tx, ty := x+d[0], y+d[1]
					if tx < 0 || tx >= bx || ty < 0 || ty >= by {
						continue
					}
					tb := ty*bx + tx
					if demand[tb] < bestD {
						bestD = demand[tb]
						bestB = tb
					}
				}
				if bestB < 0 || bestD >= demand[b] {
					continue
				}
				shift := math.Min(excess, (demand[b]-bestD)/2)
				demand[b] -= shift
				demand[bestB] += shift
				moved[bestB] += shift
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	res := &r.res
	// Every net's detour is written below.
	*res = Result{Detour: slices.Grow(res.Detour[:0], len(nl.Nets))[:len(nl.Nets)]}
	var congSum float64
	occupied := 0
	var overflow float64
	for _, d := range demand {
		ratio := d / capacity
		if d > 0 {
			congSum += ratio
			occupied++
		}
		if ratio > res.MaxCongestion {
			res.MaxCongestion = ratio
		}
		if d > capacity {
			overflow += d - capacity
		}
	}
	if occupied > 0 {
		res.AvgCongestion = congSum / float64(occupied)
	}
	res.OverflowUm = overflow

	// Per-net detour: average congestion over the net's span, plus the
	// rip-up tax of rerouted demand crossing its bins. Both are summed per
	// bin as ratios to capacity, so convert once.
	ratio := slices.Grow(r.ratio[:0], nbins)[:nbins]
	r.ratio = ratio
	for b := range demand {
		ratio[b] = binRatio{demand[b] / capacity, moved[b] / capacity}
	}
	for id := range nl.Nets {
		s := spans[id]
		if lengths[id] == 0 {
			res.Detour[id] = 1
			continue
		}
		var c, m float64
		nb := 0
		for y := s.y0; y <= s.y1; y++ {
			for x := s.x0; x <= s.x1; x++ {
				r := ratio[y*bx+x]
				c += r.cong
				m += r.moved
				nb++
			}
		}
		c /= float64(nb)
		m /= float64(nb)
		detour := 1.0
		if c > 0.5 {
			// Congestion-driven scenic routing grows superlinearly: past
			// ~50% track usage, maze routers start taking long ways around,
			// and overflow regions blow up quickly.
			d := c - 0.5
			detour += 0.6*d + 2.2*d*d
		}
		detour += 0.15 * m // rip-up reroutes are slightly longer
		res.Detour[id] = detour
		res.TotalWirelenUm += lengths[id] * detour
	}
	return res, nil
}
