// Package netlist provides the gate-level circuit model consumed by the
// flow simulator — cells, single-driver nets, primary I/O — plus generators
// for the multiply-accumulate (MAC) designs that stand in for the paper's
// industrial benchmarks.
package netlist

import (
	"fmt"
	"slices"

	"ppatuner/internal/pdtool/lib"
)

// Cell is one placed instance. Size is the drive-strength multiplier the
// timing optimiser may raise above 1.
type Cell struct {
	Kind   lib.Kind
	Size   float64
	Inputs []int // net IDs feeding the input pins (D pin for DFFs)
	Out    int   // net ID driven by the output pin, -1 if none
}

// Net connects one driver to its sinks. Driver is a cell ID, or -1 when the
// net is driven by a primary input.
type Net struct {
	Driver int
	Sinks  []int // sink cell IDs (one entry per sink pin)
}

// Netlist is a combinationally acyclic gate-level circuit.
type Netlist struct {
	Name  string
	Cells []Cell
	Nets  []Net
	// PINets are nets driven by primary inputs.
	PINets []int
	// PONets are nets observed by primary outputs.
	PONets []int
}

// Builder incrementally constructs a Netlist.
type Builder struct {
	nl Netlist
}

// NewBuilder starts an empty design.
func NewBuilder(name string) *Builder {
	return &Builder{nl: Netlist{Name: name}}
}

// PI adds a primary input and returns its net ID.
func (b *Builder) PI() int {
	id := len(b.nl.Nets)
	b.nl.Nets = append(b.nl.Nets, Net{Driver: -1})
	b.nl.PINets = append(b.nl.PINets, id)
	return id
}

// PO marks net as a primary output.
func (b *Builder) PO(net int) { b.nl.PONets = append(b.nl.PONets, net) }

// Add instantiates a cell of the given kind reading the input nets, and
// returns the cell's output net ID.
func (b *Builder) Add(kind lib.Kind, inputs ...int) int {
	cellID := len(b.nl.Cells)
	outNet := len(b.nl.Nets)
	b.nl.Nets = append(b.nl.Nets, Net{Driver: cellID})
	b.nl.Cells = append(b.nl.Cells, Cell{Kind: kind, Size: 1, Inputs: append([]int(nil), inputs...), Out: outNet})
	for _, in := range inputs {
		b.nl.Nets[in].Sinks = append(b.nl.Nets[in].Sinks, cellID)
	}
	return outNet
}

// AddDeferred instantiates a cell whose inputs will be wired later with
// Connect (needed for register feedback loops). It returns the cell ID and
// its output net ID.
func (b *Builder) AddDeferred(kind lib.Kind) (cellID, outNet int) {
	cellID = len(b.nl.Cells)
	outNet = len(b.nl.Nets)
	b.nl.Nets = append(b.nl.Nets, Net{Driver: cellID})
	b.nl.Cells = append(b.nl.Cells, Cell{Kind: kind, Size: 1, Out: outNet})
	return cellID, outNet
}

// Connect appends net as the next input pin of cell cellID.
func (b *Builder) Connect(cellID, net int) {
	b.nl.Cells[cellID].Inputs = append(b.nl.Cells[cellID].Inputs, net)
	b.nl.Nets[net].Sinks = append(b.nl.Nets[net].Sinks, cellID)
}

// Build finalises and validates the netlist.
func (b *Builder) Build() (*Netlist, error) {
	nl := b.nl
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	return &nl, nil
}

// Compact copies the cell and net tables, and every net's sink list, to
// their exact lengths, dropping the spare capacity the Builder's appends
// leave (a fifth of the tables for the MAC designs). Call it on a netlist
// that is kept for long and no longer grows.
func (nl *Netlist) Compact() {
	nl.Cells = slices.Clone(nl.Cells)
	nets := slices.Clone(nl.Nets)
	total := 0
	for _, n := range nets {
		total += len(n.Sinks)
	}
	sinks := make([]int, 0, total)
	for i := range nets {
		if len(nets[i].Sinks) == 0 {
			continue
		}
		start := len(sinks)
		sinks = append(sinks, nets[i].Sinks...)
		nets[i].Sinks = sinks[start:len(sinks):len(sinks)]
	}
	nl.Nets = nets
}

// Validate checks structural invariants: every net has a live driver or is a
// primary input, every referenced net exists, and the combinational graph is
// acyclic.
func (nl *Netlist) Validate() error {
	isPI := make(map[int]bool, len(nl.PINets))
	for _, n := range nl.PINets {
		isPI[n] = true
	}
	for id, net := range nl.Nets {
		if net.Driver == -1 {
			if !isPI[id] {
				return fmt.Errorf("netlist %s: net %d has no driver and is not a PI", nl.Name, id)
			}
			continue
		}
		if net.Driver < 0 || net.Driver >= len(nl.Cells) {
			return fmt.Errorf("netlist %s: net %d driver %d out of range", nl.Name, id, net.Driver)
		}
		if nl.Cells[net.Driver].Out != id {
			return fmt.Errorf("netlist %s: net %d driver cell %d drives net %d", nl.Name, id, net.Driver, nl.Cells[net.Driver].Out)
		}
	}
	for ci, c := range nl.Cells {
		for _, in := range c.Inputs {
			if in < 0 || in >= len(nl.Nets) {
				return fmt.Errorf("netlist %s: cell %d input net %d out of range", nl.Name, ci, in)
			}
		}
	}
	if _, err := nl.Levels(); err != nil {
		return err
	}
	return nil
}

// Levels returns the combinational depth of every cell — the number of
// combinational cells on the longest path from a launch point (primary input
// or register output) up to and including the cell — and errors on
// combinational cycles. Registers have level 0; their D fan-in terminates
// paths.
func (nl *Netlist) Levels() ([]int, error) {
	var t Topology
	if err := t.levels(nl); err != nil {
		return nil, err
	}
	return t.Levels, nil
}

// levels fills t.Levels (see Levels), reusing t's memory.
func (t *Topology) levels(nl *Netlist) error {
	n := len(nl.Cells)
	lvl := slices.Grow(t.Levels[:0], n)[:n]
	clear(lvl)
	state := slices.Grow(t.state[:0], n)[:n] // 0 unvisited, 1 in progress, 2 done
	clear(state)
	t.Levels, t.state = lvl, state
	// Depth-first search with an explicit stack: each frame is a cell in
	// progress and the index of the next input it examines. lvl of a cell
	// in progress holds the running maximum over the inputs seen so far.
	stack := t.stack[:0]
	defer func() { t.stack = stack[:0] }()
	for root := range nl.Cells {
		if state[root] != 0 {
			continue
		}
		if isSequential(nl.Cells[root].Kind) {
			state[root] = 2
			continue
		}
		state[root] = 1
		stack = append(stack[:0], frame{root, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			ins := nl.Cells[f.ci].Inputs
			if f.in == len(ins) {
				state[f.ci] = 2
				stack = stack[:len(stack)-1]
				continue
			}
			cand := 1 // launched at a PI or a register output
			if d := nl.Nets[ins[f.in]].Driver; d != -1 {
				switch {
				case state[d] == 1:
					return fmt.Errorf("netlist %s: combinational cycle through cell %d", nl.Name, d)
				case isSequential(nl.Cells[d].Kind):
					state[d] = 2
				case state[d] == 0:
					// Descend; this input is examined again once d is done.
					state[d] = 1
					stack = append(stack, frame{d, 0})
					continue
				default:
					cand = lvl[d] + 1
				}
			}
			lvl[f.ci] = max(lvl[f.ci], cand)
			f.in++
		}
	}
	return nil
}

// frame is a cell in progress in the levelising depth-first search, with
// the index of the next input it examines.
type frame struct{ ci, in int }

func isSequential(k lib.Kind) bool { return k == lib.DFF }

// Topology is the combinational structure of a netlist: every cell's logic
// level (see Levels) and a topological order (registers first, then
// increasing logic depth, cell ID breaking ties). Sizing leaves it unchanged,
// so a flow computes it once per run and hands it to every stage.
type Topology struct {
	Levels []int
	Order  []int
	// Scratch kept for the next Compute.
	state []int8
	stack []frame
	start []int
}

// Topology computes the netlist's levels and topological order.
func (nl *Netlist) Topology() (*Topology, error) {
	t := new(Topology)
	if err := t.Compute(nl); err != nil {
		return nil, err
	}
	return t, nil
}

// Compute sets t to nl's levels and topological order, reusing t's memory.
func (t *Topology) Compute(nl *Netlist) error {
	if err := t.levels(nl); err != nil {
		return err
	}
	// Counting sort by level: deterministic, O(n), stable in cell ID.
	lvl := t.Levels
	maxL := 0
	for _, l := range lvl {
		maxL = max(maxL, l)
	}
	start := slices.Grow(t.start[:0], maxL+2)[:maxL+2]
	clear(start)
	for _, l := range lvl {
		start[l+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	order := slices.Grow(t.Order[:0], len(lvl))[:len(lvl)]
	for ci, l := range lvl {
		order[start[l]] = ci
		start[l]++
	}
	t.Order, t.start = order, start
	return nil
}

// Registers returns the cell IDs of all sequential cells.
func (nl *Netlist) Registers() []int {
	var regs []int
	for ci, c := range nl.Cells {
		if isSequential(c.Kind) {
			regs = append(regs, ci)
		}
	}
	return regs
}

// Stats summarises the design.
type Stats struct {
	Cells     int
	Registers int
	Nets      int
	PIs, POs  int
	MaxLevel  int
	ByKind    map[lib.Kind]int
}

// Stats computes design statistics.
func (nl *Netlist) Stats() Stats {
	s := Stats{
		Cells:  len(nl.Cells),
		Nets:   len(nl.Nets),
		PIs:    len(nl.PINets),
		POs:    len(nl.PONets),
		ByKind: map[lib.Kind]int{},
	}
	for _, c := range nl.Cells {
		s.ByKind[c.Kind]++
		if isSequential(c.Kind) {
			s.Registers++
		}
	}
	if lvl, err := nl.Levels(); err == nil {
		for _, l := range lvl {
			if l > s.MaxLevel {
				s.MaxLevel = l
			}
		}
	}
	return s
}

// TotalArea returns the summed cell area (µm²) at current sizes.
func (nl *Netlist) TotalArea(l *lib.Library) float64 {
	var a float64
	for i := range nl.Cells {
		a += l.Area(nl.Cells[i].Kind, nl.Cells[i].Size)
	}
	return a
}
