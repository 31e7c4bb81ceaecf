// Package selection implements OPERON's solution-determination stage: given
// the per-hyper-net candidate sets produced by internal/codesign, it picks
// exactly one candidate per hyper net so that total power is minimised and
// every optical detection path meets the loss budget, accounting for the
// crossing loss selected candidates inflict on each other.
//
// Two solvers are provided, mirroring the paper: SolveILP builds the exact
// quadratic 0-1 programme of §3.3 (linearised exactly) and solves it by
// branch and bound; SolveLR runs the Lagrangian-relaxation iteration of
// §3.4, trading a little quality for orders of magnitude less runtime.
package selection

import (
	"context"
	"fmt"
	"math"
	"slices"

	"operon/internal/codesign"
	"operon/internal/geom"
	"operon/internal/optics"
	"operon/internal/parallel"
)

// Net is one hyper net with its candidate solutions. The last candidate is
// expected to be the pure-electrical fallback a_ie (as produced by
// codesign.Generate), guaranteeing feasibility.
type Net struct {
	// Bits is the net's bit width (drives conversion power and WDM shares).
	Bits int
	// Cands lists the candidate implementations to choose from.
	Cands []codesign.Candidate
}

// ElectricalIndex returns the index of the electrical fallback candidate,
// or -1 if the net has none.
func (n Net) ElectricalIndex() int {
	for j := len(n.Cands) - 1; j >= 0; j-- {
		if n.Cands[j].AllElectrical {
			return j
		}
	}
	return -1
}

// Instance is a complete selection problem.
//
// NewInstance precomputes every §3.3 crossing-loss term the solvers can
// read into one dense table, so an Instance is read-only afterwards: the
// parallel pricing and multiplier-update steps of SolveLR read it with no
// lock and no hashing. Only Evaluate and Repair use instance-owned scratch.
type Instance struct {
	// Nets is the hyper nets with their candidate lists.
	Nets []Net
	// Lib is the optical library supplying the loss budget and crossing loss.
	Lib optics.Library

	// candBox[i][j] is the bounding box of candidate (i,j)'s optical
	// segments; hasOpt[i][j] reports whether it has any.
	candBox [][]geom.Rect
	hasOpt  [][]bool
	// interactions[i] lists, ascending, the nets whose candidate boxes
	// overlap net i's box; rev[i][k] is the position of i in
	// interactions[interactions[i][k]], or -1 when i is not listed there.
	interactions [][]int
	rev          [][]int
	// pathOff[i][j] is the offset of candidate (i,j)'s paths in any flat
	// per-path vector of length numPaths (the LR multiplier layout);
	// netPaths[i] counts net i's paths over all its candidates.
	pathOff  [][]int
	netPaths []int
	numPaths int
	// cross is the crossing-loss table. For the directed net pair
	// (i, m = interactions[i][k]) it holds a block of cands(m) rows of
	// netPaths[i] entries at crossBase[i][k]: row n lists, for every path of
	// net i in pathOff order, the loss in dB that candidate (m,n) inflicts
	// on it. Pairs not in interactions inflict no loss and have no block.
	cross     []float64
	crossBase [][]int
	// zeros backs CrossLossDB's answer for pairs without a block.
	zeros []float64
	// seeded and counted are reported by FillStats.
	seeded, counted int
	// evalExtra is scratch for Evaluate and Repair (the sequential path).
	evalExtra []float64
}

// InstanceOptions tunes NewInstance.
type InstanceOptions struct {
	// Workers bounds the per-net parallelism of the crossing-loss fill
	// (0 = NumCPU, 1 = serial). The table is identical for every count.
	Workers int
	// Prev, when non-nil, is an earlier instance whose crossing-loss blocks
	// are copied instead of recomputed for every pair of nets that both
	// carried over (see PrevIndex). Its library must equal the new one's,
	// or nothing is copied.
	Prev *Instance
	// PrevIndex[i] is the index in Prev of new net i, or -1 when the net is
	// new or rebuilt. A mapped net must carry its candidate list verbatim
	// from Prev (same geometry, same order): the copied losses are a pure
	// function of the two candidate lists. Ignored unless its length is the
	// new net count.
	PrevIndex []int
}

// NewInstance validates the nets, prepares the interaction bookkeeping and
// fills the crossing-loss table.
func NewInstance(nets []Net, lib optics.Library, opt InstanceOptions) (*Instance, error) {
	if len(nets) == 0 {
		return nil, fmt.Errorf("selection: no nets")
	}
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	inst := &Instance{Nets: nets, Lib: lib}
	inst.candBox = make([][]geom.Rect, len(nets))
	inst.hasOpt = make([][]bool, len(nets))
	for i, n := range nets {
		if len(n.Cands) == 0 {
			return nil, fmt.Errorf("selection: net %d has no candidates", i)
		}
		if n.ElectricalIndex() < 0 {
			return nil, fmt.Errorf("selection: net %d lacks an electrical fallback", i)
		}
		inst.candBox[i] = make([]geom.Rect, len(n.Cands))
		inst.hasOpt[i] = make([]bool, len(n.Cands))
		for j, c := range n.Cands {
			if len(c.OpticalSegs) == 0 {
				continue
			}
			inst.hasOpt[i][j] = true
			inst.candBox[i][j] = geom.SegmentsBBox(c.OpticalSegs)
		}
	}
	inst.pathOff = make([][]int, len(nets))
	inst.netPaths = make([]int, len(nets))
	off, maxPaths := 0, 0
	for i, n := range nets {
		inst.pathOff[i] = make([]int, len(n.Cands))
		for j, c := range n.Cands {
			inst.pathOff[i][j] = off
			off += len(c.Paths)
			maxPaths = max(maxPaths, len(c.Paths))
		}
		inst.netPaths[i] = off - inst.pathOff[i][0]
	}
	inst.numPaths = off
	inst.zeros = make([]float64, maxPaths)
	inst.precomputeInteractions()
	inst.fillCross(opt)
	return inst, nil
}

// precomputeInteractions fills interactions[i] for every net — the §3.3
// bounding-box pruning that drops crossing terms between non-overlapping
// hyper nets — and rev. Net m interacts with net i when one of m's
// candidate boxes overlaps net i's box (the union of its candidate boxes);
// geom.OverlapLists finds the nets whose boxes overlap.
func (inst *Instance) precomputeInteractions() {
	n := len(inst.Nets)
	netBox := make([]geom.Rect, n)
	netHas := make([]bool, n)
	for i := range inst.Nets {
		for j := range inst.Nets[i].Cands {
			if inst.hasOpt[i][j] {
				if !netHas[i] {
					netBox[i] = inst.candBox[i][j]
					netHas[i] = true
				} else {
					netBox[i] = netBox[i].Union(inst.candBox[i][j])
				}
			}
		}
	}
	// The lists, rev and crossBase are views into flat arrays, one
	// allocation each rather than one per net.
	flat, start := geom.OverlapLists(netBox, netHas, func(i, m int) bool {
		for j := range inst.Nets[m].Cands {
			if inst.hasOpt[m][j] && netBox[i].Overlaps(inst.candBox[m][j]) {
				return true
			}
		}
		return false
	})
	inst.interactions = views(flat, start)
	inst.rev = views(make([]int, len(flat)), start)
	for i, inter := range inst.interactions {
		for k, m := range inter {
			inst.rev[i][k] = -1
			if r, ok := slices.BinarySearch(inst.interactions[m], i); ok {
				inst.rev[i][k] = r
			}
		}
	}
	inst.crossBase = views(make([]int, len(flat)), start)
}

// views splits flat into the capped sub-slices flat[start[i]:start[i+1]].
func views(flat []int, start []int) [][]int {
	out := make([][]int, len(start)-1)
	for i := range out {
		out[i] = flat[start[i]:start[i+1]:start[i+1]]
	}
	return out
}

// fillCross lays out and fills the crossing-loss table: one block per
// interacting net pair, computed per net on a worker pool (each worker
// writes only its own net's blocks) or, for a pair whose two nets both
// carried over from opt.Prev, copied from Prev's block.
func (inst *Instance) fillCross(opt InstanceOptions) {
	n := len(inst.Nets)
	size := 0
	for i, inter := range inst.interactions {
		for k, m := range inter {
			inst.crossBase[i][k] = size
			size += inst.netPaths[i] * len(inst.Nets[m].Cands)
		}
	}
	if size == 0 {
		return // no two nets interact
	}
	inst.cross = make([]float64, size)

	prev, prevIndex := opt.Prev, opt.PrevIndex
	if prev == nil || prev.Lib != inst.Lib || len(prevIndex) != n {
		prev, prevIndex = nil, nil
	}
	// Segment bounding boxes are computed once here rather than inside every
	// crossing count: per candidate (indexed candStart[m]+c) and per path
	// (indexed by pathOff).
	candStart := make([]int, n+1)
	for m, net := range inst.Nets {
		candStart[m+1] = candStart[m] + len(net.Cands)
	}
	var nCandSegs, nPathSegs int
	for i := range inst.Nets {
		for j := range inst.Nets[i].Cands {
			c := &inst.Nets[i].Cands[j]
			nCandSegs += len(c.OpticalSegs)
			for p := range c.Paths {
				nPathSegs += len(c.Paths[p].Segs)
			}
		}
	}
	candSegs, pathSegs := newBoxTable(candStart[n], nCandSegs), newBoxTable(inst.numPaths, nPathSegs)
	for i := range inst.Nets {
		for j := range inst.Nets[i].Cands {
			c := &inst.Nets[i].Cands[j]
			candSegs.add(c.OpticalSegs)
			for p := range c.Paths {
				pathSegs.add(c.Paths[p].Segs)
			}
		}
	}
	f := filler{inst: inst, candStart: candStart, candSegs: candSegs, pathSegs: pathSegs}

	seeded := make([]int, n)
	counted := make([]int, n)
	// ForEach can fail only through fn or ctx, and neither ever does here.
	_ = parallel.ForEach(context.Background(), n, opt.Workers, func(i int) error {
		for k, m := range inst.interactions[i] {
			block := inst.pairBlock(i, k)
			if prev != nil {
				if src := prev.block(prevIndex[i], prevIndex[m]); len(src) == len(block) {
					copy(block, src)
					seeded[i] += len(inst.Nets[i].Cands) * len(inst.Nets[m].Cands)
					continue
				}
			}
			counted[i] += f.count(block, i, m)
		}
		return nil
	})
	for i := range seeded {
		inst.seeded += seeded[i]
		inst.counted += counted[i]
	}
}

// A boxTable holds the segment bounding boxes of a family of segment lists
// and each list's hull: list l's boxes are box[off[l]:off[l+1]].
type boxTable struct {
	off  []int
	box  []geom.Rect
	hull []geom.Rect
}

// newBoxTable returns an empty table with room for n lists of segs
// segments in all.
func newBoxTable(n, segs int) *boxTable {
	return &boxTable{off: make([]int, 1, n+1), box: make([]geom.Rect, 0, segs), hull: make([]geom.Rect, 0, n)}
}

// add appends the boxes of one list.
func (t *boxTable) add(segs []geom.Segment) {
	for _, s := range segs {
		t.box = append(t.box, s.BBox())
	}
	t.off = append(t.off, len(t.box))
	t.hull = append(t.hull, geom.SegmentsBBox(segs))
}

// of returns list l's boxes.
func (t *boxTable) of(l int) []geom.Rect { return t.box[t.off[l]:t.off[l+1]] }

// A filler computes table blocks from the instance's geometry and the
// precomputed segment boxes; it is read-only and shared by the workers.
type filler struct {
	inst               *Instance
	candStart          []int
	candSegs, pathSegs *boxTable
}

// count fills block, the table block of the net pair (i,m), by counting
// crossings, and returns the number of counts it ran. A path whose hull
// does not overlap the other candidate's box is skipped: it crosses none of
// its segments, and the block is zero already.
func (f *filler) count(block []float64, i, m int) int {
	inst := f.inst
	calls := 0
	for nn := range inst.Nets[m].Cands {
		if !inst.hasOpt[m][nn] {
			continue
		}
		other, obox := inst.Nets[m].Cands[nn].OpticalSegs, inst.candBox[m][nn]
		oboxes := f.candSegs.of(f.candStart[m] + nn)
		row := block[nn*inst.netPaths[i]:]
		for j := range inst.Nets[i].Cands {
			if !inst.hasOpt[i][j] || !inst.candBox[i][j].Overlaps(obox) {
				continue
			}
			paths := inst.Nets[i].Cands[j].Paths
			at := inst.pathOff[i][j]
			for p := range paths {
				if !f.pathSegs.hull[at+p].Overlaps(obox) {
					continue
				}
				crossings := geom.CountCrossingsBoxed(paths[p].Segs, f.pathSegs.of(at+p), other, oboxes)
				row[at-inst.pathOff[i][0]+p] = inst.Lib.CrossingLossDB(crossings)
				calls++
			}
		}
	}
	return calls
}

// block returns the table block of the net pair (i, m), or nil when either
// index is out of range or m is not in interactions[i].
func (inst *Instance) block(i, m int) []float64 {
	if i < 0 || m < 0 || i >= len(inst.Nets) || m >= len(inst.Nets) {
		return nil
	}
	k, ok := slices.BinarySearch(inst.interactions[i], m)
	if !ok {
		return nil
	}
	return inst.pairBlock(i, k)
}

// pairBlock returns the table block of the net pair (i, interactions[i][k]).
func (inst *Instance) pairBlock(i, k int) []float64 {
	b := inst.crossBase[i][k]
	e := b + inst.netPaths[i]*len(inst.Nets[inst.interactions[i][k]].Cands)
	return inst.cross[b:e:e]
}

// pairLoss returns, for each path of candidate (i,j), the crossing loss in
// dB inflicted by candidate n of net interactions[i][k]. The slice aliases
// the table.
func (inst *Instance) pairLoss(i, k, j, n int) []float64 {
	b := inst.crossBase[i][k] + n*inst.netPaths[i] + inst.pathOff[i][j] - inst.pathOff[i][0]
	e := b + len(inst.Nets[i].Cands[j].Paths)
	return inst.cross[b:e:e]
}

// CrossLossDB returns, for each path of candidate (i,j), the crossing loss
// in dB inflicted by candidate (m,n)'s waveguides. The slice aliases the
// instance's read-only table and must not be modified; the call is safe
// for concurrent use.
func (inst *Instance) CrossLossDB(i, j, m, n int) []float64 {
	if k, ok := slices.BinarySearch(inst.interactions[i], m); ok {
		return inst.pairLoss(i, k, j, n)
	}
	return inst.zeros[:len(inst.Nets[i].Cands[j].Paths)]
}

// FillStats reports how NewInstance filled the crossing-loss table: seeded
// counts the (i,j,m,n) entries copied from InstanceOptions.Prev, counted
// the crossing counts (one per path and opposing candidate) run for the
// rest.
func (inst *Instance) FillStats() (seeded, counted int) { return inst.seeded, inst.counted }

// InteractingNets returns, for net i, the other nets whose candidate
// bounding boxes overlap any of net i's — the §3.3 speed-up that drops
// crossing variables between non-overlapping hyper nets. The lists are
// ascending and precomputed, so this is a lock-free read.
func (inst *Instance) InteractingNets(i int) []int {
	return inst.interactions[i]
}

// Selection is a complete assignment of one candidate per net.
type Selection struct {
	// Choice[i] indexes the chosen candidate of net i.
	Choice []int
	// PowerMW is the total power of the chosen candidates.
	PowerMW float64
	// Violations counts detection-constraint violations under exact
	// pairwise crossing loss.
	Violations int
	// MaxViolationDB is the largest amount by which a path exceeds the
	// budget.
	MaxViolationDB float64
}

// Evaluate computes the exact power and loss legality of a choice vector.
// It reuses instance-owned scratch, so like Repair it must not be called
// from concurrent goroutines (the parallel pricing step reads only the
// crossing-loss table, which is never written after NewInstance).
func (inst *Instance) Evaluate(choice []int) (Selection, error) {
	if len(choice) != len(inst.Nets) {
		return Selection{}, fmt.Errorf("selection: choice length %d for %d nets",
			len(choice), len(inst.Nets))
	}
	sel := Selection{Choice: append([]int(nil), choice...)}
	for i, j := range choice {
		if j < 0 || j >= len(inst.Nets[i].Cands) {
			return Selection{}, fmt.Errorf("selection: net %d choice %d out of range", i, j)
		}
		sel.PowerMW += inst.Nets[i].Cands[j].PowerMW
	}
	for i, j := range choice {
		cand := &inst.Nets[i].Cands[j]
		if len(cand.Paths) == 0 {
			continue
		}
		if cap(inst.evalExtra) < len(cand.Paths) {
			inst.evalExtra = make([]float64, len(cand.Paths))
		}
		extra := inst.evalExtra[:len(cand.Paths)]
		for p := range extra {
			extra[p] = 0
		}
		for k, m := range inst.interactions[i] {
			lx := inst.pairLoss(i, k, j, choice[m])
			for p := range extra {
				extra[p] += lx[p]
			}
		}
		for p, path := range cand.Paths {
			loss := path.FixedLossDB + extra[p]
			if !inst.Lib.Detectable(loss) {
				sel.Violations++
				if v := loss - inst.Lib.MaxLossDB; v > sel.MaxViolationDB {
					sel.MaxViolationDB = v
				}
			}
		}
	}
	return sel, nil
}

// Repair demotes nets with violating optical paths to their electrical
// fallback until the selection is legal. It mirrors the paper's observation
// that "the residual nets have to be completed through electrical wires".
func (inst *Instance) Repair(sel Selection) (Selection, error) {
	cur := sel
	for cur.Violations > 0 {
		// Demote the net owning the worst violating path.
		worstNet, worstViol := -1, 0.0
		for i, j := range cur.Choice {
			cand := &inst.Nets[i].Cands[j]
			if len(cand.Paths) == 0 {
				continue
			}
			for p, path := range cand.Paths {
				loss := path.FixedLossDB
				for k, m := range inst.interactions[i] {
					loss += inst.pairLoss(i, k, j, cur.Choice[m])[p]
				}
				if v := loss - inst.Lib.MaxLossDB; v > worstViol {
					worstViol = v
					worstNet = i
				}
			}
		}
		if worstNet < 0 {
			break
		}
		cur.Choice[worstNet] = inst.Nets[worstNet].ElectricalIndex()
		next, err := inst.Evaluate(cur.Choice)
		if err != nil {
			return Selection{}, err
		}
		cur = next
	}
	return cur, nil
}

// GreedyIndependent picks, for every net, its cheapest candidate ignoring
// interactions, then repairs. It seeds the LR iteration and serves as a
// baseline.
func (inst *Instance) GreedyIndependent() (Selection, error) {
	choice := make([]int, len(inst.Nets))
	for i, n := range inst.Nets {
		best, bestP := 0, math.Inf(1)
		for j, c := range n.Cands {
			if c.PowerMW < bestP {
				best, bestP = j, c.PowerMW
			}
		}
		choice[i] = best
	}
	sel, err := inst.Evaluate(choice)
	if err != nil {
		return Selection{}, err
	}
	return inst.Repair(sel)
}

// AllElectrical returns the selection that routes every net electrically.
func (inst *Instance) AllElectrical() (Selection, error) {
	choice := make([]int, len(inst.Nets))
	for i, n := range inst.Nets {
		choice[i] = n.ElectricalIndex()
	}
	return inst.Evaluate(choice)
}
