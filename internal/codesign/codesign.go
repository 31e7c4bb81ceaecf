// Package codesign implements OPERON's optical-electrical route co-design
// (paper §3.2): given a baseline Steiner topology for a hyper net, it labels
// every tree edge as Optical or Electrical, producing a set of Pareto-optimal
// candidate solutions over (power, worst optical path loss).
//
// The algorithm is the bottom-up dynamic programme the paper derives from
// classic buffer insertion: each node keeps a pruned list of sub-solutions;
// an optical edge extends an open optical domain downward, an electrical
// edge seals domains with an EO modulator at their top; detectors (OE) are
// placed at every optical exit. Splitting loss 10·log10(arms) is charged at
// every node whose light fans out, per the paper's Eq. (2).
//
// Pruning is one rule for every list the DP keeps: the lists hold one state
// type, sorted by one total order (power first), and a state is dropped when
// an earlier kept one dominates it in power, worst open loss, arm count and
// worst sealed loss. Equal-power ties are broken by the order, never by the
// sort algorithm, so the kept list depends only on the states offered. The
// decoded candidates are then cut to their ParetoFront over (power, worst
// fixed path loss); loss stays a coordinate next to power because the
// selection stage must still fit every path under the detection budget.
//
// A labeling alone decodes unambiguously into conversion sites because the
// DP never creates back-to-back OE→EO regeneration at a single node; see
// Evaluate for the decode rules.
//
// The DP churns through many short-lived label vectors and state lists; a
// Workspace owns all of that scratch so repeated Generate/Evaluate calls
// (one per hyper net per flow) approach zero amortized allocation. All
// entry points accept a nil Workspace and fall back to a throwaway one.
package codesign

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"operon/internal/geom"
	"operon/internal/optics"
	"operon/internal/power"
	"operon/internal/steiner"
)

// Label classifies a tree edge's implementation.
type Label uint8

const (
	// Electrical routes the edge as a Manhattan copper wire.
	Electrical Label = iota
	// Optical routes the edge as a waveguide segment.
	Optical
)

// String implements fmt.Stringer.
func (l Label) String() string {
	if l == Optical {
		return "O"
	}
	return "E"
}

// Input bundles everything candidate generation needs for one hyper net.
type Input struct {
	// Tree is a baseline topology (typically Euclidean BI1S). Terminal 0 is
	// the source hyper pin; all other terminals are sinks.
	Tree steiner.Tree
	// Bits is the number of parallel channels the hyper net carries; wire
	// power and conversion power scale with it.
	Bits int
	// Lib provides the optical loss and device parameters.
	Lib optics.Library
	// Elec provides the electrical wire power model.
	Elec power.ElectricalModel
	// Env holds optical segments of *other* hyper nets' baselines, used to
	// estimate crossing loss during the DP (the exact pairwise term is
	// re-evaluated in the selection stage).
	Env []geom.Segment
	// MaxOptions caps the per-node option list after Pareto pruning.
	// Defaults to 24 when zero.
	MaxOptions int
}

// Path is one source-to-exit optical detection path of a candidate.
type Path struct {
	// Segs are the waveguide segments the light traverses, in order.
	Segs []geom.Segment
	// FixedLossDB is the propagation plus splitting loss of the path.
	FixedLossDB float64
	// EstCrossLossDB is β times the estimated crossings against Env.
	EstCrossLossDB float64
}

// TotalEstLossDB returns the estimated total loss of the path.
func (p Path) TotalEstLossDB() float64 { return p.FixedLossDB + p.EstCrossLossDB }

// Candidate is one optical-electrical co-design solution a_ij (or the pure
// electrical alternative a_ie).
type Candidate struct {
	// Labels holds the per-edge implementation, indexed like Tree.Edges.
	Labels []Label
	// PowerMW is the candidate's total power: electrical wires plus EO/OE
	// conversions, scaled by the bit count.
	PowerMW float64
	// ElecWirelenCM is the total Manhattan length of electrical edges.
	ElecWirelenCM float64
	// NumMod and NumDet count modulator and detector sites (per channel).
	NumMod, NumDet int
	// Paths are the optical detection paths; each must satisfy the loss
	// budget once exact crossing loss is added.
	Paths []Path
	// OpticalSegs are all waveguide segments of the candidate.
	OpticalSegs []geom.Segment
	// ElecSegs are the electrical edges (as drawn in the baseline topology;
	// implemented as Manhattan wires of equivalent length).
	ElecSegs []geom.Segment
	// ModSites and DetSites locate the EO modulators and OE detectors,
	// used by the power-hotspot analysis (Fig. 9).
	ModSites, DetSites []geom.Point
	// AllElectrical marks the fallback candidate a_ie.
	AllElectrical bool
	// MaxFixedLossDB is the worst FixedLossDB over Paths (0 if none).
	MaxFixedLossDB float64
}

// rooted is the tree re-indexed as a rooted structure at terminal 0.
type rooted struct {
	tree     steiner.Tree
	parent   []int   // parent node index, -1 at root
	parentE  []int   // edge index to parent, -1 at root
	children [][]int // child node indices
	childE   [][]int // edge indices to children
	order    []int   // post-order traversal
	root     int
}

// adjEntry is one (neighbour, edge) pair of the undirected adjacency used
// while rooting the tree.
type adjEntry struct{ node, edge int }

// state is one DP sub-solution at a node, in one of three roles:
//   - a partial: the in-progress merge of the node's child arms. loss is the
//     worst open optical arm (-Inf with no arm yet), arms counts the optical
//     arms, and flag records an electrical child edge;
//   - a SELF option: no light requested from the parent, all optical
//     structure below is sealed. loss and arms are 0, and flag records a
//     modulator at this node;
//   - a RECV option: the node expects light from an optical parent edge, and
//     loss is the worst loss of the open cone below. arms is 0 and flag is
//     false.
//
// sealedWorst is the worst loss of every domain already sealed below. One
// type lets every list share one order (cmpState), one dominance rule and
// one prune.
type state struct {
	labels      []Label
	pow         float64
	loss        float64
	sealedWorst float64
	arms        int
	flag        bool
}

// frame is one node of the domain-decode walk in evaluateRooted. The
// waveguide path back to the domain top is reconstructed from the rooted
// parent chain at exit nodes, so frames carry only scalars.
type frame struct {
	node    int
	lossDB  float64
	crossDB float64
}

// Workspace owns every transient buffer Generate and Evaluate need: the
// rooted-tree index, the DP state lists, the label arena, the Env boxes and
// per-edge crossing losses of the current call, and the decode-walk scratch.
// Reusing one Workspace across calls makes steady-state candidate generation
// nearly allocation-free. A Workspace is not safe for concurrent use; give
// each pool worker its own (see parallel.ForEachWorker).
type Workspace struct {
	r       rooted
	adj     [][]adjEntry
	stack   []int
	visited []bool
	pre     []int

	labels      labelArena
	envBoxes    []geom.Rect
	edgeCrossDB []float64
	edgeLossDB  []float64
	edgeElecP   []float64
	selfOpts    [][]state
	recvOpts    [][]state
	partials    []state
	next        []state
	selfs       []state
	recvs       []state

	frames []frame
	chain  []int
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// labelArena is a bump allocator for the DP's short-lived label vectors.
// All outstanding slices are invalidated by reset; slices that must outlive
// a Generate call (Candidate.Labels) are copied out.
type labelArena struct {
	blocks [][]Label
	cur    int
	off    int
}

// reset rewinds the arena, keeping its blocks for reuse.
func (a *labelArena) reset() { a.cur, a.off = 0, 0 }

// alloc returns an uninitialised label slice of length n from the arena.
func (a *labelArena) alloc(n int) []Label {
	if n == 0 {
		return nil
	}
	for {
		if a.cur < len(a.blocks) {
			b := a.blocks[a.cur]
			if len(b)-a.off >= n {
				s := b[a.off : a.off+n : a.off+n]
				a.off += n
				return s
			}
			a.cur++
			a.off = 0
			continue
		}
		size := 4096
		if n > size {
			size = n
		}
		a.blocks = append(a.blocks, make([]Label, size))
	}
}

// allocZero is alloc with every element set to Electrical.
func (a *labelArena) allocZero(n int) []Label {
	s := a.alloc(n)
	for i := range s {
		s[i] = Electrical
	}
	return s
}

// merge returns the element-wise Optical-union of x and y in a fresh arena
// slice of length n.
func (a *labelArena) merge(x, y []Label, n int) []Label {
	out := a.alloc(n)
	for i := range out {
		if x[i] == Optical || y[i] == Optical {
			out[i] = Optical
		} else {
			out[i] = Electrical
		}
	}
	return out
}

// growInts returns s resized to length n, reusing capacity when possible.
// Contents are unspecified.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growFloats is growInts for float64 slices.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// fillEdgeCross sets ws.edgeCrossDB[ei] to tree edge ei's estimated crossing
// loss against in.Env. The Env bounding boxes are computed once per call
// into ws.envBoxes, not once per edge.
func (ws *Workspace) fillEdgeCross(in Input, r *rooted) {
	ws.envBoxes = ws.envBoxes[:0]
	for _, s := range in.Env {
		ws.envBoxes = append(ws.envBoxes, s.BBox())
	}
	ws.edgeCrossDB = growFloats(ws.edgeCrossDB, len(in.Tree.Edges))
	for ei := range in.Tree.Edges {
		seg := r.edgeSeg(ei)
		n := geom.CountCrossingsBoxed([]geom.Segment{seg}, []geom.Rect{seg.BBox()}, in.Env, ws.envBoxes)
		ws.edgeCrossDB[ei] = in.Lib.CrossingLossDB(n)
	}
}

// buildRooted roots the tree at terminal 0 into the workspace's reusable
// rooted index, validating shape and connectivity inline (the DFS visits
// every node exactly when the edge set forms one tree).
func (ws *Workspace) buildRooted(t steiner.Tree) (*rooted, error) {
	n := len(t.Nodes)
	if n == 0 {
		return nil, fmt.Errorf("codesign: empty tree")
	}
	if len(t.Edges) != n-1 {
		return nil, fmt.Errorf("codesign: %d nodes but %d edges", n, len(t.Edges))
	}
	root := -1
	for i, nd := range t.Nodes {
		if nd.Terminal == 0 {
			root = i
			break
		}
	}
	if root < 0 {
		return nil, fmt.Errorf("codesign: tree has no terminal 0 (source)")
	}
	r := &ws.r
	r.tree = t
	r.root = root
	r.parent = growInts(r.parent, n)
	r.parentE = growInts(r.parentE, n)
	r.order = growInts(r.order, n)
	for len(r.children) < n {
		r.children = append(r.children, nil)
	}
	for len(r.childE) < n {
		r.childE = append(r.childE, nil)
	}
	for len(ws.adj) < n {
		ws.adj = append(ws.adj, nil)
	}
	for i := 0; i < n; i++ {
		r.parent[i] = -1
		r.parentE[i] = -1
		r.children[i] = r.children[i][:0]
		r.childE[i] = r.childE[i][:0]
		ws.adj[i] = ws.adj[i][:0]
	}
	for ei, e := range t.Edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("codesign: edge %d endpoints out of range", ei)
		}
		ws.adj[e.U] = append(ws.adj[e.U], adjEntry{e.V, ei})
		ws.adj[e.V] = append(ws.adj[e.V], adjEntry{e.U, ei})
	}
	if cap(ws.visited) < n {
		ws.visited = make([]bool, n)
	}
	visited := ws.visited[:n]
	for i := range visited {
		visited[i] = false
	}
	// Iterative DFS producing children lists and a post-order.
	stack := ws.stack[:0]
	stack = append(stack, root)
	visited[root] = true
	pre := ws.pre[:0]
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pre = append(pre, u)
		for _, a := range ws.adj[u] {
			if !visited[a.node] {
				visited[a.node] = true
				r.parent[a.node] = u
				r.parentE[a.node] = a.edge
				r.children[u] = append(r.children[u], a.node)
				r.childE[u] = append(r.childE[u], a.edge)
				stack = append(stack, a.node)
			}
		}
	}
	ws.stack, ws.pre = stack, pre
	if len(pre) != n {
		return nil, fmt.Errorf("codesign: tree is disconnected (%d of %d reachable)", len(pre), n)
	}
	// Reverse preorder of a tree is a valid post-order (children before
	// parents).
	for i, u := range pre {
		r.order[len(pre)-1-i] = u
	}
	return r, nil
}

// isSink reports whether node u is a sink terminal.
func (r *rooted) isSink(u int) bool {
	term := r.tree.Nodes[u].Terminal
	return term > 0
}

func (r *rooted) edgeSeg(ei int) geom.Segment {
	e := r.tree.Edges[ei]
	return geom.Segment{A: r.tree.Nodes[e.U].Pt, B: r.tree.Nodes[e.V].Pt}
}

// cmpState is the total order prune sorts by: power, then loss, arms,
// sealedWorst and flag, then the labels. A state that dominates another
// componentwise sorts no later than it, and distinct states never compare
// equal, so the states prune keeps depend only on the set it is given,
// never on the order the list arrives in.
func cmpState(a, b state) int {
	if c := cmp.Compare(a.pow, b.pow); c != 0 {
		return c
	}
	if c := cmp.Compare(a.loss, b.loss); c != 0 {
		return c
	}
	if c := cmp.Compare(a.arms, b.arms); c != 0 {
		return c
	}
	if c := cmp.Compare(a.sealedWorst, b.sealedWorst); c != 0 {
		return c
	}
	if a.flag != b.flag {
		if a.flag {
			return 1
		}
		return -1
	}
	return slices.Compare(a.labels, b.labels)
}

// dominates reports whether a is at least as good as b in every pruning
// coordinate (within geom.Eps) and plays the same role: partials must agree
// on an electrical child, SELF options on a modulator at the node.
func dominates(a, b *state) bool {
	return a.pow <= b.pow+geom.Eps &&
		a.loss <= b.loss+geom.Eps &&
		a.arms <= b.arms &&
		a.sealedWorst <= b.sealedWorst+geom.Eps &&
		a.flag == b.flag
}

// prune sorts ss by cmpState and compacts it in place to the states that no
// earlier kept state dominates, at most maxKeep of them.
func prune(ss []state, maxKeep int) []state {
	slices.SortFunc(ss, cmpState)
	k := 0
next:
	for i := range ss {
		for j := range k {
			if dominates(&ss[j], &ss[i]) {
				continue next
			}
		}
		ss[k] = ss[i]
		k++
		if k >= maxKeep {
			break
		}
	}
	return ss[:k]
}

// Generate runs the co-design DP and returns the pruned candidate set,
// always including the pure-electrical fallback (last, marked
// AllElectrical). Candidates whose estimated worst path loss exceeds the
// budget are discarded during the DP. A nil ws allocates a throwaway
// workspace. The returned candidates own all their slices — nothing aliases
// ws — so the same workspace can serve the next net immediately.
func Generate(in Input, ws *Workspace) ([]Candidate, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	if in.Bits <= 0 {
		return nil, fmt.Errorf("codesign: bits %d must be positive", in.Bits)
	}
	if err := in.Lib.Validate(); err != nil {
		return nil, err
	}
	if err := in.Elec.Validate(); err != nil {
		return nil, err
	}
	r, err := ws.buildRooted(in.Tree)
	if err != nil {
		return nil, err
	}
	maxOpts := in.MaxOptions
	if maxOpts == 0 {
		maxOpts = 24
	}

	nNodes := len(in.Tree.Nodes)
	nEdges := len(in.Tree.Edges)
	bits := float64(in.Bits)
	modP := in.Lib.ConversionPowerMW(1, 0) * bits
	detP := in.Lib.ConversionPowerMW(0, 1) * bits

	ws.fillEdgeCross(in, r)
	ws.edgeLossDB = growFloats(ws.edgeLossDB, nEdges)
	ws.edgeElecP = growFloats(ws.edgeElecP, nEdges)
	edgeLossDB, edgeElecP := ws.edgeLossDB, ws.edgeElecP
	for ei := range in.Tree.Edges {
		seg := r.edgeSeg(ei)
		edgeLossDB[ei] = in.Lib.PropagationLossDB(seg.Length()) + ws.edgeCrossDB[ei]
		edgeElecP[ei] = in.Elec.BusPowerMW(seg.ManhattanLength(), in.Bits)
	}

	for len(ws.selfOpts) < nNodes {
		ws.selfOpts = append(ws.selfOpts, nil)
	}
	for len(ws.recvOpts) < nNodes {
		ws.recvOpts = append(ws.recvOpts, nil)
	}
	selfOpts, recvOpts := ws.selfOpts, ws.recvOpts

	la := &ws.labels
	la.reset()

	for _, v := range r.order {
		partials := ws.partials[:0]
		partials = append(partials, state{labels: la.allocZero(nEdges), loss: math.Inf(-1)})
		next := ws.next
		for ci, c := range r.children[v] {
			ei := r.childE[v][ci]
			next = next[:0]
			for _, p := range partials {
				// Label the edge Electrical: consume the child's SELF options.
				for _, co := range selfOpts[c] {
					lb := la.merge(p.labels, co.labels, nEdges)
					lb[ei] = Electrical
					next = append(next, state{
						labels:      lb,
						pow:         p.pow + co.pow + edgeElecP[ei],
						loss:        p.loss,
						sealedWorst: math.Max(p.sealedWorst, co.sealedWorst),
						arms:        p.arms,
						flag:        true,
					})
				}
				// Label the edge Optical.
				for _, co := range recvOpts[c] {
					lb := la.merge(p.labels, co.labels, nEdges)
					lb[ei] = Optical
					next = append(next, state{
						labels:      lb,
						pow:         p.pow + co.pow,
						loss:        math.Max(p.loss, edgeLossDB[ei]+co.loss),
						sealedWorst: math.Max(p.sealedWorst, co.sealedWorst),
						arms:        p.arms + 1,
						flag:        p.flag,
					})
				}
				// Optical edge ending at a sealed child: a pure exit with a
				// detector at the child. Forbidden when the child hosts its
				// own modulator (no OEO regeneration at a single node).
				for _, co := range selfOpts[c] {
					if co.flag {
						continue
					}
					lb := la.merge(p.labels, co.labels, nEdges)
					lb[ei] = Optical
					next = append(next, state{
						labels:      lb,
						pow:         p.pow + co.pow + detP,
						loss:        math.Max(p.loss, edgeLossDB[ei]),
						sealedWorst: math.Max(p.sealedWorst, co.sealedWorst),
						arms:        p.arms + 1,
						flag:        p.flag,
					})
				}
			}
			partials, next = prune(next, maxOpts*4), partials
		}

		// Finalize the node's options.
		selfs, recvs := ws.selfs[:0], ws.recvs[:0]
		for _, p := range partials {
			if p.arms == 0 {
				selfs = append(selfs, state{
					labels: p.labels, pow: p.pow, sealedWorst: p.sealedWorst,
				})
			} else {
				loss := p.loss + optics.SplittingLossDB(p.arms)
				if in.Lib.Detectable(loss) {
					selfs = append(selfs, state{
						labels:      p.labels,
						pow:         p.pow + modP,
						sealedWorst: math.Max(p.sealedWorst, loss),
						flag:        true,
					})
				}
			}
			if v != r.root {
				selfExit := r.isSink(v) || p.flag || len(r.children[v]) == 0
				armsTotal := p.arms
				pow := p.pow
				if selfExit {
					armsTotal++
					pow += detP
				}
				if armsTotal == 0 {
					continue // light delivered to a node that uses none of it
				}
				split := optics.SplittingLossDB(armsTotal)
				worst := split
				if p.arms > 0 {
					worst = split + math.Max(p.loss, 0)
					if !selfExit {
						worst = split + p.loss
					}
				}
				if worst <= in.Lib.MaxLossDB { // quick bound; exact check at seal
					recvs = append(recvs, state{
						labels: p.labels, pow: pow, loss: worst,
						sealedWorst: p.sealedWorst,
					})
				}
			}
		}
		ws.selfs, ws.recvs = selfs, recvs
		// Copy the pruned option lists into the per-node buffers so the
		// shared selfs/recvs scratch can be reused at the next node.
		selfOpts[v] = append(selfOpts[v][:0], prune(selfs, maxOpts)...)
		recvOpts[v] = append(recvOpts[v][:0], prune(recvs, maxOpts)...)
		ws.partials, ws.next = partials, next
	}

	// Root SELF options are the candidate labelings.
	var out []Candidate
	sawAllE := false
	for _, o := range selfOpts[r.root] {
		cand, feasible := evaluateRooted(in, r, o.labels, ws)
		if !feasible {
			continue
		}
		if cand.AllElectrical {
			if sawAllE {
				continue
			}
			sawAllE = true
		}
		out = append(out, cand)
	}
	if !sawAllE {
		allE, _ := evaluateRooted(in, r, la.allocZero(nEdges), ws)
		out = append(out, allE)
	}
	// The front is in ascending power; move the pure-electrical fallback
	// last.
	out = ParetoFront(out)
	if i := slices.IndexFunc(out, func(c Candidate) bool { return c.AllElectrical }); i >= 0 {
		allE := out[i]
		copy(out[i:], out[i+1:])
		out[len(out)-1] = allE
	}
	return out, nil
}

// Evaluate decodes a labeling into a full Candidate. The decode rules are:
// a node with at least one Optical child edge hosts a modulator iff it is
// the root or its parent edge is Electrical; along optical domains a node
// takes a detector drop iff it is a sink terminal, has an Electrical child
// edge, or is a leaf; fan-out at a node splits the light over its optical
// child arms plus its own drop. The boolean result reports whether every
// optical path satisfies the loss budget under the Env-estimated crossing
// loss. A nil ws allocates a throwaway workspace. The returned Candidate owns
// its slices; nothing aliases ws.
func Evaluate(in Input, labels []Label, ws *Workspace) (Candidate, bool) {
	if ws == nil {
		ws = NewWorkspace()
	}
	r, err := ws.buildRooted(in.Tree)
	if err != nil {
		return Candidate{}, false
	}
	ws.fillEdgeCross(in, r)
	return evaluateRooted(in, r, labels, ws)
}

// evaluateRooted is the decode core behind Evaluate; r must be ws.buildRooted
// of in.Tree and ws.edgeCrossDB its fillEdgeCross, which lets Generate decode
// every root option without re-rooting the tree or recounting crossings.
func evaluateRooted(in Input, r *rooted, labels []Label, ws *Workspace) (Candidate, bool) {
	if len(labels) != len(in.Tree.Edges) {
		return Candidate{}, false
	}
	bits := in.Bits
	c := Candidate{Labels: append([]Label(nil), labels...)}

	// Electrical power and optical segment collection, with exact-size
	// allocations (these slices escape into the candidate).
	nOpt := 0
	for _, l := range labels {
		if l == Optical {
			nOpt++
		}
	}
	if nOpt > 0 {
		c.OpticalSegs = make([]geom.Segment, 0, nOpt)
	}
	if nElec := len(labels) - nOpt; nElec > 0 {
		c.ElecSegs = make([]geom.Segment, 0, nElec)
	}
	for ei, e := range in.Tree.Edges {
		seg := geom.Segment{A: in.Tree.Nodes[e.U].Pt, B: in.Tree.Nodes[e.V].Pt}
		if labels[ei] == Electrical {
			c.ElecWirelenCM += seg.ManhattanLength()
			c.ElecSegs = append(c.ElecSegs, seg)
		} else {
			c.OpticalSegs = append(c.OpticalSegs, seg)
		}
	}
	c.PowerMW = in.Elec.BusPowerMW(c.ElecWirelenCM, bits)
	c.AllElectrical = len(c.OpticalSegs) == 0

	modP := in.Lib.ConversionPowerMW(1, 0) * float64(bits)
	detP := in.Lib.ConversionPowerMW(0, 1) * float64(bits)

	// Decode optical domains.
	feasible := true
	for v := range in.Tree.Nodes {
		if !isDomainTop(r, labels, v) {
			continue
		}
		c.NumMod++
		c.PowerMW += modP
		c.ModSites = append(c.ModSites, in.Tree.Nodes[v].Pt)
		// Walk the domain from its top, accumulating loss along each path.
		stack := ws.frames[:0]
		stack = append(stack, frame{node: v})
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			u := f.node
			nOptCh := 0
			hasEChild := false
			for ci := range r.children[u] {
				if labels[r.childE[u][ci]] == Optical {
					nOptCh++
				} else {
					hasEChild = true
				}
			}
			selfExit := u != v && (r.isSink(u) || hasEChild || len(r.children[u]) == 0)
			arms := nOptCh
			if selfExit {
				arms++
			}
			split := optics.SplittingLossDB(arms)
			if selfExit {
				c.NumDet++
				c.PowerMW += detP
				c.DetSites = append(c.DetSites, in.Tree.Nodes[u].Pt)
				p := Path{
					Segs:           pathSegs(r, v, u, ws),
					FixedLossDB:    f.lossDB + split,
					EstCrossLossDB: f.crossDB,
				}
				c.Paths = append(c.Paths, p)
				if !in.Lib.Detectable(p.TotalEstLossDB()) {
					feasible = false
				}
			}
			for ci, ch := range r.children[u] {
				ei := r.childE[u][ci]
				if labels[ei] != Optical {
					continue
				}
				stack = append(stack, frame{
					node:    ch,
					lossDB:  f.lossDB + split + in.Lib.PropagationLossDB(r.edgeSeg(ei).Length()),
					crossDB: f.crossDB + ws.edgeCrossDB[ei],
				})
			}
		}
		ws.frames = stack
	}
	for _, p := range c.Paths {
		if p.FixedLossDB > c.MaxFixedLossDB {
			c.MaxFixedLossDB = p.FixedLossDB
		}
	}
	return c, feasible
}

// pathSegs reconstructs the waveguide path from domain top to exit node u
// by walking the rooted parent chain — every edge on it is optical by
// construction of the domain walk. The result is a fresh exact-size slice
// (it escapes into the candidate); only the chain index buffer is reused.
func pathSegs(r *rooted, top, u int, ws *Workspace) []geom.Segment {
	chain := ws.chain[:0]
	for x := u; x != top; x = r.parent[x] {
		chain = append(chain, r.parentE[x])
	}
	ws.chain = chain
	segs := make([]geom.Segment, len(chain))
	for i := range segs {
		segs[i] = r.edgeSeg(chain[len(chain)-1-i])
	}
	return segs
}

// ParetoFront compacts cands in place to its Pareto front over (PowerMW,
// MaxFixedLossDB) and returns it in ascending power: after a stable sort by
// power, then loss, a candidate is kept when it lowers the best loss kept
// so far by more than geom.Eps. A candidate another one matches or beats in
// both coordinates is dropped, and of exact duplicates the first listed is
// kept.
func ParetoFront(cands []Candidate) []Candidate {
	slices.SortStableFunc(cands, func(a, b Candidate) int {
		if c := cmp.Compare(a.PowerMW, b.PowerMW); c != 0 {
			return c
		}
		return cmp.Compare(a.MaxFixedLossDB, b.MaxFixedLossDB)
	})
	front := cands[:0]
	best := math.Inf(1)
	for _, c := range cands {
		if c.MaxFixedLossDB < best-geom.Eps {
			front = append(front, c)
			best = c.MaxFixedLossDB
		}
	}
	return front
}

// isDomainTop reports whether node v hosts a modulator under the labeling:
// it has at least one Optical child edge and no Optical parent edge.
func isDomainTop(r *rooted, labels []Label, v int) bool {
	hasOptChild := false
	for ci := range r.children[v] {
		if labels[r.childE[v][ci]] == Optical {
			hasOptChild = true
			break
		}
	}
	if !hasOptChild {
		return false
	}
	return v == r.root || labels[r.parentE[v]] == Electrical
}
