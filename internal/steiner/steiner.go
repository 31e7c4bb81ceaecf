// Package steiner builds the routing topologies OPERON starts from: minimum
// spanning trees and the Batched Iterated 1-Steiner (BI1S) heuristic over
// Hanan-grid (and, in the Euclidean metric, Fermat-point) candidates, in
// both the rectilinear metric (electrical Manhattan wires, RSMT estimation
// per Streak/Eq. 6) and the Euclidean metric (optical waveguides, which
// "allow routing in any direction", paper §2.3).
//
// Per §3.2 the co-design stage wants several baseline topologies per hyper
// net. Baselines produces them: BI1S, the plain MST, and BI1S runs whose
// Steiner-point ordering subtracts a bending-cost penalty from the
// propagation gain. Every builder takes a *Workspace last; nil means a
// throwaway one.
package steiner

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"operon/internal/geom"
)

// Metric selects the distance function a tree is built under.
type Metric int

const (
	// Rectilinear is the Manhattan metric of electrical routing.
	Rectilinear Metric = iota
	// Euclidean is the any-direction metric of optical routing.
	Euclidean
)

// Dist returns the distance between two points under the metric.
func (m Metric) Dist(a, b geom.Point) float64 {
	if m == Rectilinear {
		return a.ManhattanDist(b)
	}
	return a.Dist(b)
}

// String implements fmt.Stringer.
func (m Metric) String() string {
	if m == Rectilinear {
		return "rectilinear"
	}
	return "euclidean"
}

// Node is a tree vertex: either one of the original terminals or an added
// Steiner point.
type Node struct {
	Pt geom.Point
	// Terminal is the index of the terminal this node represents, or -1
	// for a Steiner point.
	Terminal int
}

// IsSteiner reports whether the node is an added Steiner point.
func (n Node) IsSteiner() bool { return n.Terminal < 0 }

// Edge connects two node indices.
type Edge struct {
	U, V int
}

// Tree is an undirected spanning topology over a terminal set. Node 0 is
// always terminal 0 (the routing source by convention).
type Tree struct {
	Metric Metric
	Nodes  []Node
	Edges  []Edge
}

// Length returns the total edge length of the tree under its metric.
func (t Tree) Length() float64 {
	var sum float64
	for _, e := range t.Edges {
		sum += t.Metric.Dist(t.Nodes[e.U].Pt, t.Nodes[e.V].Pt)
	}
	return sum
}

// EuclideanLength returns the total edge length under the Euclidean metric
// regardless of the tree's native metric.
func (t Tree) EuclideanLength() float64 {
	var sum float64
	for _, e := range t.Edges {
		sum += t.Nodes[e.U].Pt.Dist(t.Nodes[e.V].Pt)
	}
	return sum
}

// Segments returns the tree edges as geometric segments.
func (t Tree) Segments() []geom.Segment {
	out := make([]geom.Segment, len(t.Edges))
	for i, e := range t.Edges {
		out[i] = geom.Segment{A: t.Nodes[e.U].Pt, B: t.Nodes[e.V].Pt}
	}
	return out
}

// Adjacency returns the adjacency lists of the tree.
func (t Tree) Adjacency() [][]int {
	adj := make([][]int, len(t.Nodes))
	for _, e := range t.Edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	return adj
}

// Validate checks structural soundness: spanning, connected, acyclic.
func (t Tree) Validate() error {
	n := len(t.Nodes)
	if n == 0 {
		return fmt.Errorf("steiner: empty tree")
	}
	if len(t.Edges) != n-1 {
		return fmt.Errorf("steiner: %d nodes but %d edges", n, len(t.Edges))
	}
	adj := t.Adjacency()
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	if count != n {
		return fmt.Errorf("steiner: tree is disconnected (%d of %d reachable)", count, n)
	}
	return nil
}

// MST builds the minimum spanning tree over the terminals with Prim's
// algorithm in O(n²), drawing scratch from ws (nil allocates a throwaway
// workspace). The returned tree owns its slices. It panics on an empty
// terminal set.
func MST(terminals []geom.Point, metric Metric, ws *Workspace) Tree {
	if len(terminals) == 0 {
		panic("steiner: MST over empty terminal set")
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	var t Tree
	ws.mstInto(terminals, metric, &t)
	return t
}

// wedge is a weighted edge: Prim's output and the incremental Kruskal's
// candidates.
type wedge struct {
	u, v int
	w    float64
}

// scored is a candidate Steiner point with its MST-length gain.
type scored struct {
	p    geom.Point
	gain float64
}

// Workspace owns every transient buffer of the BI1S pipeline — the
// incremental-MST structure, Prim scratch, Hanan/Fermat candidate lists,
// the per-round gain pool, and the cleanup maps — so repeated tree builds
// reuse memory instead of reallocating it. Returned trees never alias the
// workspace. Not safe for concurrent use; give each worker its own.
type Workspace struct {
	inc          incrMST
	primEdges    []wedge
	primInTree   []bool
	primBestDist []float64
	primBestFrom []int
	coordVals    []float64
	xs, ys       []float64
	terminalSet  map[geom.Point]bool
	cands        []geom.Point
	pool         []scored
	deg          []int
	remap        []int
	bendPts      []geom.Point
	bendTree     Tree
	adjN         [][]int
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// wedgeLess is the deterministic ordering of candidate edges: weight, then
// endpoint indices. It is a strict total order over distinct edges, so any
// sorting algorithm produces the same sequence.
func wedgeLess(a, b wedge) bool {
	if a.w != b.w {
		return a.w < b.w
	}
	if a.u != b.u {
		return a.u < b.u
	}
	return a.v < b.v
}

// sortWedges is an in-place, allocation-free heapsort by wedgeLess
// (sort.Slice allocates a closure and swapper on every call, which used to
// dominate the BI1S allocation profile — one sort per candidate trial).
func sortWedges(s []wedge) {
	n := len(s)
	for i := n/2 - 1; i >= 0; i-- {
		siftWedge(s, i, n)
	}
	for i := n - 1; i > 0; i-- {
		s[0], s[i] = s[i], s[0]
		siftWedge(s, 0, i)
	}
}

func siftWedge(s []wedge, lo, hi int) {
	root := lo
	for {
		c := 2*root + 1
		if c >= hi {
			return
		}
		if c+1 < hi && wedgeLess(s[c], s[c+1]) {
			c++
		}
		if !wedgeLess(s[root], s[c]) {
			return
		}
		s[root], s[c] = s[c], s[root]
		root = c
	}
}

// scoredLess orders the per-round candidate pool: gain descending, then
// point coordinates (equal-gain equal-point entries are interchangeable).
func scoredLess(a, b scored) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.p.X != b.p.X {
		return a.p.X < b.p.X
	}
	return a.p.Y < b.p.Y
}

// sortScored is an in-place, allocation-free heapsort by scoredLess.
func sortScored(s []scored) {
	n := len(s)
	for i := n/2 - 1; i >= 0; i-- {
		siftScored(s, i, n)
	}
	for i := n - 1; i > 0; i-- {
		s[0], s[i] = s[i], s[0]
		siftScored(s, 0, i)
	}
}

func siftScored(s []scored, lo, hi int) {
	root := lo
	for {
		c := 2*root + 1
		if c >= hi {
			return
		}
		if c+1 < hi && scoredLess(s[c], s[c+1]) {
			c++
		}
		if !scoredLess(s[root], s[c]) {
			return
		}
		s[root], s[c] = s[c], s[root]
		root = c
	}
}

// incrMST maintains the MST over a growing point set and scores 1-Steiner
// candidate points incrementally. It exploits the classic property
// MST(P ∪ {c}) ⊆ MST(P) ∪ {(c,p) : p ∈ P}: instead of re-running Prim over
// all |P|² pairs for every candidate (the old mstLength path), each trial
// is a Kruskal over just 2|P|−1 edges — the current tree plus the
// candidate's star — dropping a BI1S round from O(k·n²) to O(k·n log n)
// distance evaluations for k candidates.
type incrMST struct {
	metric Metric
	pts    []geom.Point
	tree   []wedge // current MST edges with weights
	base   float64 // current MST length

	// Scratch buffers reused across trials to keep allocations flat.
	cand   []wedge
	sel    []wedge
	parent []int
}

// init (re)seeds the structure with the Prim MST over pts; base sums the
// edge weights in insertion order. All incrMST buffers are reused across
// calls.
func (m *incrMST) init(pts []geom.Point, metric Metric, ws *Workspace) {
	m.metric = metric
	m.pts = append(m.pts[:0], pts...)
	m.tree = ws.prim(m.tree[:0], pts, metric)
	m.base = 0
	for _, e := range m.tree {
		m.base += e.w
	}
}

// primScratch returns zeroed Prim working arrays of length n from the
// workspace, growing them as needed.
func (ws *Workspace) primScratch(n int) (inTree []bool, bestDist []float64, bestFrom []int) {
	if cap(ws.primInTree) < n {
		ws.primInTree = make([]bool, n)
		ws.primBestDist = make([]float64, n)
		ws.primBestFrom = make([]int, n)
	}
	inTree = ws.primInTree[:n]
	bestDist = ws.primBestDist[:n]
	bestFrom = ws.primBestFrom[:n]
	for i := 0; i < n; i++ {
		inTree[i] = false
		bestDist[i] = 0
		bestFrom[i] = 0
	}
	return inTree, bestDist, bestFrom
}

// prim appends to dst the minimum spanning tree over pts built by Prim's
// algorithm from node 0: one (from, to, weight) edge per added node, in
// insertion order, ties going to the lowest index. It is the package's one
// MST loop; its working arrays come from the workspace.
func (ws *Workspace) prim(dst []wedge, pts []geom.Point, metric Metric) []wedge {
	n := len(pts)
	if n <= 1 {
		return dst
	}
	dst = slices.Grow(dst, n-1)
	inTree, bestDist, bestFrom := ws.primScratch(n)
	inTree[0] = true
	for i := 1; i < n; i++ {
		bestDist[i] = metric.Dist(pts[0], pts[i])
	}
	for added := 1; added < n; added++ {
		u, best := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !inTree[i] && bestDist[i] < best {
				u, best = i, bestDist[i]
			}
		}
		inTree[u] = true
		dst = append(dst, wedge{u: bestFrom[u], v: u, w: best})
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := metric.Dist(pts[u], pts[i]); d < bestDist[i] {
					bestDist[i] = d
					bestFrom[i] = u
				}
			}
		}
	}
	return dst
}

// mstInto rebuilds t as the MST over pts, every node a terminal, reusing
// t's node and edge capacity.
func (ws *Workspace) mstInto(pts []geom.Point, metric Metric, t *Tree) {
	n := len(pts)
	t.Metric = metric
	if cap(t.Nodes) < n {
		t.Nodes = make([]Node, n)
	}
	t.Nodes = t.Nodes[:n]
	for i, p := range pts {
		t.Nodes[i] = Node{Pt: p, Terminal: i}
	}
	ws.primEdges = ws.prim(ws.primEdges[:0], pts, metric)
	if cap(t.Edges) < len(ws.primEdges) {
		t.Edges = make([]Edge, len(ws.primEdges))
	}
	t.Edges = t.Edges[:len(ws.primEdges)]
	for i, e := range ws.primEdges {
		t.Edges[i] = Edge{U: e.u, V: e.v}
	}
}

// bends returns the number of direction changes summed over the tree's
// internal nodes, the "bending cost" used to rank Steiner candidates: for
// each node with degree >= 2 it counts the pairs of incident edges whose
// directions differ. The adjacency lists are drawn from the workspace.
func (ws *Workspace) bends(t Tree) int {
	n := len(t.Nodes)
	for len(ws.adjN) < n {
		ws.adjN = append(ws.adjN, nil)
	}
	adj := ws.adjN[:n]
	for i := range adj {
		adj[i] = adj[i][:0]
	}
	for _, e := range t.Edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	bends := 0
	for u, neigh := range adj {
		if len(neigh) < 2 {
			continue
		}
		for i := 0; i < len(neigh); i++ {
			for j := i + 1; j < len(neigh); j++ {
				a := t.Nodes[neigh[i]].Pt.Sub(t.Nodes[u].Pt)
				b := t.Nodes[neigh[j]].Pt.Sub(t.Nodes[u].Pt)
				// Straight-through means the two incident directions are
				// opposite: cross ≈ 0 and dot < 0.
				crossz := a.X*b.Y - a.Y*b.X
				dot := a.X*b.X + a.Y*b.Y
				if math.Abs(crossz) > geom.Eps || dot > 0 {
					bends++
				}
			}
		}
	}
	return bends
}

// find is path-halving union-find lookup over m.parent.
func (m *incrMST) find(x int) int {
	for m.parent[x] != x {
		m.parent[x] = m.parent[m.parent[x]]
		x = m.parent[x]
	}
	return x
}

// kruskalWith computes the MST length of pts ∪ {c} from the current tree
// plus c's star. When keep is set the selected edges are retained in m.sel
// for a subsequent commit.
func (m *incrMST) kruskalWith(c geom.Point, keep bool) float64 {
	n := len(m.pts)
	m.cand = append(m.cand[:0], m.tree...)
	for i := 0; i < n; i++ {
		m.cand = append(m.cand, wedge{u: i, v: n, w: m.metric.Dist(m.pts[i], c)})
	}
	// Deterministic order: ties broken by endpoint indices (the MST total
	// is unique either way; this fixes the edge set too).
	sortWedges(m.cand)
	if cap(m.parent) < n+1 {
		m.parent = make([]int, n+1)
	}
	m.parent = m.parent[:n+1]
	for i := range m.parent {
		m.parent[i] = i
	}
	if keep {
		m.sel = m.sel[:0]
	}
	var total float64
	taken := 0
	for _, e := range m.cand {
		ru, rv := m.find(e.u), m.find(e.v)
		if ru == rv {
			continue
		}
		m.parent[ru] = rv
		total += e.w
		if keep {
			m.sel = append(m.sel, e)
		}
		taken++
		if taken == n { // spanning n+1 nodes
			break
		}
	}
	return total
}

// lengthWith returns the MST length of pts ∪ {c} without mutating state.
func (m *incrMST) lengthWith(c geom.Point) float64 { return m.kruskalWith(c, false) }

// accept commits candidate c: the point joins the set and the tree/base
// are updated to the MST computed by the trial.
func (m *incrMST) accept(c geom.Point) {
	m.base = m.kruskalWith(c, true)
	m.pts = append(m.pts, c)
	m.tree = append(m.tree[:0], m.sel...)
}

// hananGrid returns the Hanan-grid points of the terminal set (all
// intersections of horizontal and vertical lines through terminals),
// excluding the terminals themselves. The result lives in the workspace's
// candidate buffer and is valid until the next hananGrid call.
func (ws *Workspace) hananGrid(terminals []geom.Point) []geom.Point {
	ws.xs = uniqueCoordsInto(ws.xs[:0], &ws.coordVals, terminals, false)
	ws.ys = uniqueCoordsInto(ws.ys[:0], &ws.coordVals, terminals, true)
	if ws.terminalSet == nil {
		ws.terminalSet = make(map[geom.Point]bool, len(terminals))
	} else {
		clear(ws.terminalSet)
	}
	for _, t := range terminals {
		ws.terminalSet[t] = true
	}
	out := ws.cands[:0]
	for _, x := range ws.xs {
		for _, y := range ws.ys {
			p := geom.Point{X: x, Y: y}
			if !ws.terminalSet[p] {
				out = append(out, p)
			}
		}
	}
	ws.cands = out
	return out
}

// uniqueCoordsInto appends the deduplicated sorted X (or Y when useY) values
// of pts to dst, staging them in *vals.
func uniqueCoordsInto(dst []float64, vals *[]float64, pts []geom.Point, useY bool) []float64 {
	v := (*vals)[:0]
	for _, p := range pts {
		if useY {
			v = append(v, p.Y)
		} else {
			v = append(v, p.X)
		}
	}
	sort.Float64s(v)
	*vals = v
	for i, x := range v {
		if i == 0 || x > dst[len(dst)-1]+geom.Eps {
			dst = append(dst, x)
		}
	}
	return dst
}

// appendFermatPoints appends approximate Fermat (Torricelli) points of
// terminal triples to dst, the natural Steiner candidates in the Euclidean
// metric. To bound the candidate count only triples of mutually-nearest
// terminals are used.
func appendFermatPoints(dst []geom.Point, terminals []geom.Point) []geom.Point {
	n := len(terminals)
	if n < 3 {
		return dst
	}
	limit := n
	if limit > 12 {
		limit = 12
	}
	for i := 0; i < limit; i++ {
		for j := i + 1; j < limit; j++ {
			for k := j + 1; k < limit; k++ {
				dst = append(dst, fermatPoint(terminals[i], terminals[j], terminals[k]))
			}
		}
	}
	return dst
}

// fermatPoint computes the geometric median of three points via Weiszfeld
// iteration, which converges to the Fermat point for non-degenerate
// triangles.
func fermatPoint(a, b, c geom.Point) geom.Point {
	p := geom.Point{X: (a.X + b.X + c.X) / 3, Y: (a.Y + b.Y + c.Y) / 3}
	for iter := 0; iter < 50; iter++ {
		var wx, wy, wsum float64
		for _, q := range []geom.Point{a, b, c} {
			d := p.Dist(q)
			if d < geom.Eps {
				return q // median coincides with a vertex
			}
			w := 1 / d
			wx += q.X * w
			wy += q.Y * w
			wsum += w
		}
		next := geom.Point{X: wx / wsum, Y: wy / wsum}
		if next.Dist(p) < 1e-12 {
			return next
		}
		p = next
	}
	return p
}

// maxRounds bounds the batched BI1S iterations.
const maxRounds = 8

// BI1S runs Batched Iterated 1-Steiner over the terminals: in each round
// every candidate Steiner point is scored by the MST-length reduction it
// yields, the candidates are sorted by gain, and a batch of still-profitable
// candidates is accepted greedily; degree-<=2 Steiner points are cleaned up
// at the end. The result spans all terminals. A nil ws allocates a throwaway
// workspace; the returned tree owns its slices and nothing aliases ws.
func BI1S(terminals []geom.Point, metric Metric, ws *Workspace) Tree {
	return bi1s(terminals, metric, 0, ws)
}

// bi1s is BI1S with the candidates' gains penalised by bendWeight × the
// bending cost of the tree they induce, which steers baseline diversity
// (§3.2: "sorting the Steiner points with the induced propagation and
// bending cost").
func bi1s(terminals []geom.Point, metric Metric, bendWeight float64, ws *Workspace) Tree {
	if ws == nil {
		ws = NewWorkspace()
	}
	if len(terminals) <= 2 {
		return MST(terminals, metric, ws)
	}
	inc := &ws.inc
	inc.init(terminals, metric, ws)

	for round := 0; round < maxRounds; round++ {
		cands := ws.hananGrid(inc.pts)
		if metric == Euclidean {
			cands = appendFermatPoints(cands, inc.pts)
			ws.cands = cands
		}
		pool := ws.pool[:0]
		for _, c := range cands {
			g := inc.base - inc.lengthWith(c)
			if g > geom.Eps {
				pool = append(pool, scored{p: c, gain: g})
			}
		}
		ws.pool = pool
		if len(pool) == 0 {
			break
		}
		if bendWeight > 0 {
			for i := range pool {
				ws.bendPts = append(ws.bendPts[:0], inc.pts...)
				ws.bendPts = append(ws.bendPts, pool[i].p)
				ws.mstInto(ws.bendPts, metric, &ws.bendTree)
				pool[i].gain -= bendWeight * float64(ws.bends(ws.bendTree)) * 1e-3
			}
		}
		sortScored(pool)
		accepted := 0
		for _, s := range pool {
			// Re-score against the tree as accepted points accumulate.
			if inc.base-inc.lengthWith(s.p) > geom.Eps {
				inc.accept(s.p)
				accepted++
			}
		}
		if accepted == 0 {
			break
		}
	}
	return ws.cleanup(ws.treeOver(inc.pts, terminals, metric))
}

// treeOver builds the MST over pts, marking the first len(terminals) points
// as terminals and the rest as Steiner points.
func (ws *Workspace) treeOver(pts []geom.Point, terminals []geom.Point, metric Metric) Tree {
	t := MST(pts, metric, ws)
	for i := len(terminals); i < len(t.Nodes); i++ {
		t.Nodes[i].Terminal = -1
	}
	return t
}

// cleanup removes useless Steiner points: degree-1 Steiner leaves are
// dropped, and degree-2 Steiner pass-throughs are spliced out. It mutates
// t in place (t's slices are owned by the caller, fresh from treeOver) and
// preserves the exact removal and reindexing order of a naive rebuild, so
// results are unchanged; only the per-iteration allocations are gone.
func (ws *Workspace) cleanup(t Tree) Tree {
	for {
		if cap(ws.deg) < len(t.Nodes) {
			ws.deg = make([]int, len(t.Nodes))
		}
		deg := ws.deg[:len(t.Nodes)]
		for i := range deg {
			deg[i] = 0
		}
		for _, e := range t.Edges {
			deg[e.U]++
			deg[e.V]++
		}
		removed := -1
		doSplice := false
		var splice [2]int
		for i, nd := range t.Nodes {
			if !nd.IsSteiner() {
				continue
			}
			if deg[i] <= 2 {
				removed = i
				if deg[i] == 2 {
					doSplice = true
					// The splice endpoints in adjacency order: Adjacency
					// appends neighbours in edge order, so scan edges.
					k := 0
					for _, e := range t.Edges {
						if e.U == i {
							splice[k] = e.V
							k++
						} else if e.V == i {
							splice[k] = e.U
							k++
						}
						if k == 2 {
							break
						}
					}
				}
				break
			}
		}
		if removed < 0 {
			return t
		}
		k := 0
		for _, e := range t.Edges {
			if e.U != removed && e.V != removed {
				t.Edges[k] = e
				k++
			}
		}
		t.Edges = t.Edges[:k]
		if doSplice {
			t.Edges = append(t.Edges, Edge{U: splice[0], V: splice[1]})
		}
		// Reindex nodes after dropping `removed`.
		if cap(ws.remap) < len(t.Nodes) {
			ws.remap = make([]int, len(t.Nodes))
		}
		remap := ws.remap[:len(t.Nodes)]
		k = 0
		for i := range t.Nodes {
			if i == removed {
				remap[i] = -1
				continue
			}
			remap[i] = k
			t.Nodes[k] = t.Nodes[i]
			k++
		}
		t.Nodes = t.Nodes[:k]
		for i := range t.Edges {
			t.Edges[i].U = remap[t.Edges[i].U]
			t.Edges[i].V = remap[t.Edges[i].V]
		}
	}
}

// Subdivide splits every edge longer than maxSegLen into equal chunks by
// inserting degree-2 Steiner nodes. The co-design stage labels each chunk
// independently, which lets a route switch between optical and electrical
// mid-edge (partial-optical routes and optical relays). Geometry and total
// length are unchanged.
func Subdivide(t Tree, maxSegLen float64) Tree {
	if maxSegLen <= 0 {
		return t
	}
	out := Tree{Metric: t.Metric, Nodes: append([]Node(nil), t.Nodes...)}
	for _, e := range t.Edges {
		a, b := t.Nodes[e.U].Pt, t.Nodes[e.V].Pt
		n := int(math.Ceil(a.Dist(b)/maxSegLen - geom.Eps))
		if n < 1 {
			n = 1
		}
		prev := e.U
		for k := 1; k < n; k++ {
			frac := float64(k) / float64(n)
			mid := geom.Point{
				X: a.X + frac*(b.X-a.X),
				Y: a.Y + frac*(b.Y-a.Y),
			}
			out.Nodes = append(out.Nodes, Node{Pt: mid, Terminal: -1})
			idx := len(out.Nodes) - 1
			out.Edges = append(out.Edges, Edge{U: prev, V: idx})
			prev = idx
		}
		out.Edges = append(out.Edges, Edge{U: prev, V: e.V})
	}
	return out
}

// Baselines generates up to max distinct baseline topologies for the
// terminal set under the given metric: the plain MST plus BI1S variants
// under different bending-cost weights. Duplicate topologies (same length
// and node count) are removed. At least one topology is always returned.
// A nil ws allocates a throwaway workspace; the returned trees own their
// slices.
func Baselines(terminals []geom.Point, metric Metric, max int, ws *Workspace) []Tree {
	if max <= 0 {
		max = 3
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	if len(terminals) <= 2 {
		// Every topology over two or fewer terminals is the same tree:
		// BI1S, the MST, and all bend-weighted variants coincide, and the
		// dedup below would discard all but the first. Build it once.
		return []Tree{MST(terminals, metric, ws)}
	}
	var out []Tree
	add := func(t Tree) {
		for _, prev := range out {
			if len(prev.Nodes) == len(t.Nodes) && math.Abs(prev.Length()-t.Length()) < geom.Eps {
				return
			}
		}
		out = append(out, t)
	}
	add(BI1S(terminals, metric, ws))
	if len(out) < max {
		add(MST(terminals, metric, ws))
	}
	for _, w := range []float64{0.5, 2.0, 8.0} {
		if len(out) >= max {
			break
		}
		add(bi1s(terminals, metric, w, ws))
	}
	return out
}
