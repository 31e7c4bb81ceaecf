// Package mcmf implements integral min-cost max-flow with the successive
// shortest paths algorithm and Johnson potentials. It replaces the LEMON
// network-flow library the paper used for the WDM assignment stage (§4.2):
// capacities are integers (signal bits), costs are integers (quantised
// displacement plus WDM usage costs, kept integral so the shortest-path
// arithmetic is exact), and the returned flow is integral — the
// uni-modularity property §4.2 relies on.
package mcmf

import (
	"context"
	"fmt"
	"math"

	"operon/internal/obs"
)

// edge is one directed arc plus its residual twin at index^1.
type edge struct {
	to   int32
	cap  int
	cost int64
}

// Graph is a flow network. Nodes are 0..N-1.
//
// Adjacency is kept in compressed (CSR) form, rebuilt lazily when edges
// were added since the last MaxFlow call: one contiguous arc-id slice plus
// per-node offsets instead of N growing slices. Dijkstra's working state
// (priority queue, distance and parent arrays) is allocated once per
// MaxFlow call and reused across augmentations.
type Graph struct {
	n     int
	edges []edge // twin arcs at 2k, 2k+1

	csrHead []int32 // per-node offsets into csrArcs; length n+1
	csrArcs []int32 // arc ids grouped by tail node
	csrAt   int     // len(edges) when the CSR was built

	cAug *obs.Counter // augmenting-path counter (nil = uninstrumented)
}

// Instrument attaches the mcmf.augmentations counter of t to this graph;
// every augmenting path MaxFlow pushes increments it. A nil tracer leaves
// the graph uninstrumented.
func (g *Graph) Instrument(t *obs.Tracer) {
	g.cAug = t.Counter("mcmf.augmentations")
}

// New returns an empty network on n nodes.
func New(n int) *Graph {
	return &Graph{n: n}
}

// NewWithEdgeHint returns an empty network on n nodes with capacity
// reserved for the given number of AddEdge calls, avoiding regrowth while
// the network is assembled.
func NewWithEdgeHint(n, edgeHint int) *Graph {
	g := New(n)
	if edgeHint > 0 {
		g.edges = make([]edge, 0, 2*edgeHint)
	}
	return g
}

// AddEdge adds a directed arc u→v with the given capacity and per-unit
// cost, returning an edge handle for Flow. Costs are integers so that the
// successive-shortest-path arithmetic is exact — callers quantise real
// costs before building the network. It panics on invalid endpoints or
// negative capacity, which are programming errors.
func (g *Graph) AddEdge(u, v, capacity int, cost int64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("mcmf: edge %d→%d out of range", u, v))
	}
	if capacity < 0 {
		panic("mcmf: negative capacity")
	}
	id := len(g.edges)
	g.edges = append(g.edges, edge{to: int32(v), cap: capacity, cost: cost})
	g.edges = append(g.edges, edge{to: int32(u), cap: 0, cost: -cost})
	return id
}

// buildCSR (re)compresses the adjacency when edges changed. The twin arc
// of edge id lives at id^1, so each arc's tail is its twin's head.
func (g *Graph) buildCSR() {
	if g.csrAt == len(g.edges) && g.csrHead != nil {
		return
	}
	counts := make([]int32, g.n+1)
	for id := range g.edges {
		counts[g.edges[id^1].to+1]++
	}
	head := make([]int32, g.n+1)
	for i := 0; i < g.n; i++ {
		head[i+1] = head[i] + counts[i+1]
	}
	arcs := make([]int32, len(g.edges))
	cursor := make([]int32, g.n)
	copy(cursor, head[:g.n])
	for id := range g.edges {
		tail := g.edges[id^1].to
		arcs[cursor[tail]] = int32(id)
		cursor[tail]++
	}
	g.csrHead = head
	g.csrArcs = arcs
	g.csrAt = len(g.edges)
}

// Flow returns the flow currently routed on the edge with the given handle
// (the residual capacity of its twin).
func (g *Graph) Flow(id int) int {
	return g.edges[id^1].cap
}

// Result summarises a MaxFlow run.
type Result struct {
	// Flow is the total flow pushed from source to sink.
	Flow int
	// Cost is the total cost of that flow.
	Cost int64
}

// pqItem is a Dijkstra queue entry.
type pqItem struct {
	node int32
	dist int64
}

// pq is a binary min-heap on dist. It is hand-rolled rather than built on
// container/heap so pushes and pops move values without interface boxing —
// the queue is the inner-loop data structure of every augmentation.
type pq []pqItem

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (q *pq) pop() pqItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*q = h
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].dist < h[l].dist {
			l = r
		}
		if h[i].dist <= h[l].dist {
			break
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
	return top
}

// MaxFlow pushes the maximum flow from s to t at minimum total cost.
// Negative edge costs are supported via a Bellman-Ford potential
// initialisation; negative cycles are not. The augmentation loop polls ctx
// before each shortest-path search (one Dijkstra per augmentation, the
// natural cancellation granularity) and, once cancelled, stops pushing flow
// and returns the partial Result together with ctx.Err(). The partial flow
// is a valid (capacity- and conservation-respecting) flow, just not
// maximal; callers that need a complete answer treat the error as a signal
// to fall back (see wdm.Assign). A run that completes before cancellation
// is bit-identical to an uncancelled one.
//
// Every augmenting path is a simple s→t path, so it stays inside one weakly
// connected component of the network without s and t (or is a direct s→t
// arc). The problem therefore separates: MaxFlow runs successive shortest
// paths on one component at a time, each Dijkstra seeded with s's arcs
// into that component, touching only its nodes and stopping once t is
// settled. Flow value and cost equal those of one search over the whole
// network; only the choice among equal-cost paths may differ.
func (g *Graph) MaxFlow(ctx context.Context, s, t int) (Result, error) {
	if s < 0 || s >= g.n || t < 0 || t >= g.n {
		return Result{}, fmt.Errorf("mcmf: source/sink out of range")
	}
	if s == t {
		return Result{}, fmt.Errorf("mcmf: source equals sink")
	}
	g.buildCSR()
	pot := make([]int64, g.n)
	if g.hasNegativeCost() {
		if err := g.bellmanFord(s, pot); err != nil {
			return Result{}, err
		}
	}
	comps := g.components(s, t)
	var res Result
	const unreached = math.MaxInt64
	dist := make([]int64, g.n)
	prevEdge := make([]int32, g.n)
	dist[s] = 0 // arcs back into s never improve it: reduced costs are non-negative
	q := make(pq, 0, g.n)
	potT := pot[t]
	for k := 0; k+1 < len(comps.seedAt); k++ {
		seeds := comps.seeds[comps.seedAt[k]:comps.seedAt[k+1]]
		if len(seeds) == 0 {
			continue // s reaches no node of this component
		}
		nodes := comps.nodes[comps.nodeAt[k]:comps.nodeAt[k+1]]
		// t is shared by every component, but an earlier component raised
		// pot[t] while this one's potentials stayed put; restarting from
		// the initial value keeps the reduced costs of arcs into t
		// non-negative.
		pot[t] = potT
		for {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			// Dijkstra on reduced costs (exact integer arithmetic). The
			// queue backing array is reused across augmentations.
			for _, v := range nodes {
				dist[v] = unreached
				prevEdge[v] = -1
			}
			dist[t] = unreached
			prevEdge[t] = -1
			q = append(q[:0], pqItem{node: int32(s)})
			for len(q) > 0 {
				it := q.pop()
				if it.dist > dist[it.node] {
					continue
				}
				if it.node == int32(t) {
					// Every node closer than t is settled, and the
					// capped potential update below gives the rest
					// dist[t] whether or not they are: stopping here
					// changes neither the path nor the potentials.
					break
				}
				arcs := seeds
				if it.node != int32(s) {
					arcs = g.csrArcs[g.csrHead[it.node]:g.csrHead[it.node+1]]
				}
				for _, id := range arcs {
					e := &g.edges[id]
					if e.cap <= 0 {
						continue
					}
					nd := it.dist + e.cost + pot[it.node] - pot[e.to]
					if nd < dist[e.to] {
						dist[e.to] = nd
						prevEdge[e.to] = id
						q.push(pqItem{node: e.to, dist: nd})
					}
				}
			}
			if dist[t] == unreached {
				break // no augmenting path remains in this component
			}
			// Update potentials with dist capped at dist[t]: nodes beyond
			// the sink (or unreached this round) advance by dist[t], which
			// keeps every residual reduced cost non-negative even when
			// reachability changes between augmentations.
			for _, v := range nodes {
				pot[v] += min(dist[v], dist[t])
			}
			pot[t] += dist[t]
			// Bottleneck along the path.
			bottleneck := math.MaxInt
			for v := int32(t); v != int32(s); {
				id := prevEdge[v]
				if g.edges[id].cap < bottleneck {
					bottleneck = g.edges[id].cap
				}
				v = g.edges[id^1].to
			}
			for v := int32(t); v != int32(s); {
				id := prevEdge[v]
				g.edges[id].cap -= bottleneck
				g.edges[id^1].cap += bottleneck
				res.Cost += int64(bottleneck) * g.edges[id].cost
				v = g.edges[id^1].to
			}
			res.Flow += bottleneck
			g.cAug.Inc()
		}
	}
	return res, nil
}

// components partitions the flow problem. Component 0 holds no nodes and
// seeds with s's direct arcs to t; each further component is one weakly
// connected component of the network without s and t, in order of its
// lowest node, seeded with s's arcs into it.
type components struct {
	nodes, nodeAt []int32 // nodes of component k: nodes[nodeAt[k]:nodeAt[k+1]]
	seeds, seedAt []int32 // s's arcs into component k: seeds[seedAt[k]:seedAt[k+1]]
}

// components labels the components by breadth-first search over the CSR,
// which lists every arc and its twin, so arc direction and residual
// capacity play no part: an arc into s from a component's node is the twin
// of one of s's arcs into it.
func (g *Graph) components(s, t int) components {
	sArcs := g.csrArcs[g.csrHead[s]:g.csrHead[s+1]]
	// One allocation, cut into: a visited mark per node, the nodes, at most
	// n offsets per offset list (one per component, at most n-2, plus two),
	// and at most one seed per arc of s.
	buf := make([]int32, 4*g.n+len(sArcs))
	seen := buf[:g.n]
	c := components{
		nodes:  buf[g.n : g.n : 2*g.n],
		nodeAt: buf[2*g.n : 2*g.n : 3*g.n],
		seedAt: buf[3*g.n : 3*g.n : 4*g.n],
		seeds:  buf[4*g.n : 4*g.n],
	}
	c.nodeAt = append(c.nodeAt, 0, 0)
	c.seedAt = append(c.seedAt, 0)
	for _, id := range sArcs {
		if int(g.edges[id].to) == t {
			c.seeds = append(c.seeds, id)
		}
	}
	c.seedAt = append(c.seedAt, int32(len(c.seeds)))
	seen[s], seen[t] = 1, 1
	for root := range g.n {
		if seen[root] != 0 {
			continue
		}
		seen[root] = 1
		c.nodes = append(c.nodes, int32(root))
		for next := len(c.nodes) - 1; next < len(c.nodes); next++ {
			v := c.nodes[next]
			for _, id := range g.csrArcs[g.csrHead[v]:g.csrHead[v+1]] {
				w := g.edges[id].to
				if int(w) == s {
					c.seeds = append(c.seeds, id^1)
				}
				if seen[w] == 0 {
					seen[w] = 1
					c.nodes = append(c.nodes, w)
				}
			}
		}
		c.nodeAt = append(c.nodeAt, int32(len(c.nodes)))
		c.seedAt = append(c.seedAt, int32(len(c.seeds)))
	}
	return c
}

func (g *Graph) hasNegativeCost() bool {
	for i := 0; i < len(g.edges); i += 2 {
		if g.edges[i].cost < 0 {
			return true
		}
	}
	return false
}

// bellmanFord fills pot with shortest distances from s over residual arcs,
// detecting negative cycles.
func (g *Graph) bellmanFord(s int, pot []int64) error {
	const unreached = math.MaxInt64
	for i := range pot {
		pot[i] = unreached
	}
	pot[s] = 0
	for iter := 0; iter < g.n; iter++ {
		changed := false
		for u := 0; u < g.n; u++ {
			if pot[u] == unreached {
				continue
			}
			for a, end := g.csrHead[u], g.csrHead[u+1]; a < end; a++ {
				e := &g.edges[g.csrArcs[a]]
				if e.cap > 0 && pot[u]+e.cost < pot[e.to] {
					pot[e.to] = pot[u] + e.cost
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		if iter == g.n-1 {
			return fmt.Errorf("mcmf: negative cycle detected")
		}
	}
	// Unreached nodes would keep a sentinel potential; normalise to 0 so
	// reduced costs stay finite if flow later reaches them.
	for i, v := range pot {
		if v == unreached {
			pot[i] = 0
		}
	}
	return nil
}
