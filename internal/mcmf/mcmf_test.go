package mcmf

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestAddEdgePanics(t *testing.T) {
	g := New(2)
	for _, fn := range []func(){
		func() { g.AddEdge(-1, 0, 1, 0) },
		func() { g.AddEdge(0, 5, 1, 0) },
		func() { g.AddEdge(0, 1, -1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad AddEdge did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestMaxFlowValidation(t *testing.T) {
	g := New(3)
	if _, err := g.MaxFlow(context.Background(), 0, 0); err == nil {
		t.Error("s == t accepted")
	}
	if _, err := g.MaxFlow(context.Background(), -1, 1); err == nil {
		t.Error("bad source accepted")
	}
}

func TestSimplePath(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 5, 1)
	g.AddEdge(1, 2, 3, 2)
	res, err := g.MaxFlow(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 3 {
		t.Errorf("flow %d, want 3", res.Flow)
	}
	if res.Cost != 9 { // 3·1 + 3·2
		t.Errorf("cost %v, want 9", res.Cost)
	}
}

func TestChoosesCheaperPath(t *testing.T) {
	// Two parallel 0→1 paths; cheap one saturates first.
	g := New(4)
	cheap := g.AddEdge(0, 1, 2, 1)
	exp := g.AddEdge(0, 2, 2, 10)
	g.AddEdge(1, 3, 2, 0)
	g.AddEdge(2, 3, 2, 0)
	res, err := g.MaxFlow(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 4 {
		t.Fatalf("flow %d, want 4", res.Flow)
	}
	if g.Flow(cheap) != 2 || g.Flow(exp) != 2 {
		t.Errorf("flows: cheap %d expensive %d", g.Flow(cheap), g.Flow(exp))
	}
	if res.Cost != 22 {
		t.Errorf("cost %v, want 22", res.Cost)
	}
}

func TestResidualRerouting(t *testing.T) {
	// Classic case where min-cost flow must reroute through a residual arc.
	//   0→1 (1, 1), 0→2 (1, 2), 1→2 (1, 0 — tempting shortcut),
	//   1→3 (1, 2), 2→3 (1, 1)
	// Max flow 2: optimal sends 0→1→3 and 0→2→3 (cost 1+2+2+1 = 6).
	g := New(4)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(0, 2, 1, 2)
	g.AddEdge(1, 2, 1, 0)
	g.AddEdge(1, 3, 1, 2)
	g.AddEdge(2, 3, 1, 1)
	res, err := g.MaxFlow(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 2 || res.Cost != 6 {
		t.Errorf("flow %d cost %v, want 2 and 6", res.Flow, res.Cost)
	}
}

func TestDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 4, 1)
	res, err := g.MaxFlow(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 0 || res.Cost != 0 {
		t.Errorf("disconnected: %+v", res)
	}
}

func TestNegativeCosts(t *testing.T) {
	// A negative arc that the Bellman-Ford potentials must handle.
	g := New(3)
	g.AddEdge(0, 1, 2, -3)
	g.AddEdge(1, 2, 2, 1)
	res, err := g.MaxFlow(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 2 || res.Cost != -4 {
		t.Errorf("flow %d cost %v, want 2 and -4", res.Flow, res.Cost)
	}
}

func TestFlowConservationProperty(t *testing.T) {
	// Property: on random graphs, flow is conserved at every internal node
	// and no edge exceeds capacity.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 6 + rng.Intn(6)
		g := New(n)
		type arc struct {
			id, u, v, cap int
		}
		var arcs []arc
		for k := 0; k < n*3; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			c := 1 + rng.Intn(5)
			id := g.AddEdge(u, v, c, int64(rng.Intn(10)))
			arcs = append(arcs, arc{id, u, v, c})
		}
		s, t0 := 0, n-1
		res, err := g.MaxFlow(context.Background(), s, t0)
		if err != nil {
			t.Fatal(err)
		}
		net := make([]int, n)
		for _, a := range arcs {
			f := g.Flow(a.id)
			if f < 0 || f > a.cap {
				t.Fatalf("trial %d: edge flow %d outside [0,%d]", trial, f, a.cap)
			}
			net[a.u] -= f
			net[a.v] += f
		}
		for v := 0; v < n; v++ {
			switch v {
			case s:
				if net[v] != -res.Flow {
					t.Fatalf("trial %d: source net %d, want %d", trial, net[v], -res.Flow)
				}
			case t0:
				if net[v] != res.Flow {
					t.Fatalf("trial %d: sink net %d, want %d", trial, net[v], res.Flow)
				}
			default:
				if net[v] != 0 {
					t.Fatalf("trial %d: node %d violates conservation: %d", trial, v, net[v])
				}
			}
		}
	}
}

func TestMatchesBruteForceCost(t *testing.T) {
	// Property: on small random unit-capacity bipartite graphs, SSP cost
	// equals brute-force minimum assignment cost.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(3) // k left, k right
		cost := make([][]int64, k)
		for i := range cost {
			cost[i] = make([]int64, k)
			for j := range cost[i] {
				cost[i][j] = int64(rng.Intn(20))
			}
		}
		// Build: s=0, left 1..k, right k+1..2k, t=2k+1.
		g := New(2*k + 2)
		s, t0 := 0, 2*k+1
		for i := 0; i < k; i++ {
			g.AddEdge(s, 1+i, 1, 0)
			g.AddEdge(k+1+i, t0, 1, 0)
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				g.AddEdge(1+i, k+1+j, 1, cost[i][j])
			}
		}
		res, err := g.MaxFlow(context.Background(), s, t0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Flow != k {
			t.Fatalf("trial %d: flow %d, want %d", trial, res.Flow, k)
		}
		if want := bruteAssignment(cost); res.Cost != want {
			t.Errorf("trial %d: cost %v, want %v", trial, res.Cost, want)
		}
	}
}

// bruteAssignment returns the minimum-cost perfect assignment by permutation
// enumeration (k <= 4).
func bruteAssignment(cost [][]int64) int64 {
	k := len(cost)
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	best := int64(math.MaxInt64)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			var c int64
			for r, col := range perm {
				c += cost[r][col]
			}
			if c < best {
				best = c
			}
			return
		}
		for j := i; j < k; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			rec(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	rec(0)
	return best
}

func TestWDMConsolidationShape(t *testing.T) {
	// The Fig. 6/7 scenario: three 20-bit connections, three candidate WDMs
	// of capacity 32, usage costs increasing with WDM index. The min-cost
	// flow should pack all 60 bits into the first two WDMs.
	g := New(8) // 0 s, 1-3 connections, 4-6 WDMs, 7 t
	s, t0 := 0, 7
	for c := 0; c < 3; c++ {
		g.AddEdge(s, 1+c, 20, 0)
	}
	wdmEdges := make([]int, 3)
	for w := 0; w < 3; w++ {
		wdmEdges[w] = g.AddEdge(4+w, t0, 32, 1000*int64(w+1)) // usage cost grows
	}
	// Every connection may reach every WDM (displacement cost « usage cost).
	for c := 0; c < 3; c++ {
		for w := 0; w < 3; w++ {
			disp := int64(c - w)
			if disp < 0 {
				disp = -disp
			}
			g.AddEdge(1+c, 4+w, 20, disp)
		}
	}
	res, err := g.MaxFlow(context.Background(), s, t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != 60 {
		t.Fatalf("flow %d, want 60", res.Flow)
	}
	if g.Flow(wdmEdges[0]) != 32 || g.Flow(wdmEdges[1]) != 28 || g.Flow(wdmEdges[2]) != 0 {
		t.Errorf("WDM loads = %d/%d/%d, want 32/28/0",
			g.Flow(wdmEdges[0]), g.Flow(wdmEdges[1]), g.Flow(wdmEdges[2]))
	}
}

// wdmShapedNetwork is a WDM-assignment-shaped flow network: 200
// connections, 60 WDMs, four candidate arcs per connection.
type wdmShapedNetwork struct {
	nodes, src, snk int
	arcs            []wdmShapedArc
}

type wdmShapedArc struct {
	u, v, cap int
	cost      int64
}

func newWDMShapedNetwork() wdmShapedNetwork {
	rng := rand.New(rand.NewSource(17))
	nConn, nWDM := 200, 60
	n := wdmShapedNetwork{nodes: nConn + nWDM + 2, snk: nConn + nWDM + 1}
	add := func(u, v, cap int, cost int64) {
		n.arcs = append(n.arcs, wdmShapedArc{u, v, cap, cost})
	}
	for c := 0; c < nConn; c++ {
		add(n.src, 1+c, 2+rng.Intn(20), 0)
		for w := 0; w < 4; w++ {
			add(1+c, 1+nConn+rng.Intn(nWDM), 32, int64(rng.Intn(1000)))
		}
	}
	for w := 0; w < nWDM; w++ {
		add(1+nConn+w, n.snk, 32, int64(1+w)*5000)
	}
	return n
}

// buildAndSolve is one full build-and-solve of the network.
func (n wdmShapedNetwork) buildAndSolve() error {
	g := NewWithEdgeHint(n.nodes, len(n.arcs))
	for _, a := range n.arcs {
		g.AddEdge(a.u, a.v, a.cap, a.cost)
	}
	_, err := g.MaxFlow(context.Background(), n.src, n.snk)
	return err
}

// maxBuildAndSolveAllocs is the allocation ceiling of one build-and-solve
// of the WDM-shaped network: the CSR adjacency and the reused Dijkstra
// queue keep it flat in the number of augmentations (10 measured).
const maxBuildAndSolveAllocs = 12

// TestBuildAndSolveAllocs pins the allocation profile BenchmarkMCMF times.
func TestBuildAndSolveAllocs(t *testing.T) {
	n := newWDMShapedNetwork()
	allocs := testing.AllocsPerRun(20, func() {
		if err := n.buildAndSolve(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per build-and-solve", allocs)
	if allocs > maxBuildAndSolveAllocs {
		t.Fatalf("build-and-solve allocates %.0f, ceiling %d", allocs, maxBuildAndSolveAllocs)
	}
}

// BenchmarkMCMF times a full build-and-solve of the WDM-shaped network.
func BenchmarkMCMF(b *testing.B) {
	n := newWDMShapedNetwork()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := n.buildAndSolve(); err != nil {
			b.Fatal(err)
		}
	}
}

// maxFlowRef is the reference for MaxFlow: successive shortest paths with
// one exhaustive Dijkstra over the whole network per augmentation.
func maxFlowRef(ctx context.Context, g *Graph, s, t int) (Result, error) {
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
	var res Result
	const unreached = math.MaxInt64
	dist := make([]int64, g.n)
	prevEdge := make([]int32, g.n)
	q := make(pq, 0, g.n)
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		for i := range dist {
			dist[i] = unreached
			prevEdge[i] = -1
		}
		dist[s] = 0
		q = q[:0]
		q.push(pqItem{node: int32(s)})
		for len(q) > 0 {
			it := q.pop()
			if it.dist > dist[it.node] {
				continue
			}
			for a, end := g.csrHead[it.node], g.csrHead[it.node+1]; a < end; a++ {
				id := g.csrArcs[a]
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
			break
		}
		for i := range pot {
			pot[i] += min(dist[i], dist[t])
		}
		bottleneck := math.MaxInt
		for v := int32(t); v != int32(s); {
			id := prevEdge[v]
			bottleneck = min(bottleneck, g.edges[id].cap)
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
	}
	return res, nil
}

// flowNetwork is a network to solve twice: once by MaxFlow, once by
// maxFlowRef.
type flowNetwork struct {
	n, s, t int
	arcs    []wdmShapedArc
}

func (fn flowNetwork) build() *Graph {
	g := New(fn.n)
	for _, a := range fn.arcs {
		g.AddEdge(a.u, a.v, a.cap, a.cost)
	}
	return g
}

// decodeNetwork turns bytes into a WDM-shaped network of at most 32 nodes:
// source → 1–12 connections → 1–8 WDMs → sink, the connection→WDM layer
// split into 1–4 groups, so the network without s and t has several
// components. Node ids are shuffled (s and t land anywhere). Costs are
// negative on some source and connection arcs, capacities are often zero,
// and there may be isolated nodes, direct s→t arcs and arcs into s or out
// of t. Those last two have costs that keep every cycle non-negative.
// Missing bytes read as zero.
func decodeNetwork(data []byte) flowNetwork {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	signed := func(m int) int64 { return int64(int8(next())) % int64(m) }
	shape, extra := next(), next()
	nConn, nWDM, nGroup := 1+shape%12, 1+(shape/12)%8, 1+extra%4
	nIso, nDirect, backArcs := (extra/4)%4, (extra/16)%3, extra/48 == 0
	fn := flowNetwork{n: 2 + nConn + nWDM + nIso}
	perm := make([]int, fn.n)
	for i := range perm {
		j := next() % (i + 1)
		perm[i], perm[j] = perm[j], i
	}
	// Logical layout: 0 source, 1 sink, then connections, WDMs, isolated.
	fn.s, fn.t = perm[0], perm[1]
	conn := func(c int) int { return perm[2+c] }
	wdm := func(w int) int { return perm[2+nConn+w] }
	add := func(u, v, cap int, cost int64) {
		fn.arcs = append(fn.arcs, wdmShapedArc{u, v, cap, cost})
	}
	connGroup := make([]int, nConn)
	for c := range connGroup {
		connGroup[c] = next() % nGroup
		add(fn.s, conn(c), next()%9, signed(4))
	}
	for w := 0; w < nWDM; w++ {
		group := next() % nGroup
		for c := 0; c < nConn; c++ {
			if b := next(); connGroup[c] == group && b%3 != 0 {
				add(conn(c), wdm(w), b/3%9, signed(16))
			}
		}
		add(wdm(w), fn.t, next()%12, int64(next()%32))
	}
	for k := 0; k < nDirect; k++ {
		add(fn.s, fn.t, next()%6, signed(8))
	}
	if backArcs {
		add(conn(next()%nConn), fn.s, next()%3, 3+int64(next()%8))
		add(fn.t, wdm(next()%nWDM), next()%3, int64(next()%8))
	}
	return fn
}

// checkAgainstRef solves fn with MaxFlow and with maxFlowRef and fails
// unless both return the same Result and error, and MaxFlow's arc flows
// respect capacities, conserve flow and add up to its Result.
func checkAgainstRef(t *testing.T, fn flowNetwork) {
	t.Helper()
	g := fn.build()
	got, gotErr := g.MaxFlow(context.Background(), fn.s, fn.t)
	want, wantErr := maxFlowRef(context.Background(), fn.build(), fn.s, fn.t)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
		t.Fatalf("MaxFlow = %+v, %v; reference %+v, %v\nnetwork %+v",
			got, gotErr, want, wantErr, fn)
	}
	if gotErr != nil {
		return
	}
	net := make([]int, fn.n)
	var cost int64
	for k, a := range fn.arcs {
		f := g.Flow(2 * k)
		if f < 0 || f > a.cap {
			t.Fatalf("arc %d flow %d outside [0,%d]\nnetwork %+v", k, f, a.cap, fn)
		}
		net[a.u] -= f
		net[a.v] += f
		cost += int64(f) * a.cost
	}
	if net[fn.t] != got.Flow || cost != got.Cost {
		t.Fatalf("arc flows deliver %d at cost %d, Result %+v\nnetwork %+v", net[fn.t], cost, got, fn)
	}
	for v, b := range net {
		if v != fn.s && v != fn.t && b != 0 {
			t.Fatalf("node %d violates conservation by %d\nnetwork %+v", v, b, fn)
		}
	}
}

// TestMaxFlowMatchesReference checks the per-component search against the
// single whole-network search on random WDM-shaped networks.
func TestMaxFlowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	data := make([]byte, 160)
	for trial := 0; trial < 3000; trial++ {
		rng.Read(data)
		checkAgainstRef(t, decodeNetwork(data))
	}
}

// FuzzMaxFlow checks MaxFlow against maxFlowRef on the networks
// decodeNetwork builds. `go test` runs the seed corpus in
// testdata/fuzz/FuzzMaxFlow; `go test -fuzz FuzzMaxFlow` explores.
func FuzzMaxFlow(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstRef(t, decodeNetwork(data))
	})
}
