package mcmf

import (
	"context"
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

func BenchmarkMaxFlowWDMNetwork(b *testing.B) {
	// A WDM-assignment-shaped network: 200 connections, 60 WDMs.
	rng := rand.New(rand.NewSource(6))
	type arcSpec struct {
		u, v, cap int
		cost      int64
	}
	var arcs []arcSpec
	nConn, nWDM := 200, 60
	src, snk := 0, nConn+nWDM+1
	for c := 0; c < nConn; c++ {
		arcs = append(arcs, arcSpec{src, 1 + c, 2 + rng.Intn(20), 0})
		for w := 0; w < 4; w++ {
			arcs = append(arcs, arcSpec{1 + c, 1 + nConn + rng.Intn(nWDM), 32, int64(rng.Intn(1000))})
		}
	}
	for w := 0; w < nWDM; w++ {
		arcs = append(arcs, arcSpec{1 + nConn + w, snk, 32, int64(1+w) * 5000})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New(nConn + nWDM + 2)
		for _, a := range arcs {
			g.AddEdge(a.u, a.v, a.cap, a.cost)
		}
		if _, err := g.MaxFlow(context.Background(), src, snk); err != nil {
			b.Fatal(err)
		}
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
