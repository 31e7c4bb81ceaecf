package wdm

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"operon/internal/geom"
)

func cfg() Config {
	return Config{Capacity: 32, MinSpacingCM: 0.0005, MaxAssignDistCM: 0.05}
}

func hconn(y, x0, x1 float64, bits int) Connection {
	return Connection{
		Seg:  geom.Segment{A: geom.Point{X: x0, Y: y}, B: geom.Point{X: x1, Y: y}},
		Bits: bits,
	}
}

func vconn(x, y0, y1 float64, bits int) Connection {
	return Connection{
		Seg:  geom.Segment{A: geom.Point{X: x, Y: y0}, B: geom.Point{X: x, Y: y1}},
		Bits: bits,
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Capacity: 0, MaxAssignDistCM: 1},
		{Capacity: 4, MaxAssignDistCM: 0},
		{Capacity: 4, MinSpacingCM: -1, MaxAssignDistCM: 1},
		{Capacity: 4, MinSpacingCM: 2, MaxAssignDistCM: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := cfg().Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestPlaceRejectsBadConnections(t *testing.T) {
	if _, err := Place([]Connection{hconn(0, 0, 1, 0)}, cfg()); err == nil {
		t.Error("0-bit connection accepted")
	}
	if _, err := Place([]Connection{hconn(0, 0, 1, 33)}, cfg()); err == nil {
		t.Error("over-capacity connection accepted")
	}
}

func TestPlaceSharesNearbyConnections(t *testing.T) {
	// Three 10-bit connections within dis_u of each other share one WDM.
	conns := []Connection{
		hconn(0.00, 0, 1, 10),
		hconn(0.01, 0, 1, 10),
		hconn(0.02, 0, 1, 10),
	}
	pl, err := Place(conns, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.WDMs) != 1 {
		t.Fatalf("want 1 WDM, got %d", len(pl.WDMs))
	}
	if pl.WDMs[0].InitialLoad != 30 {
		t.Errorf("load %d, want 30", pl.WDMs[0].InitialLoad)
	}
}

func TestPlaceRespectsCapacity(t *testing.T) {
	// Paper Fig. 6: three 20-bit connections, capacity 32 → the sweep
	// opens a new WDM whenever capacity would overflow.
	conns := []Connection{
		hconn(0.00, 0, 1, 20),
		hconn(0.01, 0, 1, 20),
		hconn(0.02, 0, 1, 20),
	}
	pl, err := Place(conns, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.WDMs) != 3 {
		t.Fatalf("want 3 WDMs after sweep (20+20 > 32), got %d", len(pl.WDMs))
	}
	for i, w := range pl.WDMs {
		if w.InitialLoad > 32 {
			t.Errorf("WDM %d overloaded: %d", i, w.InitialLoad)
		}
	}
}

func TestPlaceRespectsDistance(t *testing.T) {
	// Two small connections far apart cannot share even with capacity room.
	conns := []Connection{
		hconn(0.0, 0, 1, 4),
		hconn(1.0, 0, 1, 4),
	}
	pl, err := Place(conns, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.WDMs) != 2 {
		t.Fatalf("distant connections share a WDM: %d", len(pl.WDMs))
	}
}

func TestPlaceSeparatesOrientations(t *testing.T) {
	conns := []Connection{
		hconn(0, 0, 1, 4),
		vconn(0, 0, 1, 4),
	}
	pl, err := Place(conns, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.WDMs) != 2 {
		t.Fatalf("want 2 WDMs (one per orientation), got %d", len(pl.WDMs))
	}
	if pl.WDMs[0].Horizontal == pl.WDMs[1].Horizontal {
		t.Error("orientations not separated")
	}
}

func TestLegalizeSpacing(t *testing.T) {
	c := cfg()
	c.MinSpacingCM = 0.01
	c.MaxAssignDistCM = 0.05
	// Connections so close that naive placement puts WDMs within dis_l —
	// each carries capacity-filling bits to force separate WDMs.
	conns := []Connection{
		hconn(0.000, 0, 1, 32),
		hconn(0.001, 0, 1, 32),
		hconn(0.002, 0, 1, 32),
	}
	pl, err := Place(conns, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.WDMs) != 3 {
		t.Fatalf("want 3 WDMs, got %d", len(pl.WDMs))
	}
	coords := []float64{pl.WDMs[0].CoordCM, pl.WDMs[1].CoordCM, pl.WDMs[2].CoordCM}
	for k := 1; k < 3; k++ {
		if coords[k]-coords[k-1] < c.MinSpacingCM-1e-12 {
			t.Errorf("WDMs %d,%d closer than dis_l: %v", k-1, k, coords)
		}
	}
}

func TestAssignConsolidates(t *testing.T) {
	// The paper's Fig. 6 example: three 20-bit connections on three WDMs
	// consolidate onto two (32 + 28).
	conns := []Connection{
		hconn(0.00, 0, 1, 20),
		hconn(0.01, 0, 1, 20),
		hconn(0.02, 0, 1, 20),
	}
	pl, as, st, err := Run(context.Background(), conns, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.WDMs) != 3 {
		t.Fatalf("placement WDMs = %d, want 3", len(pl.WDMs))
	}
	if st.FinalWDMs != 2 {
		t.Fatalf("final WDMs = %d, want 2 (Fig. 6 consolidation)", st.FinalWDMs)
	}
	// Shares must cover every connection's bits exactly.
	for i, c := range conns {
		total := 0
		for _, s := range as.Shares[i] {
			total += s.Bits
		}
		if total != c.Bits {
			t.Errorf("connection %d: shares cover %d of %d bits", i, total, c.Bits)
		}
	}
	if math.Abs(st.Reduction()-1.0/3.0) > 1e-9 {
		t.Errorf("reduction = %v, want 1/3", st.Reduction())
	}
}

func TestAssignRespectsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var conns []Connection
	for i := 0; i < 30; i++ {
		conns = append(conns, hconn(rng.Float64()*0.5, 0, 1, 1+rng.Intn(16)))
	}
	for i := 0; i < 20; i++ {
		conns = append(conns, vconn(rng.Float64()*0.5, 0, 1, 1+rng.Intn(16)))
	}
	pl, as, st, err := Run(context.Background(), conns, cfg())
	if err != nil {
		t.Fatal(err)
	}
	load := make(map[int]int)
	for i := range conns {
		for _, s := range as.Shares[i] {
			load[s.WDM] += s.Bits
			// Orientation must match.
			if pl.WDMs[s.WDM].Horizontal != conns[i].Horizontal() {
				t.Fatalf("connection %d assigned across orientations", i)
			}
			// Displacement must respect dis_u (unless it is the original).
			d := math.Abs(conns[i].coord() - pl.WDMs[s.WDM].CoordCM)
			if d > cfg().MaxAssignDistCM+1e-9 && s.WDM != pl.InitialAssign[i] {
				t.Fatalf("connection %d displaced %v > dis_u", i, d)
			}
		}
	}
	for w, l := range load {
		if l > cfg().Capacity {
			t.Errorf("WDM %d overloaded: %d", w, l)
		}
	}
	if st.FinalWDMs > st.InitialWDMs {
		t.Errorf("assignment increased WDM count: %d > %d", st.FinalWDMs, st.InitialWDMs)
	}
	if st.FinalWDMs != len(load) {
		t.Errorf("FinalWDMs %d != distinct used %d", st.FinalWDMs, len(load))
	}
}

func TestAssignNeverWorseThanPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		var conns []Connection
		n := 5 + rng.Intn(40)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				conns = append(conns, hconn(rng.Float64(), 0, 1+rng.Float64(), 1+rng.Intn(24)))
			} else {
				conns = append(conns, vconn(rng.Float64(), 0, 1+rng.Float64(), 1+rng.Intn(24)))
			}
		}
		_, _, st, err := Run(context.Background(), conns, cfg())
		if err != nil {
			t.Fatal(err)
		}
		if st.FinalWDMs > st.InitialWDMs {
			t.Errorf("trial %d: final %d > initial %d", trial, st.FinalWDMs, st.InitialWDMs)
		}
		if st.InitialWDMs > st.Connections {
			t.Errorf("trial %d: more WDMs than connections after sweep", trial)
		}
	}
}

func TestEmptyConnections(t *testing.T) {
	pl, as, st, err := Run(context.Background(), nil, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.WDMs) != 0 || as.Used() != 0 || st.Connections != 0 {
		t.Errorf("empty run: %+v %+v %+v", pl, as, st)
	}
	if st.Reduction() != 0 {
		t.Errorf("empty reduction = %v", st.Reduction())
	}
}

func TestAssignPlacementMismatch(t *testing.T) {
	conns := []Connection{hconn(0, 0, 1, 4)}
	if _, err := Assign(context.Background(), conns, Placement{}, cfg()); err == nil {
		t.Error("mismatched placement accepted")
	}
}
