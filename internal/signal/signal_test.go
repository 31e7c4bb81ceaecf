package signal

import (
	"math/rand"
	"reflect"
	"testing"

	"operon/internal/geom"
)

// busGroup builds a bundle of bits whose drivers sit in one region and whose
// sinks sit in nClusters other regions.
func busGroup(name string, bits, nSinkClusters int, seed int64) Group {
	rng := rand.New(rand.NewSource(seed))
	driverBase := geom.Point{X: rng.Float64(), Y: rng.Float64()}
	sinkBases := make([]geom.Point, nSinkClusters)
	for i := range sinkBases {
		sinkBases[i] = geom.Point{X: 1 + rng.Float64()*2, Y: 1 + rng.Float64()*2}
	}
	g := Group{Name: name}
	for b := 0; b < bits; b++ {
		jit := func(p geom.Point) geom.Point {
			return geom.Point{X: p.X + rng.Float64()*0.01, Y: p.Y + rng.Float64()*0.01}
		}
		bit := Bit{Driver: jit(driverBase)}
		for _, sb := range sinkBases {
			bit.Sinks = append(bit.Sinks, jit(sb))
		}
		g.Bits = append(g.Bits, bit)
	}
	return g
}

func TestBitValidate(t *testing.T) {
	if err := (Bit{}).Validate(); err == nil {
		t.Error("bit with no sinks accepted")
	}
	b := Bit{Driver: geom.Point{}, Sinks: []geom.Point{{X: 1, Y: 1}}}
	if err := b.Validate(); err != nil {
		t.Errorf("valid bit rejected: %v", err)
	}
}

func TestBitCentroid(t *testing.T) {
	b := Bit{Driver: geom.Point{X: 0, Y: 0}, Sinks: []geom.Point{{X: 2, Y: 0}, {X: 1, Y: 3}}}
	if got := b.Centroid(); !got.Eq(geom.Point{X: 1, Y: 1}) {
		t.Errorf("Centroid = %v", got)
	}
	if got := b.PinCount(); got != 3 {
		t.Errorf("PinCount = %d", got)
	}
}

func TestDesignValidate(t *testing.T) {
	if err := (Design{Name: "empty"}).Validate(); err == nil {
		t.Error("design with no groups accepted")
	}
	d := Design{Name: "bad", Groups: []Group{{Name: "g"}}}
	if err := d.Validate(); err == nil {
		t.Error("design with empty group accepted")
	}
}

func TestNetCount(t *testing.T) {
	d := Design{Groups: []Group{busGroup("a", 5, 1, 1), busGroup("b", 7, 2, 2)}}
	if got := d.NetCount(); got != 12 {
		t.Errorf("NetCount = %d, want 12", got)
	}
}

func TestProcessCapacity(t *testing.T) {
	d := Design{
		Name:   "t",
		Die:    geom.Rect{Hi: geom.Point{X: 4, Y: 4}},
		Groups: []Group{busGroup("bus", 70, 2, 3)},
	}
	_, nets, err := Process(d, ProcessConfig{WDMCapacity: 32, PinMergeThresholdCM: 0.05}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 70 bits with capacity 32 → at least 3 hyper nets, none above capacity.
	if len(nets) < 3 {
		t.Fatalf("want >=3 hyper nets, got %d", len(nets))
	}
	seen := map[int]bool{}
	total := 0
	for _, n := range nets {
		if n.BitCount() > 32 {
			t.Errorf("hyper net exceeds capacity: %d bits", n.BitCount())
		}
		if n.BitCount() == 0 {
			t.Error("empty hyper net")
		}
		for _, b := range n.Bits {
			if seen[b] {
				t.Errorf("bit %d in two hyper nets", b)
			}
			seen[b] = true
			total++
		}
	}
	if total != 70 {
		t.Errorf("hyper nets cover %d of 70 bits", total)
	}
}

func TestProcessHyperPinsStructure(t *testing.T) {
	d := Design{
		Name:   "t",
		Groups: []Group{busGroup("bus", 16, 3, 5)},
	}
	_, nets, err := Process(d, ProcessConfig{WDMCapacity: 32, PinMergeThresholdCM: 0.1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(nets) != 1 {
		t.Fatalf("want 1 hyper net, got %d", len(nets))
	}
	n := nets[0]
	// Drivers in one region, sinks in three: expect 4 hyper pins.
	if len(n.Pins) != 4 {
		t.Fatalf("want 4 hyper pins, got %d", len(n.Pins))
	}
	src := n.Pins[n.Source]
	if src.Drivers != 16 {
		t.Errorf("source hyper pin has %d drivers, want 16", src.Drivers)
	}
	for i, p := range n.Pins {
		if i == n.Source {
			continue
		}
		if p.Drivers != 0 {
			t.Errorf("sink hyper pin %d has %d drivers", i, p.Drivers)
		}
		if p.Bits != 16 {
			t.Errorf("sink hyper pin %d aggregates %d bits, want 16", i, p.Bits)
		}
	}
}

func TestProcessRejectsBadCapacity(t *testing.T) {
	d := Design{Groups: []Group{busGroup("bus", 4, 1, 1)}}
	if _, _, err := Process(d, ProcessConfig{WDMCapacity: 0}, nil, nil); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestProcessDegenerateLocalNet(t *testing.T) {
	// All pins within the merge threshold: the degenerate split must still
	// produce a routable 2-pin hyper net.
	g := Group{Name: "local"}
	for i := 0; i < 4; i++ {
		g.Bits = append(g.Bits, Bit{
			Driver: geom.Point{X: 0.001 * float64(i), Y: 0},
			Sinks:  []geom.Point{{X: 0.001 * float64(i), Y: 0.001}},
		})
	}
	d := Design{Groups: []Group{g}}
	_, nets, err := Process(d, ProcessConfig{WDMCapacity: 32, PinMergeThresholdCM: 10}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nets {
		if len(n.Pins) < 2 {
			t.Fatalf("degenerate hyper net has %d pins", len(n.Pins))
		}
		if n.Pins[n.Source].Drivers == 0 {
			t.Error("source hyper pin has no drivers")
		}
	}
}

func TestTerminalsSourceFirst(t *testing.T) {
	n := HyperNet{
		Pins: []HyperPin{
			{Centre: geom.Point{X: 1, Y: 1}},
			{Centre: geom.Point{X: 2, Y: 2}, Drivers: 3},
			{Centre: geom.Point{X: 3, Y: 3}},
		},
		Source: 1,
	}
	ts := n.Terminals()
	if len(ts) != 3 || !ts[0].Eq(geom.Point{X: 2, Y: 2}) {
		t.Fatalf("Terminals = %v", ts)
	}
	sp := n.SinkPins()
	if len(sp) != 2 || sp[0] != 0 || sp[1] != 2 {
		t.Fatalf("SinkPins = %v", sp)
	}
}

func TestSummarize(t *testing.T) {
	nets := []HyperNet{
		{Pins: make([]HyperPin, 3)},
		{Pins: make([]HyperPin, 2)},
	}
	s := Summarize(nets)
	if s.HyperNets != 2 || s.HyperPins != 5 {
		t.Fatalf("Summarize = %+v", s)
	}
}

func TestProcessDeterministic(t *testing.T) {
	d := Design{Groups: []Group{busGroup("bus", 40, 2, 7), busGroup("b2", 33, 3, 8)}}
	cfg := ProcessConfig{WDMCapacity: 16, PinMergeThresholdCM: 0.05, Seed: 42}
	_, a, err := Process(d, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := Process(d, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic: %d vs %d hyper nets", len(a), len(b))
	}
	for i := range a {
		if a[i].BitCount() != b[i].BitCount() || len(a[i].Pins) != len(b[i].Pins) {
			t.Fatalf("hyper net %d differs between runs", i)
		}
	}
}

// TestProcessCarryOver edits one group of three and re-processes with the
// other two marked clean: the clean groups come back as the previous slices
// themselves, the result equals a cold Process of the edited design, and it
// is the same at Workers 1 and 4.
func TestProcessCarryOver(t *testing.T) {
	d := Design{Groups: []Group{busGroup("a", 40, 2, 7), busGroup("b", 33, 3, 8), busGroup("c", 21, 2, 9)}}
	edited := d
	edited.Groups = append([]Group(nil), d.Groups...)
	edited.Groups[1] = busGroup("b", 33, 3, 10)
	clean := []bool{true, false, true}
	var results [][]HyperNet
	for _, workers := range []int{1, 4} {
		cfg := ProcessConfig{WDMCapacity: 16, PinMergeThresholdCM: 0.05, Seed: 42, Workers: workers}
		prev, _, err := Process(d, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		groups, nets, err := Process(edited, cfg, prev, clean)
		if err != nil {
			t.Fatal(err)
		}
		for gi, c := range clean {
			if reused := &groups[gi][0] == &prev[gi][0]; reused != c {
				t.Errorf("workers=%d: group %d reused = %v, want %v", workers, gi, reused, c)
			}
		}
		coldGroups, coldNets, err := Process(edited, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(groups, coldGroups) || !reflect.DeepEqual(nets, coldNets) {
			t.Errorf("workers=%d: carry-over result differs from a cold Process", workers)
		}
		results = append(results, nets)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("Workers 1 and 4 give different hyper nets")
	}
}
