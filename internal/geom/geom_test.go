package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestDistances(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if !almostEq(p.Dist(q), 5) {
		t.Errorf("Dist = %v, want 5", p.Dist(q))
	}
	if !almostEq(p.ManhattanDist(q), 7) {
		t.Errorf("ManhattanDist = %v, want 7", p.ManhattanDist(q))
	}
}

func TestManhattanDominatesEuclid(t *testing.T) {
	// Property: Manhattan distance >= Euclidean distance always.
	f := func(ax, ay, bx, by float64) bool {
		a := Point{clampCoord(ax), clampCoord(ay)}
		b := Point{clampCoord(bx), clampCoord(by)}
		return a.ManhattanDist(b) >= a.Dist(b)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{clampCoord(ax), clampCoord(ay)}
		b := Point{clampCoord(bx), clampCoord(by)}
		c := Point{clampCoord(cx), clampCoord(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampCoord folds arbitrary quick-generated floats into a sane coordinate
// range so that products do not overflow.
func clampCoord(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 100)
}

func TestCentroid(t *testing.T) {
	pts := []Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	c := Centroid(pts)
	if !c.Eq(Point{1, 1}) {
		t.Errorf("Centroid = %v, want (1,1)", c)
	}
}

func TestCentroidPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Centroid(nil) did not panic")
		}
	}()
	Centroid(nil)
}

func TestSegmentBasics(t *testing.T) {
	s := Segment{Point{0, 0}, Point{3, 4}}
	if !almostEq(s.Length(), 5) {
		t.Errorf("Length = %v", s.Length())
	}
	if !almostEq(s.ManhattanLength(), 7) {
		t.Errorf("ManhattanLength = %v", s.ManhattanLength())
	}
	if !s.Midpoint().Eq(Point{1.5, 2}) {
		t.Errorf("Midpoint = %v", s.Midpoint())
	}
	if !(Segment{Point{0, 0}, Point{2, 1}}).Horizontal() {
		t.Error("flat segment should be horizontal")
	}
	if (Segment{Point{0, 0}, Point{1, 2}}).Horizontal() {
		t.Error("steep segment should be vertical")
	}
}

func TestRectOps(t *testing.T) {
	r := BBoxOf([]Point{{1, 1}, {4, 3}, {2, 5}})
	if r.Lo != (Point{1, 1}) || r.Hi != (Point{4, 5}) {
		t.Fatalf("BBoxOf = %+v", r)
	}
	if !almostEq(r.Width(), 3) || !almostEq(r.Height(), 4) {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
	}
	if !r.Center().Eq(Point{2.5, 3}) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.Contains(Point{2, 2}) || r.Contains(Point{0, 0}) {
		t.Error("Contains wrong")
	}
	q := Rect{Point{5, 5}, Point{6, 6}}
	if r.Overlaps(q) {
		t.Error("disjoint rects reported overlapping")
	}
	if !r.Overlaps(Rect{Point{4, 5}, Point{9, 9}}) {
		t.Error("touching rects should overlap")
	}
	u := r.Union(q)
	if u.Lo != (Point{1, 1}) || u.Hi != (Point{6, 6}) {
		t.Errorf("Union = %+v", u)
	}
	e := r.Expand(1)
	if e.Lo != (Point{0, 0}) || e.Hi != (Point{5, 6}) {
		t.Errorf("Expand = %+v", e)
	}
}

func TestProperCrossing(t *testing.T) {
	x := Segment{Point{0, 0}, Point{2, 2}}
	tests := []struct {
		name string
		s    Segment
		want bool
	}{
		{"crossing diagonals", Segment{Point{0, 2}, Point{2, 0}}, true},
		{"disjoint", Segment{Point{3, 3}, Point{4, 4}}, false},
		{"endpoint touch", Segment{Point{2, 2}, Point{3, 0}}, false},
		{"T junction", Segment{Point{1, 1}, Point{1, -3}}, false},
		{"collinear overlap", Segment{Point{1, 1}, Point{3, 3}}, false},
		{"parallel", Segment{Point{0, 1}, Point{2, 3}}, false},
	}
	for _, tc := range tests {
		if got := ProperCrossing(x, tc.s); got != tc.want {
			t.Errorf("%s: ProperCrossing = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSegmentsIntersectIncludesTouches(t *testing.T) {
	x := Segment{Point{0, 0}, Point{2, 2}}
	if !SegmentsIntersect(x, Segment{Point{2, 2}, Point{3, 0}}) {
		t.Error("endpoint touch should intersect")
	}
	if !SegmentsIntersect(x, Segment{Point{1, 1}, Point{3, 3}}) {
		t.Error("collinear overlap should intersect")
	}
	if SegmentsIntersect(x, Segment{Point{0, 1}, Point{1, 2}}) {
		t.Error("parallel offset should not intersect")
	}
}

func TestProperCrossingSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		s := Segment{randPt(rng), randPt(rng)}
		u := Segment{randPt(rng), randPt(rng)}
		if ProperCrossing(s, u) != ProperCrossing(u, s) {
			t.Fatalf("asymmetric crossing for %v %v", s, u)
		}
		if SegmentsIntersect(s, u) != SegmentsIntersect(u, s) {
			t.Fatalf("asymmetric intersect for %v %v", s, u)
		}
		// A proper crossing implies intersection.
		if ProperCrossing(s, u) && !SegmentsIntersect(s, u) {
			t.Fatalf("proper crossing without intersection: %v %v", s, u)
		}
	}
}

func randPt(rng *rand.Rand) Point {
	return Point{rng.Float64() * 10, rng.Float64() * 10}
}

func TestCountCrossings(t *testing.T) {
	// A grid: 3 horizontal lines and 2 vertical lines that span them
	// properly cross 3*2 = 6 times.
	var hs, vs []Segment
	for i := 0; i < 3; i++ {
		y := float64(i + 1)
		hs = append(hs, Segment{Point{0, y}, Point{10, y}})
	}
	for j := 0; j < 2; j++ {
		x := float64(j + 1)
		vs = append(vs, Segment{Point{x, 0}, Point{x, 10}})
	}
	if got := CountCrossings(hs, vs); got != 6 {
		t.Errorf("CountCrossings = %d, want 6", got)
	}
	if got := CountCrossings(hs, hs); got != 0 {
		t.Errorf("parallel self crossings = %d, want 0", got)
	}
	if got := CountCrossings(vs[:1], hs); got != 3 {
		t.Errorf("one segment's crossings = %d, want 3", got)
	}
}

func TestCountCrossingsBoxedMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	boxes := func(segs []Segment) []Rect {
		out := make([]Rect, len(segs))
		for k, s := range segs {
			out[k] = s.BBox()
		}
		return out
	}
	for i := 0; i < 500; i++ {
		a := make([]Segment, 1+rng.Intn(6))
		b := make([]Segment, 1+rng.Intn(6))
		for _, segs := range [][]Segment{a, b} {
			for k := range segs {
				segs[k] = Segment{randPt(rng), randPt(rng)}
			}
		}
		if got, want := CountCrossingsBoxed(a, boxes(a), b, boxes(b)), CountCrossings(a, b); got != want {
			t.Fatalf("CountCrossingsBoxed = %d, CountCrossings = %d for %v × %v", got, want, a, b)
		}
	}
}

func TestPointSegmentDist(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{5, 3}, 3},
		{Point{-3, 4}, 5},
		{Point{12, 0}, 2},
		{Point{7, 0}, 0},
	}
	for _, c := range cases {
		if got := PointSegmentDist(c.p, s); !almostEq(got, c.want) {
			t.Errorf("PointSegmentDist(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Degenerate segment behaves as a point.
	d := Segment{Point{1, 1}, Point{1, 1}}
	if got := PointSegmentDist(Point{4, 5}, d); !almostEq(got, 5) {
		t.Errorf("degenerate PointSegmentDist = %v, want 5", got)
	}
}

func TestBBoxOverlapPrunesConsistently(t *testing.T) {
	// Property: if two segments properly cross, their bounding boxes overlap,
	// so bbox pruning in CountCrossings never misses a crossing.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		s := Segment{randPt(rng), randPt(rng)}
		u := Segment{randPt(rng), randPt(rng)}
		if ProperCrossing(s, u) && !s.BBox().Overlaps(u.BBox()) {
			t.Fatalf("crossing segments with disjoint bboxes: %v %v", s, u)
		}
	}
}

func TestMergeCollinearChain(t *testing.T) {
	segs := []Segment{
		{Point{0, 0}, Point{1, 0}},
		{Point{1, 0}, Point{2, 0}},
		{Point{2, 0}, Point{3, 0}},
	}
	out := MergeCollinear(segs)
	if len(out) != 1 {
		t.Fatalf("merged = %d segments, want 1: %v", len(out), out)
	}
	if !almostEq(out[0].Length(), 3) {
		t.Errorf("merged length = %v, want 3", out[0].Length())
	}
}

func TestMergeCollinearRespectsBends(t *testing.T) {
	segs := []Segment{
		{Point{0, 0}, Point{1, 0}},
		{Point{1, 0}, Point{1, 1}}, // perpendicular
	}
	if out := MergeCollinear(segs); len(out) != 2 {
		t.Fatalf("bend merged: %v", out)
	}
	// Diagonal chain merges, mixed direction does not.
	segs = []Segment{
		{Point{0, 0}, Point{1, 1}},
		{Point{1, 1}, Point{2, 2}},
		{Point{2, 2}, Point{3, 1}},
	}
	out := MergeCollinear(segs)
	if len(out) != 2 {
		t.Fatalf("diagonal chain: got %d segments, want 2: %v", len(out), out)
	}
}

func TestMergeCollinearFoldBack(t *testing.T) {
	// Two collinear segments folding back over each other share an endpoint
	// but must not merge into a shorter span.
	segs := []Segment{
		{Point{0, 0}, Point{2, 0}},
		{Point{2, 0}, Point{1, 0}},
	}
	if out := MergeCollinear(segs); len(out) != 2 {
		t.Fatalf("fold-back merged: %v", out)
	}
}

func TestMergeCollinearDisjoint(t *testing.T) {
	segs := []Segment{
		{Point{0, 0}, Point{1, 0}},
		{Point{5, 5}, Point{6, 5}},
	}
	if out := MergeCollinear(segs); len(out) != 2 {
		t.Fatalf("disjoint merged: %v", out)
	}
	if out := MergeCollinear(nil); len(out) != 0 {
		t.Fatalf("empty input: %v", out)
	}
}

func TestMergeCollinearPreservesTotalLength(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		// Random monotone chain along a random direction, possibly split.
		n := 2 + rng.Intn(5)
		dx, dy := rng.Float64()+0.1, rng.Float64()-0.5
		var segs []Segment
		p := Point{rng.Float64(), rng.Float64()}
		var total float64
		for i := 0; i < n; i++ {
			step := 0.2 + rng.Float64()
			q := Point{p.X + dx*step, p.Y + dy*step}
			segs = append(segs, Segment{p, q})
			total += p.Dist(q)
			p = q
		}
		out := MergeCollinear(segs)
		if len(out) != 1 {
			t.Fatalf("trial %d: chain did not fully merge: %d", trial, len(out))
		}
		if math.Abs(out[0].Length()-total) > 1e-9 {
			t.Fatalf("trial %d: length %v, want %v", trial, out[0].Length(), total)
		}
	}
}
