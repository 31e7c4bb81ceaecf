// Package geom provides the planar-geometry primitives used throughout the
// OPERON flow: points, segments, bounding boxes, Euclidean and Manhattan
// metrics, proper-intersection counting between segment sets (the
// substrate of the crossing-loss model), and the box-overlap query that
// prunes it.
//
// All coordinates are in centimetres, matching the paper's up-scaled
// benchmark dimensions.
package geom

import (
	"fmt"
	"math"
	"slices"
)

// Eps is the tolerance used for floating-point geometric predicates.
const Eps = 1e-9

// Point is a location on the chip plane, in cm.
type Point struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.4f,%.4f)", p.X, p.Y) }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector p − q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance to q. Optical waveguides may route in
// any direction, so optical wirelength uses this metric.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// ManhattanDist returns the rectilinear distance to q. Electrical wires are
// Manhattan-routed, so electrical wirelength uses this metric.
func (p Point) ManhattanDist(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// Centroid returns the gravity centre of pts. It panics on an empty slice:
// a cluster with no members has no centre.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geom: Centroid of empty point set")
	}
	var c Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	return c.Scale(1 / float64(len(pts)))
}

// Segment is a straight connection between two points. Optical segments may
// be oblique; electrical segments produced by the rectilinear router are
// axis-aligned.
type Segment struct {
	A, B Point
}

// Length returns the Euclidean length of the segment.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// ManhattanLength returns the rectilinear length of the segment.
func (s Segment) ManhattanLength() float64 { return s.A.ManhattanDist(s.B) }

// Midpoint returns the segment midpoint.
func (s Segment) Midpoint() Point {
	return Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2}
}

// Horizontal reports whether the segment is closer to horizontal than to
// vertical (|dx| >= |dy|). WDM placement classifies optical connections by
// dominant orientation.
func (s Segment) Horizontal() bool {
	return math.Abs(s.B.X-s.A.X) >= math.Abs(s.B.Y-s.A.Y)
}

// BBox returns the axis-aligned bounding box of the segment.
func (s Segment) BBox() Rect {
	return Rect{
		Lo: Point{math.Min(s.A.X, s.B.X), math.Min(s.A.Y, s.B.Y)},
		Hi: Point{math.Max(s.A.X, s.B.X), math.Max(s.A.Y, s.B.Y)},
	}
}

// Rect is an axis-aligned rectangle with Lo at the minimum corner and Hi at
// the maximum corner. The zero Rect is the empty rectangle at the origin.
type Rect struct {
	Lo, Hi Point
}

// BBoxOf returns the bounding box of pts. It panics on an empty slice.
func BBoxOf(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BBoxOf empty point set")
	}
	r := Rect{Lo: pts[0], Hi: pts[0]}
	for _, p := range pts[1:] {
		r = r.Include(p)
	}
	return r
}

// SegmentsBBox returns the bounding box of segs, or the zero Rect when segs
// is empty.
func SegmentsBBox(segs []Segment) Rect {
	if len(segs) == 0 {
		return Rect{}
	}
	box := segs[0].BBox()
	for _, s := range segs[1:] {
		box = box.Union(s.BBox())
	}
	return box
}

// Include returns r grown to contain p.
func (r Rect) Include(p Point) Rect {
	if p.X < r.Lo.X {
		r.Lo.X = p.X
	}
	if p.Y < r.Lo.Y {
		r.Lo.Y = p.Y
	}
	if p.X > r.Hi.X {
		r.Hi.X = p.X
	}
	if p.Y > r.Hi.Y {
		r.Hi.Y = p.Y
	}
	return r
}

// Union returns the smallest rectangle containing both r and q.
func (r Rect) Union(q Rect) Rect {
	return r.Include(q.Lo).Include(q.Hi)
}

// Expand returns r grown by d on every side.
func (r Rect) Expand(d float64) Rect {
	return Rect{Point{r.Lo.X - d, r.Lo.Y - d}, Point{r.Hi.X + d, r.Hi.Y + d}}
}

// Overlaps reports whether r and q intersect (touching counts).
func (r Rect) Overlaps(q Rect) bool {
	return r.Lo.X <= q.Hi.X+Eps && q.Lo.X <= r.Hi.X+Eps &&
		r.Lo.Y <= q.Hi.Y+Eps && q.Lo.Y <= r.Hi.Y+Eps
}

// Contains reports whether p lies in r (boundary counts).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X-Eps && p.X <= r.Hi.X+Eps &&
		p.Y >= r.Lo.Y-Eps && p.Y <= r.Hi.Y+Eps
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Hi.X - r.Lo.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Hi.Y - r.Lo.Y }

// Center returns the centre point of r.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// cross returns the z-component of (b−a) × (c−a).
func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment reports whether point p, known to be collinear with s, lies on s.
func onSegment(s Segment, p Point) bool {
	return math.Min(s.A.X, s.B.X)-Eps <= p.X && p.X <= math.Max(s.A.X, s.B.X)+Eps &&
		math.Min(s.A.Y, s.B.Y)-Eps <= p.Y && p.Y <= math.Max(s.A.Y, s.B.Y)+Eps
}

// SegmentsIntersect reports whether the two segments share at least one
// point, including endpoint touches and collinear overlap.
func SegmentsIntersect(s, t Segment) bool {
	d1 := cross(t.A, t.B, s.A)
	d2 := cross(t.A, t.B, s.B)
	d3 := cross(s.A, s.B, t.A)
	d4 := cross(s.A, s.B, t.B)

	if ((d1 > Eps && d2 < -Eps) || (d1 < -Eps && d2 > Eps)) &&
		((d3 > Eps && d4 < -Eps) || (d3 < -Eps && d4 > Eps)) {
		return true
	}
	switch {
	case math.Abs(d1) <= Eps && onSegment(t, s.A):
		return true
	case math.Abs(d2) <= Eps && onSegment(t, s.B):
		return true
	case math.Abs(d3) <= Eps && onSegment(s, t.A):
		return true
	case math.Abs(d4) <= Eps && onSegment(s, t.B):
		return true
	}
	return false
}

// ProperCrossing reports whether the two segments cross at a single interior
// point of both. Endpoint touches and collinear overlaps are not proper
// crossings: two waveguides joining at a node share a junction, they do not
// cross, and only proper crossings incur the β crossing loss.
func ProperCrossing(s, t Segment) bool {
	d1 := cross(t.A, t.B, s.A)
	d2 := cross(t.A, t.B, s.B)
	d3 := cross(s.A, s.B, t.A)
	d4 := cross(s.A, s.B, t.B)
	return ((d1 > Eps && d2 < -Eps) || (d1 < -Eps && d2 > Eps)) &&
		((d3 > Eps && d4 < -Eps) || (d3 < -Eps && d4 > Eps))
}

// CountCrossings returns the number of proper crossings between the two
// segment sets. It is quadratic in the input sizes; callers prune by
// bounding box before invoking it on large sets.
func CountCrossings(a, b []Segment) int {
	n := 0
	for _, s := range a {
		sb := s.BBox()
		for _, t := range b {
			if !sb.Overlaps(t.BBox()) {
				continue
			}
			if ProperCrossing(s, t) {
				n++
			}
		}
	}
	return n
}

// CountCrossingsBoxed is CountCrossings with the segment bounding boxes
// precomputed by the caller: ab[k] must equal a[k].BBox() and bb[k]
// b[k].BBox(). It returns the same count, for callers that count the same
// segment lists against many others.
func CountCrossingsBoxed(a []Segment, ab []Rect, b []Segment, bb []Rect) int {
	n := 0
	for k, s := range a {
		for l, t := range b {
			if !ab[k].Overlaps(bb[l]) {
				continue
			}
			if ProperCrossing(s, t) {
				n++
			}
		}
	}
	return n
}

// MergeCollinear repeatedly joins segments that share an endpoint and lie
// on the same line into single segments. Routing stages may subdivide edges
// for labelling; the physical waveguide of consecutive same-direction
// optical chunks is one straight guide again after merging.
func MergeCollinear(segs []Segment) []Segment {
	out := append([]Segment(nil), segs...)
	for {
		merged := false
	outer:
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				if s, ok := joinCollinear(out[i], out[j]); ok {
					out[i] = s
					out[j] = out[len(out)-1]
					out = out[:len(out)-1]
					merged = true
					break outer
				}
			}
		}
		if !merged {
			return out
		}
	}
}

// joinCollinear merges two segments into one if they share an endpoint and
// are collinear with the union spanning both.
func joinCollinear(a, b Segment) (Segment, bool) {
	var shared, aOther, bOther Point
	switch {
	case a.A.Eq(b.A):
		shared, aOther, bOther = a.A, a.B, b.B
	case a.A.Eq(b.B):
		shared, aOther, bOther = a.A, a.B, b.A
	case a.B.Eq(b.A):
		shared, aOther, bOther = a.B, a.A, b.B
	case a.B.Eq(b.B):
		shared, aOther, bOther = a.B, a.A, b.A
	default:
		return Segment{}, false
	}
	if math.Abs(cross(aOther, shared, bOther)) > Eps {
		return Segment{}, false
	}
	// The shared point must lie between the outer ends (a real chain, not
	// two segments folded back on themselves).
	if !onSegment(Segment{A: aOther, B: bOther}, shared) {
		return Segment{}, false
	}
	return Segment{A: aOther, B: bOther}, true
}

// PointSegmentDist returns the Euclidean distance from p to segment s.
func PointSegmentDist(p Point, s Segment) float64 {
	d := s.B.Sub(s.A)
	l2 := d.X*d.X + d.Y*d.Y
	if l2 <= Eps*Eps {
		return p.Dist(s.A)
	}
	t := ((p.X-s.A.X)*d.X + (p.Y-s.A.Y)*d.Y) / l2
	t = math.Max(0, math.Min(1, t))
	return p.Dist(Point{s.A.X + t*d.X, s.A.Y + t*d.Y})
}

// OverlapLists answers, for every box, which other boxes overlap it — the
// bounding-box pruning of the crossing model. For every i with has[i] it
// lists, ascending, each j ≠ i with has[j] whose box overlaps box i
// (Rect.Overlaps) and for which keep(i, j) holds; a nil has includes every
// box and a nil keep keeps every overlap. The lists come flat: list i is
// flat[start[i]:start[i+1]], and start has len(boxes)+1 entries. The boxes
// are bucketed in a uniform grid, so only boxes sharing a cell are tested.
func OverlapLists(boxes []Rect, has []bool, keep func(i, j int) bool) (flat, start []int) {
	in := func(i int) bool { return has == nil || has[i] }
	g := newGrid(boxes, in)
	// overlaps calls fn once with every j ≠ i in the grid whose box
	// overlaps box i; a pass over i = 0, 1, … stamps a visited j with i+1.
	stamp := make([]int, len(boxes))
	overlaps := func(i int, fn func(j int)) {
		b := boxes[i]
		g.visit(b.Expand(2*Eps), func(c int) {
			for _, j := range g.ids[g.off[c]:g.off[c+1]] {
				if j != i && stamp[j] != i+1 {
					stamp[j] = i + 1
					if b.Overlaps(boxes[j]) {
						fn(j)
					}
				}
			}
		})
	}
	// A first pass counts the overlaps, which bound the lists' total
	// length, so flat is allocated once.
	total := 0
	for i := range boxes {
		if in(i) {
			overlaps(i, func(int) { total++ })
		}
	}
	clear(stamp)
	flat, start = make([]int, 0, total), make([]int, len(boxes)+1)
	for i := range boxes {
		if in(i) {
			overlaps(i, func(j int) {
				if keep == nil || keep(i, j) {
					flat = append(flat, j)
				}
			})
			slices.Sort(flat[start[i]:])
		}
		start[i+1] = len(flat)
	}
	return flat, start
}

// A grid buckets boxes by the uniform square cells they cover: cell c holds
// the ids ids[off[c]:off[c+1]], ascending.
type grid struct {
	lo       Point
	size     float64
	nx, ny   int
	off, ids []int
}

// newGrid buckets every box i with in(i) in square cells about as wide as
// the mean box half-perimeter, with at most four cells per box in all.
func newGrid(boxes []Rect, in func(int) bool) *grid {
	var span Rect
	var extent float64
	count := 0
	for i, b := range boxes {
		if in(i) {
			if count == 0 {
				span = b
			}
			span = span.Union(b)
			extent += b.Width() + b.Height()
			count++
		}
	}
	w, h := span.Width(), span.Height()
	c := float64(4 * max(count, 1))
	size := extent / float64(2*max(count, 1))
	if limit := max(math.Sqrt(w*h/c), (w+h)/c); !(size >= limit) {
		size = limit
	}
	if !(size > 0) {
		size = 1
	}
	g := &grid{lo: span.Lo, size: size, nx: int(w/size) + 1, ny: int(h/size) + 1}
	// A counting sort: count the ids of every cell, then place them from
	// the back so each cell's ids stay ascending.
	g.off = make([]int, g.nx*g.ny+1)
	for i, b := range boxes {
		if in(i) {
			g.visit(b, func(c int) { g.off[c]++ })
		}
	}
	for c := 1; c < len(g.off); c++ {
		g.off[c] += g.off[c-1]
	}
	g.ids = make([]int, g.off[len(g.off)-1])
	for i := len(boxes) - 1; i >= 0; i-- {
		if in(i) {
			g.visit(boxes[i], func(c int) {
				g.off[c]--
				g.ids[g.off[c]] = i
			})
		}
	}
	return g
}

// visit calls fn with the index of every cell r covers.
func (g *grid) visit(r Rect, fn func(c int)) {
	x0, x1 := g.cell(r.Lo.X, g.lo.X, g.nx), g.cell(r.Hi.X, g.lo.X, g.nx)
	y0, y1 := g.cell(r.Lo.Y, g.lo.Y, g.ny), g.cell(r.Hi.Y, g.lo.Y, g.ny)
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			fn(y*g.nx + x)
		}
	}
}

// cell returns the index, clamped to [0, n), of the cell holding v along an
// axis starting at lo with n cells.
func (g *grid) cell(v, lo float64, n int) int {
	return min(max(int(math.Floor((v-lo)/g.size)), 0), n-1)
}
