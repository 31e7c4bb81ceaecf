package geom

import (
	"slices"
	"testing"
)

// decodeBoxes turns fuzz bytes into boxes, five bytes a box: the lower
// corner on a lattice of 0.25 cm, the width and height (zero included), and
// a flag byte. Bit 0 of the flags excludes the box; bits 1–2 and 3–4 nudge
// it along x and y by 0, 0.5, 1.5 or 3 Eps, and bit 5 negates the nudge, so
// lattice-aligned boxes touch, overlap within Eps, or just miss. has is nil
// when no box is excluded.
func decodeBoxes(data []byte) (boxes []Rect, has []bool) {
	nudges := [4]float64{0, 0.5 * Eps, 1.5 * Eps, 3 * Eps}
	excluded := false
	for k := 0; k+5 <= len(data) && len(boxes) < 64; k += 5 {
		b := data[k : k+5]
		flags := b[4]
		dx, dy := nudges[flags>>1&3], nudges[flags>>3&3]
		if flags&32 != 0 {
			dx, dy = -dx, -dy
		}
		lo := Point{float64(int8(b[0]))/4 + dx, float64(int8(b[1]))/4 + dy}
		hi := Point{lo.X + float64(b[2]%16)/4, lo.Y + float64(b[3]%16)/4}
		boxes = append(boxes, Rect{Lo: lo, Hi: hi})
		has = append(has, flags&1 == 0)
		excluded = excluded || flags&1 != 0
	}
	if !excluded {
		has = nil
	}
	return boxes, has
}

// FuzzOverlapLists checks the grid query against a brute-force double loop
// over every pair of boxes, with and without a keep predicate.
func FuzzOverlapLists(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		boxes, has := decodeBoxes(data)
		in := func(i int) bool { return has == nil || has[i] }
		var keep func(i, j int) bool
		if len(data)%2 == 1 {
			keep = func(i, j int) bool { return (i+2*j)%3 != 0 }
		}
		flat, start := OverlapLists(boxes, has, keep)
		if len(start) != len(boxes)+1 || start[0] != 0 || start[len(boxes)] != len(flat) {
			t.Fatalf("start = %v for %d boxes and %d ids", start, len(boxes), len(flat))
		}
		for i := range boxes {
			var want []int
			for j := range boxes {
				if i != j && in(i) && in(j) && boxes[i].Overlaps(boxes[j]) && (keep == nil || keep(i, j)) {
					want = append(want, j)
				}
			}
			if got := flat[start[i]:start[i+1]]; !slices.Equal(got, want) {
				t.Fatalf("box %d %v: OverlapLists %v, brute force %v (boxes %v, has %v)", i, boxes[i], got, want, boxes, has)
			}
		}
	})
}

func TestSegmentsBBox(t *testing.T) {
	if got := SegmentsBBox(nil); got != (Rect{}) {
		t.Errorf("SegmentsBBox(nil) = %v, want the zero Rect", got)
	}
	segs := []Segment{{Point{1, 2}, Point{0, 5}}, {Point{3, -1}, Point{2, 2}}}
	want := Rect{Lo: Point{0, -1}, Hi: Point{3, 5}}
	if got := SegmentsBBox(segs); got != want {
		t.Errorf("SegmentsBBox = %v, want %v", got, want)
	}
}
