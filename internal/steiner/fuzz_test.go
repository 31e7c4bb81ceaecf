package steiner

import (
	"reflect"
	"testing"

	"operon/internal/geom"
)

// decodeTerminals turns fuzz bytes into 1–12 terminals on an 8×8 grid of
// pitch 0.5, so duplicate and collinear points are common, and a metric.
// It returns the bytes it did not use. Missing bytes read as zero.
func decodeTerminals(data []byte) ([]geom.Point, Metric, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	shape := next()
	metric := Rectilinear
	if shape&0x80 != 0 {
		metric = Euclidean
	}
	pts := make([]geom.Point, 1+int(shape%12))
	for i := range pts {
		b := next()
		pts[i] = geom.Point{X: float64(b%8) * 0.5, Y: float64(b/8%8) * 0.5}
	}
	return pts, metric, data
}

// FuzzBI1S checks BI1S and Baselines on small grid terminal sets in both
// metrics: every tree is valid, keeps the terminals as nodes 0..k−1 in
// order, has no Steiner node of degree below 3, and BI1S is no longer than
// the MST. A workspace that just built a different set's trees must give
// results deeply equal to a fresh workspace's. `go test` runs the seed
// corpus in testdata/fuzz/FuzzBI1S; `go test -fuzz FuzzBI1S` explores.
func FuzzBI1S(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, metric, rest := decodeTerminals(data)
		other, otherMetric, _ := decodeTerminals(rest)

		tr := BI1S(pts, metric, nil)
		checkFuzzTree(t, "BI1S", tr, pts)
		if mst := mstLength(pts, metric); tr.Length() > mst+1e-9 {
			t.Fatalf("BI1S %v longer than MST %v", tr.Length(), mst)
		}
		fresh := Baselines(pts, metric, 3, nil)
		for i, b := range fresh {
			checkFuzzTree(t, "baseline", b, pts)
			if i == 0 && !reflect.DeepEqual(b, tr) {
				t.Fatalf("first baseline %+v is not BI1S %+v", b, tr)
			}
		}

		ws := NewWorkspace()
		Baselines(other, otherMetric, 3, ws)
		if got := BI1S(pts, metric, ws); !reflect.DeepEqual(got, tr) {
			t.Fatalf("BI1S on a used workspace %+v, fresh %+v", got, tr)
		}
		BI1S(other, otherMetric, ws)
		if got := Baselines(pts, metric, 3, ws); !reflect.DeepEqual(got, fresh) {
			t.Fatalf("Baselines on a used workspace %+v, fresh %+v", got, fresh)
		}
	})
}

// checkFuzzTree fails unless tr is a valid tree whose first len(pts) nodes
// are the terminals in order and whose Steiner nodes all have degree ≥ 3.
func checkFuzzTree(t *testing.T, what string, tr Tree, pts []geom.Point) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s over %v: %v", what, pts, err)
	}
	if len(tr.Nodes) < len(pts) {
		t.Fatalf("%s has %d nodes for %d terminals", what, len(tr.Nodes), len(pts))
	}
	adj := tr.Adjacency()
	for i, nd := range tr.Nodes {
		if i < len(pts) {
			if nd.Terminal != i || nd.Pt != pts[i] {
				t.Fatalf("%s node %d is %+v, want terminal %d at %v", what, i, nd, i, pts[i])
			}
		} else if !nd.IsSteiner() || len(adj[i]) < 3 {
			t.Fatalf("%s node %d is %+v with degree %d, want a Steiner node of degree >= 3",
				what, i, nd, len(adj[i]))
		}
	}
}
