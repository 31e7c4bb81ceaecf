package steiner

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"operon/internal/geom"
)

// TestIncrementalMSTMatchesFull checks the Kruskal-over-star trial against
// the full Prim recompute it replaced: for random point sets and random
// candidate points, lengthWith must agree with mstLength to float tolerance
// in both metrics, and accept must keep base consistent.
func TestIncrementalMSTMatchesFull(t *testing.T) {
	for _, metric := range []Metric{Rectilinear, Euclidean} {
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 3 + rng.Intn(15)
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}
			}
			ws := NewWorkspace()
			inc := &ws.inc
			inc.init(pts, metric, ws)
			if full := mstLength(pts, metric); math.Abs(inc.base-full) > 1e-9 {
				t.Fatalf("%v seed %d: base %v vs full %v", metric, seed, inc.base, full)
			}
			for trial := 0; trial < 25; trial++ {
				c := geom.Point{X: rng.Float64() * 4, Y: rng.Float64() * 4}
				got := inc.lengthWith(c)
				want := mstLength(append(append([]geom.Point(nil), inc.pts...), c), metric)
				if math.Abs(got-want) > 1e-9 {
					t.Fatalf("%v seed %d trial %d: incremental %v vs full %v",
						metric, seed, trial, got, want)
				}
				// Occasionally commit the point so later trials exercise a
				// tree containing accepted Steiner points.
				if trial%7 == 3 {
					inc.accept(c)
					if math.Abs(inc.base-want) > 1e-9 {
						t.Fatalf("%v seed %d: accept base %v vs %v", metric, seed, inc.base, want)
					}
				}
			}
		}
	}
}

// TestBI1SMatchesReference cross-checks the incremental BI1S against a
// reference implementation that re-scores every candidate with a full MST
// recompute, on a handful of random instances.
func TestBI1SMatchesReference(t *testing.T) {
	for _, metric := range []Metric{Rectilinear, Euclidean} {
		for seed := int64(1); seed <= 6; seed++ {
			pts := randTerminals(8, seed)
			got := BI1S(pts, metric, nil)
			want := referenceBI1S(pts, metric)
			if math.Abs(got.Length()-want) > 1e-6 {
				t.Errorf("%v seed %d: BI1S %v vs reference %v", metric, seed, got.Length(), want)
			}
		}
	}
}

// referenceBI1S is the pre-incremental algorithm: full mstLength recompute
// per candidate, no bending cost.
func referenceBI1S(terminals []geom.Point, metric Metric) float64 {
	pts := append([]geom.Point(nil), terminals...)
	base := mstLength(pts, metric)
	for round := 0; round < 8; round++ {
		cands := NewWorkspace().hananGrid(pts)
		if metric == Euclidean {
			cands = appendFermatPoints(cands, pts)
		}
		type scored struct {
			p    geom.Point
			gain float64
		}
		var pool []scored
		for _, c := range cands {
			if g := base - mstLength(append(pts, c), metric); g > geom.Eps {
				pool = append(pool, scored{p: c, gain: g})
			}
		}
		if len(pool) == 0 {
			break
		}
		sort.Slice(pool, func(i, j int) bool {
			if pool[i].gain != pool[j].gain {
				return pool[i].gain > pool[j].gain
			}
			pi, pj := pool[i].p, pool[j].p
			if pi.X != pj.X {
				return pi.X < pj.X
			}
			return pi.Y < pj.Y
		})
		accepted := 0
		for _, s := range pool {
			if g := base - mstLength(append(pts, s.p), metric); g > geom.Eps {
				pts = append(pts, s.p)
				base -= g
				accepted++
			}
		}
		if accepted == 0 {
			break
		}
	}
	ws := NewWorkspace()
	return ws.cleanup(ws.treeOver(pts, terminals, metric)).Length()
}

// mstLength computes the MST length over a point set with its own Prim loop,
// independent of the workspace's: it is the oracle the incremental MST and
// BI1S are checked against.
func mstLength(pts []geom.Point, metric Metric) float64 {
	n := len(pts)
	if n <= 1 {
		return 0
	}
	inTree := make([]bool, n)
	bestDist := make([]float64, n)
	inTree[0] = true
	for i := 1; i < n; i++ {
		bestDist[i] = metric.Dist(pts[0], pts[i])
	}
	var total float64
	for added := 1; added < n; added++ {
		u, best := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !inTree[i] && bestDist[i] < best {
				u, best = i, bestDist[i]
			}
		}
		inTree[u] = true
		total += best
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := metric.Dist(pts[u], pts[i]); d < bestDist[i] {
					bestDist[i] = d
				}
			}
		}
	}
	return total
}
