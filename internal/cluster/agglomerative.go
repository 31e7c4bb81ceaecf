package cluster

import (
	"cmp"
	"math"
	"slices"

	"operon/internal/geom"
)

// Agglomerate performs the bottom-up hyper-pin clustering of §3.1.2: every
// point starts as its own cluster; at each step the pair of clusters whose
// gravity centres are closest is merged, provided their centre distance is
// below threshold; merging updates the gravity centre. It returns the member
// indices of each final cluster, ordered by the smallest member index.
//
// A cluster is named by its smallest member. Among pairs at exactly the same
// distance the one with the lowest (lo, hi) names merges first, and hi is
// merged into lo. Every alive cluster keeps its nearest alive neighbour under
// threshold (nearest, then lowest name), so a step is one O(n) scan for the
// closest pair plus the refresh after the merge: a cluster whose neighbour
// was lo or hi rescans, every other one only compares against lo's new
// centre. Those merges run only where they can decide anything (see
// decompose): runs of points that can never come within threshold of one
// another merge apart, and a run already under threshold collapses at once.
//
// With a non-positive threshold no merging happens and every point is its
// own cluster.
func Agglomerate(pts []geom.Point, threshold float64) [][]int {
	n := len(pts)
	if n == 0 {
		return nil
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	if threshold > 0 && n > 1 {
		decompose(pts, threshold, parent)
	}

	// A cluster is named by its smallest member, so parent[i] <= i and, in
	// ascending order, parent[parent[i]] is already i's root; roots in
	// ascending order are the output order.
	slot := make([]int, n)
	var out [][]int
	for i := range parent {
		r := parent[parent[i]]
		parent[i] = r
		if r == i {
			slot[i] = len(out)
			out = append(out, nil)
		}
		out[slot[r]] = append(out[slot[r]], i)
	}
	return out
}

// decompose gives Agglomerate's partition of pts without computing the
// distances that cannot change it. A gravity centre is a convex combination
// of its members, so it stays inside their bounding box up to rounding, and
// Hypot(dx, dy) ≥ |dx|. So, for a run of points:
//   - Split. Sorted along x (then y), where two consecutive coordinates are
//     more than threshold+slack apart, no centre on one side ever comes
//     within threshold of one on the other: the two sides merge apart.
//   - Collapse. A run with no cut whose box diagonal is below
//     threshold−slack keeps every pair of its centres under threshold, so
//     it ends as one cluster, named by its smallest member.
//   - Merge. Any other run goes to merge with its indices ascending, which
//     keeps the (distance, lo, hi) order of its pairs.
//
// A merge moves a centre at most a few ulps of the largest magnitude (of a
// coordinate or the threshold) outside its members' box, and a cluster of m
// points is at most m−1 merges deep. slack is 2^-48 of that magnitude per
// point, 16 of its ulps or more, so it covers the drift and the rounding of
// the cut and collapse tests, and the partition is the one merge alone
// gives. A missed cut or collapse costs only time. Non-finite coordinates skip the
// decomposition.
func decompose(pts []geom.Point, threshold float64, parent []int) {
	run := make([]int, len(pts))
	for i := range run {
		run[i] = i
	}
	scale := threshold
	for _, p := range pts {
		ax, ay := math.Abs(p.X), math.Abs(p.Y)
		if !(ax <= math.MaxFloat64 && ay <= math.MaxFloat64) { // NaN or ±Inf
			merge(pts, run, threshold, parent)
			return
		}
		scale = max(scale, ax, ay)
	}
	slack := scale * float64(len(pts)) * 0x1p-48
	d := decomposer{pts: pts, parent: parent, threshold: threshold,
		cut: threshold + slack, collapse: threshold - slack}
	d.split(run, 0, 2)
}

// decomposer holds what one decompose call shares between its runs.
type decomposer struct {
	pts    []geom.Point
	parent []int
	// cut is the gap along one axis that separates two runs; collapse the
	// box diagonal under which a run is one cluster.
	threshold, cut, collapse float64
}

// coord returns pts[i]'s coordinate along axis: 0 is x, 1 is y.
func (d *decomposer) coord(i, axis int) float64 {
	if axis == 0 {
		return d.pts[i].X
	}
	return d.pts[i].Y
}

// split sorts run in place along axis and recurses on the pieces between
// its cuts, each tried along the other axis first. Without a cut it tries
// the other axis while tries last, then settles run as a leaf. A piece has
// no cut along the axis that made it, so one try settles it; every piece is
// strictly smaller than its run.
func (d *decomposer) split(run []int, axis, tries int) {
	for ; len(run) > 1 && tries > 0; tries, axis = tries-1, 1-axis {
		slices.SortFunc(run, func(a, b int) int { return cmp.Compare(d.coord(a, axis), d.coord(b, axis)) })
		start := 0
		for k := 1; k < len(run); k++ {
			if d.coord(run[k], axis)-d.coord(run[k-1], axis) > d.cut {
				d.split(run[start:k], 1-axis, 1)
				start = k
			}
		}
		if start > 0 {
			d.split(run[start:], 1-axis, 1)
			return
		}
	}
	d.leaf(run)
}

// leaf collapses run into one cluster named by its smallest member when its
// box diagonal is below threshold−slack, and otherwise merges it.
func (d *decomposer) leaf(run []int) {
	if len(run) < 2 {
		return
	}
	lo, hi, first := d.pts[run[0]], d.pts[run[0]], run[0]
	for _, i := range run[1:] {
		p := d.pts[i]
		lo.X, lo.Y = min(lo.X, p.X), min(lo.Y, p.Y)
		hi.X, hi.Y = max(hi.X, p.X), max(hi.Y, p.Y)
		first = min(first, i)
	}
	if hi.Dist(lo) < d.collapse {
		for _, i := range run {
			d.parent[i] = first
		}
		return
	}
	slices.Sort(run)
	merge(d.pts, run, d.threshold, d.parent)
}

// merge runs the closest-pair merges of Agglomerate over the points
// pts[run[0]], pts[run[1]], …, with run ascending, recording each merged
// cluster's surviving cluster in parent (by index into pts).
func merge(pts []geom.Point, run []int, threshold float64, parent []int) {
	n := len(run)
	size := make([]int, n) // members of each cluster, 0 once merged away
	centre := make([]geom.Point, n)
	nn := make([]int, n)      // nearest alive neighbour under threshold, or -1
	nnd := make([]float64, n) // its distance, or threshold
	for i, r := range run {
		size[i], centre[i] = 1, pts[r]
	}
	// rescan recomputes nn[i] over every alive cluster.
	rescan := func(i int) {
		nn[i], nnd[i] = -1, threshold
		for j := 0; j < n; j++ {
			if j != i && size[j] > 0 {
				if d := centre[i].Dist(centre[j]); d < nnd[i] {
					nn[i], nnd[i] = j, d
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		rescan(i)
	}

	for {
		// The first cluster (ascending) whose neighbour is nearest is lo:
		// had lo's nearest pair a lower index, that one would come first.
		lo, best := -1, threshold
		for i, d := range nnd {
			if d < best {
				lo, best = i, d
			}
		}
		if lo < 0 {
			return
		}
		hi := nn[lo]
		// Merge hi into lo with the gravity-centre update.
		tot := size[lo] + size[hi]
		centre[lo] = centre[lo].Scale(float64(size[lo]) / float64(tot)).
			Add(centre[hi].Scale(float64(size[hi]) / float64(tot)))
		size[lo] = tot
		size[hi], nn[hi], nnd[hi] = 0, -1, threshold
		parent[run[hi]] = run[lo]

		// Refresh the neighbours: lo's from scratch, a cluster that pointed
		// at lo or hi by a rescan, every other one against lo's new centre.
		nn[lo], nnd[lo] = -1, threshold
		for c := 0; c < n; c++ {
			if c == lo || size[c] == 0 {
				continue
			}
			d := centre[lo].Dist(centre[c])
			if d < nnd[lo] {
				nn[lo], nnd[lo] = c, d
			}
			switch {
			case nn[c] == lo || nn[c] == hi:
				rescan(c)
			case d < nnd[c] || d == nnd[c] && lo < nn[c]:
				nn[c], nnd[c] = lo, d
			}
		}
	}
}

// Centres returns the gravity centre of each cluster (as produced by
// Agglomerate or KMeans) over the original points.
func Centres(pts []geom.Point, clusters [][]int) []geom.Point {
	out := make([]geom.Point, len(clusters))
	for i, c := range clusters {
		members := make([]geom.Point, len(c))
		for j, idx := range c {
			members[j] = pts[idx]
		}
		out[i] = geom.Centroid(members)
	}
	return out
}
