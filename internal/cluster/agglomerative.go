package cluster

import "operon/internal/geom"

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
// centre.
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
		merge(pts, threshold, parent)
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

// merge runs the closest-pair merges of Agglomerate, recording each merged
// cluster's surviving cluster in parent.
func merge(pts []geom.Point, threshold float64, parent []int) {
	n := len(pts)
	size := make([]int, n) // members of each cluster, 0 once merged away
	centre := append([]geom.Point(nil), pts...)
	nn := make([]int, n)      // nearest alive neighbour under threshold, or -1
	nnd := make([]float64, n) // its distance, or threshold
	for i := range size {
		size[i] = 1
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
		parent[hi] = lo

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
