package cluster

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"operon/internal/geom"
)

func randPoints(n int, seed int64, spread float64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * spread, Y: rng.Float64() * spread}
	}
	return pts
}

func TestKMeansRejectsBadCapacity(t *testing.T) {
	if _, err := KMeans(randPoints(4, 1, 1), KMeansConfig{Capacity: 0}); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := KMeans(randPoints(4, 1, 1), KMeansConfig{Capacity: -3}); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestKMeansEmpty(t *testing.T) {
	got, err := KMeans(nil, KMeansConfig{Capacity: 4})
	if err != nil || got != nil {
		t.Fatalf("empty input: got %v, %v", got, err)
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	pts := randPoints(5, 2, 1)
	clusters, err := KMeans(pts, KMeansConfig{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 || len(clusters[0]) != 5 {
		t.Fatalf("want one cluster of 5, got %v", clusters)
	}
}

// checkPartition verifies that clusters form an exact partition of 0..n-1.
func checkPartition(t *testing.T, clusters [][]int, n int) {
	t.Helper()
	seen := make([]bool, n)
	total := 0
	for _, c := range clusters {
		if len(c) == 0 {
			t.Fatal("empty cluster not removed")
		}
		for _, i := range c {
			if i < 0 || i >= n {
				t.Fatalf("index %d out of range", i)
			}
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
			total++
		}
	}
	if total != n {
		t.Fatalf("partition covers %d of %d points", total, n)
	}
}

func TestKMeansCapacityInvariant(t *testing.T) {
	for _, n := range []int{1, 7, 31, 32, 33, 100, 257} {
		for _, capac := range []int{1, 3, 32} {
			pts := randPoints(n, int64(n*100+capac), 10)
			clusters, err := KMeans(pts, KMeansConfig{Capacity: capac, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			checkPartition(t, clusters, n)
			for _, c := range clusters {
				if len(c) > capac {
					t.Fatalf("n=%d cap=%d: cluster size %d exceeds capacity", n, capac, len(c))
				}
			}
		}
	}
}

func TestKMeansCapacityProperty(t *testing.T) {
	f := func(nn uint8, cc uint8, seed int64) bool {
		n := int(nn)%120 + 1
		capac := int(cc)%40 + 1
		pts := randPoints(n, seed, 5)
		clusters, err := KMeans(pts, KMeansConfig{Capacity: capac, Seed: seed})
		if err != nil {
			return false
		}
		count := 0
		for _, c := range clusters {
			if len(c) > capac || len(c) == 0 {
				return false
			}
			count += len(c)
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKMeansSeparatesDistantBlobs(t *testing.T) {
	// Two tight blobs far apart, 8 points each, capacity 8: the two
	// clusters should coincide with the blobs.
	var pts []geom.Point
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		pts = append(pts, geom.Point{X: rng.Float64() * 0.1, Y: rng.Float64() * 0.1})
	}
	for i := 0; i < 8; i++ {
		pts = append(pts, geom.Point{X: 50 + rng.Float64()*0.1, Y: 50 + rng.Float64()*0.1})
	}
	clusters, err := KMeans(pts, KMeansConfig{Capacity: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("want 2 clusters, got %d", len(clusters))
	}
	for _, c := range clusters {
		low, high := 0, 0
		for _, i := range c {
			if i < 8 {
				low++
			} else {
				high++
			}
		}
		if low != 0 && high != 0 {
			t.Fatalf("cluster mixes blobs: %v", c)
		}
	}
}

func TestKMeansCoincidentPoints(t *testing.T) {
	// All points identical: clustering must still satisfy capacity.
	pts := make([]geom.Point, 10)
	clusters, err := KMeans(pts, KMeansConfig{Capacity: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, clusters, 10)
	for _, c := range clusters {
		if len(c) > 3 {
			t.Fatalf("coincident points: cluster size %d > 3", len(c))
		}
	}
}

func TestKMeansDeterministic(t *testing.T) {
	pts := randPoints(64, 11, 10)
	a, _ := KMeans(pts, KMeansConfig{Capacity: 10, Seed: 5})
	b, _ := KMeans(pts, KMeansConfig{Capacity: 10, Seed: 5})
	if len(a) != len(b) {
		t.Fatalf("nondeterministic cluster count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("nondeterministic cluster %d", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("nondeterministic member a[%d][%d]", i, j)
			}
		}
	}
}

func TestAgglomerateEmptyAndSingle(t *testing.T) {
	if got := Agglomerate(nil, 1); got != nil {
		t.Errorf("empty: %v", got)
	}
	got := Agglomerate([]geom.Point{{X: 1, Y: 1}}, 1)
	if len(got) != 1 || len(got[0]) != 1 {
		t.Errorf("single: %v", got)
	}
}

func TestAgglomerateZeroThreshold(t *testing.T) {
	pts := randPoints(10, 5, 1)
	got := Agglomerate(pts, 0)
	if len(got) != 10 {
		t.Fatalf("threshold 0: want 10 singleton clusters, got %d", len(got))
	}
}

func TestAgglomerateMergesNeighbours(t *testing.T) {
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 0.1, Y: 0}, {X: 0.05, Y: 0.1}, // blob A
		{X: 10, Y: 10}, {X: 10.1, Y: 10}, // blob B
		{X: -20, Y: 5}, // isolated
	}
	got := Agglomerate(pts, 1.0)
	if len(got) != 3 {
		t.Fatalf("want 3 clusters, got %d: %v", len(got), got)
	}
	sizes := map[int]int{}
	for _, c := range got {
		sizes[len(c)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 1 {
		t.Fatalf("cluster sizes wrong: %v", got)
	}
}

func TestAgglomeratePartitionProperty(t *testing.T) {
	f := func(nn uint8, th float64, seed int64) bool {
		n := int(nn)%60 + 1
		threshold := math.Abs(math.Mod(th, 5))
		pts := randPoints(n, seed, 10)
		clusters := Agglomerate(pts, threshold)
		seen := make([]bool, n)
		count := 0
		for _, c := range clusters {
			for _, i := range c {
				if seen[i] {
					return false
				}
				seen[i] = true
				count++
			}
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestAgglomerateChainStops(t *testing.T) {
	// Twelve points exactly 0.875 apart (a binary fraction, so every
	// adjacent gap is the same float) with threshold 1: all eleven adjacent
	// pairs tie. The lowest pair (0, 1) merges first; its centre then sits
	// 1.3125 from point 2, so (2, 3) merges next, and so on. Every merged
	// centre is 1.75 from its neighbours, and the chain stops at six pairs.
	var pts []geom.Point
	for i := 0; i < 12; i++ {
		pts = append(pts, geom.Point{X: float64(i) * 0.875, Y: 0})
	}
	want := [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}}
	if got := Agglomerate(pts, 1.0); !reflect.DeepEqual(got, want) {
		t.Fatalf("chain: got %v, want %v", got, want)
	}
}

func TestAgglomerateDuplicatePoints(t *testing.T) {
	a, b := geom.Point{X: 0.5, Y: 0.5}, geom.Point{X: 5, Y: 5}
	pts := []geom.Point{a, b, a, b, a}
	want := [][]int{{0, 2, 4}, {1, 3}}
	if got := Agglomerate(pts, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("duplicates: got %v, want %v", got, want)
	}
	// All points coincide: one cluster at any positive threshold, none
	// merged at threshold 0 (the distance 0 is not below it).
	same := make([]geom.Point, 9)
	if got := Agglomerate(same, 1e-12); len(got) != 1 || len(got[0]) != 9 {
		t.Fatalf("coincident points: got %v", got)
	}
	if got := Agglomerate(same, 0); len(got) != 9 {
		t.Fatalf("coincident points at threshold 0: got %v", got)
	}
}

func TestAgglomerateCollinearPoints(t *testing.T) {
	// Points on the diagonal y = x, so every distance goes through Hypot.
	// (2, 3) is the closest pair (0.125·√2), then (0, 1) (0.25·√2); the
	// merged centres 0.125 and 1.0625 are 0.9375·√2 apart, and point 4 is
	// far from both.
	var pts []geom.Point
	for _, x := range []float64{0, 0.25, 1, 1.125, 3} {
		pts = append(pts, geom.Point{X: x, Y: x})
	}
	want := [][]int{{0, 1}, {2, 3}, {4}}
	if got := Agglomerate(pts, 0.5); !reflect.DeepEqual(got, want) {
		t.Fatalf("collinear: got %v, want %v", got, want)
	}
	checkAgainstBrute(t, pts, 0.5)
	checkAgainstBrute(t, pts, 2)
}

// agglomerateBrute is the definition Agglomerate implements: each step
// scans every alive pair for the minimum (distance, lo, hi) under threshold
// and merges hi into lo with the same gravity-centre expression.
func agglomerateBrute(pts []geom.Point, threshold float64) [][]int {
	n := len(pts)
	if n == 0 {
		return nil
	}
	root := make([]int, n)
	size := make([]int, n)
	centre := append([]geom.Point(nil), pts...)
	for i := range root {
		root[i], size[i] = i, 1
	}
	for {
		lo, hi, best := -1, -1, threshold
		for i := 0; i < n; i++ {
			for j := i + 1; j < n && root[i] == i; j++ {
				if root[j] == j {
					if d := centre[i].Dist(centre[j]); d < best {
						lo, hi, best = i, j, d
					}
				}
			}
		}
		if lo < 0 {
			break
		}
		tot := size[lo] + size[hi]
		centre[lo] = centre[lo].Scale(float64(size[lo]) / float64(tot)).
			Add(centre[hi].Scale(float64(size[hi]) / float64(tot)))
		size[lo] = tot
		for i := range root {
			if root[i] == hi {
				root[i] = lo
			}
		}
	}
	var out [][]int
	slot := map[int]int{}
	for i, r := range root {
		if _, ok := slot[r]; !ok {
			slot[r] = len(out)
			out = append(out, nil)
		}
		out[slot[r]] = append(out[slot[r]], i)
	}
	return out
}

func checkAgainstBrute(t *testing.T, pts []geom.Point, threshold float64) {
	t.Helper()
	got, want := Agglomerate(pts, threshold), agglomerateBrute(pts, threshold)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("threshold %v, points %v:\n got  %v\n want %v", threshold, pts, got, want)
	}
}

// gridPoints draws n points on a coarse grid, so duplicate points and
// distance ties are common.
func gridPoints(n int, rng *rand.Rand) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(rng.Intn(6)) * 0.25, Y: float64(rng.Intn(6)) * 0.25}
	}
	return pts
}

func TestAgglomerateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(50)
		threshold := []float64{-1, 0, 0.2, 0.25, 0.5, 1, 3}[trial%7]
		pts := gridPoints(n, rng)
		if trial%2 == 1 {
			pts = randPoints(n, rng.Int63(), 2)
		}
		checkAgainstBrute(t, pts, threshold)
	}
	for trial := 0; trial < 3000; trial++ {
		pts, threshold := blobPoints(rng)
		checkAgainstBrute(t, pts, threshold)
	}
}

// blobPoints draws the benchgen shape at the threshold's edge: blobs around
// region centres, each a box corner plus copies of it, its opposite corner
// (when the blob has spread) and points spread inside the box. Each box
// diagonal and each gap to the next blob, along x or y, is exactly the
// threshold, one ulp either side of it, about the decomposition's slack
// either side of it, or clear of it. Copies merge first and their centres
// drift by rounding, which is what the slack covers.
func blobPoints(rng *rand.Rand) ([]geom.Point, float64) {
	threshold := []float64{0.1, 0.25}[rng.Intn(2)]
	edge := func() float64 {
		switch rng.Intn(7) {
		case 0:
			return threshold
		case 1, 2:
			// The slack is 2^-48 of the largest magnitude per point.
			slack := float64(int(1)<<(1+2*rng.Intn(4))) * 0x1p-48
			return threshold + slack*float64(2*rng.Intn(2)-1)
		case 3:
			return threshold * rng.Float64()
		default:
			return threshold * (1 + rng.Float64())
		}
	}
	// across returns the float b near a+d whose difference b-a is nearest
	// d, moved by an ulp one way or the other in one case of three.
	across := func(a, d float64) float64 {
		b := a + d
		for _, c := range []float64{math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1))} {
			if math.Abs((c-a)-d) < math.Abs((b-a)-d) {
				b = c
			}
		}
		switch rng.Intn(6) {
		case 0:
			b = math.Nextafter(b, math.Inf(-1))
		case 1:
			b = math.Nextafter(b, math.Inf(1))
		}
		return b
	}
	// Region centres from the die's corner (exact gaps) to a couple of cm in.
	at := geom.Point{X: []float64{0, 0.01, 1.5}[rng.Intn(3)] * rng.Float64(), Y: 2 * rng.Float64()}
	var pts []geom.Point
	for blobs := 1 + rng.Intn(4); blobs > 0; blobs-- {
		lo, hi := at, at
		if rng.Intn(3) > 0 {
			if d := edge(); rng.Intn(2) == 0 {
				hi.X = across(lo.X, d)
			} else {
				hi.X, hi.Y = across(lo.X, 0.6*d), across(lo.Y, 0.8*d)
			}
		}
		for copies := 1 + rng.Intn(4); copies > 0; copies-- {
			pts = append(pts, lo)
		}
		if hi != lo {
			pts = append(pts, hi)
			for inside := rng.Intn(4); inside > 0; inside-- {
				pts = append(pts, geom.Point{X: lo.X + (hi.X-lo.X)*rng.Float64(), Y: lo.Y + (hi.Y-lo.Y)*rng.Float64()})
			}
		}
		// The next blob starts a gap away along x or y, level with this
		// one's far corner.
		at = hi
		if rng.Intn(2) == 0 {
			at.X = across(hi.X, edge())
		} else {
			at.Y = across(hi.Y, edge())
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts, threshold
}

// TestAgglomerateMatchesLazyRef compares Agglomerate with the lazy pair heap
// it replaced on random float points, where exact distance ties (which the
// heap broke by its layout) have probability zero.
func TestAgglomerateMatchesLazyRef(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	thresholds := []float64{0.02, 0.05, 0.1, 0.2, 0.5}
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(120)
		threshold := thresholds[trial%len(thresholds)]
		pts := randPoints(n, rng.Int63(), 1)
		got, want := Agglomerate(pts, threshold), agglomerateLazyRef(pts, threshold)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, threshold %v):\n got  %v\n want %v", trial, n, threshold, got, want)
		}
	}
}

// decodePoints turns bytes into a threshold and at most 64 points. A payload
// of at most 65 bytes is a grid: the first byte gives the threshold in steps
// of 1/32 from -4 (so zero and negative thresholds occur), each further byte
// one point on a 16×16 grid of pitch 0.25, where duplicates and distance ties
// are common. A longer payload is raw: the first byte gives the number of
// points, then little-endian float64 words give the threshold and the x and
// y of each point, so exact boundaries, one-ulp steps, NaN and ±Inf occur.
func decodePoints(data []byte) ([]geom.Point, float64) {
	if len(data) == 0 {
		return nil, 0
	}
	if len(data) > 65 {
		words := make([]float64, (len(data)-1)/8)
		for i := range words {
			words[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[1+8*i:]))
		}
		pts := make([]geom.Point, min(int(data[0]), (len(words)-1)/2, 64))
		for i := range pts {
			pts[i] = geom.Point{X: words[1+2*i], Y: words[2+2*i]}
		}
		return pts, words[0]
	}
	threshold := float64(int8(data[0])) / 32
	data = data[1:]
	pts := make([]geom.Point, len(data))
	for i, b := range data {
		pts[i] = geom.Point{X: float64(b&15) * 0.25, Y: float64(b>>4) * 0.25}
	}
	return pts, threshold
}

// FuzzAgglomerate checks Agglomerate against agglomerateBrute on the inputs
// decodePoints builds. `go test` runs the seed corpus in
// testdata/fuzz/FuzzAgglomerate; `go test -fuzz FuzzAgglomerate` explores.
func FuzzAgglomerate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, threshold := decodePoints(data)
		checkAgainstBrute(t, pts, threshold)
	})
}

// agglomerateLazyRef is the lazy pair heap Agglomerate replaced: every
// centre pair is heapified up front, a popped pair whose centres have since
// moved apart by more than geom.Eps is re-queued at its current distance,
// and each merge pushes the merged centre's pairs under threshold. It
// differs from Agglomerate only on exact distance ties (broken by heap
// layout) and on stale pairs within geom.Eps of their key (merged at once).
func agglomerateLazyRef(pts []geom.Point, threshold float64) [][]int {
	n := len(pts)
	if n == 0 {
		return nil
	}
	parent := make([]int, n)
	size := make([]int, n)
	centre := append([]geom.Point(nil), pts...)
	alive := make([]bool, n)
	for i := range parent {
		parent[i], size[i], alive[i] = i, 1, true
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	if threshold > 0 && n > 1 {
		var pq pairQueue
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pq = append(pq, pair{a: i, b: j, d: centre[i].Dist(centre[j])})
			}
		}
		for i := len(pq)/2 - 1; i >= 0; i-- {
			pq.down(i, len(pq))
		}
		for len(pq) > 0 {
			pr := pq.pop()
			a, b := find(pr.a), find(pr.b)
			if a == b || !alive[a] || !alive[b] {
				continue
			}
			d := centre[a].Dist(centre[b])
			if d > pr.d+geom.Eps {
				if d < threshold {
					pq.push(pair{a: a, b: b, d: d})
				}
				continue
			}
			if d >= threshold {
				continue
			}
			tot := size[a] + size[b]
			centre[a] = centre[a].Scale(float64(size[a]) / float64(tot)).
				Add(centre[b].Scale(float64(size[b]) / float64(tot)))
			size[a] = tot
			parent[b] = a
			alive[b] = false
			for c := 0; c < n; c++ {
				if c != a && alive[c] {
					if d := centre[a].Dist(centre[c]); d < threshold {
						pq.push(pair{a: a, b: c, d: d})
					}
				}
			}
		}
	}
	groups := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

type pair struct {
	a, b int
	d    float64
}

// pairQueue is a binary min-heap on centre distance with container/heap's
// sift algorithms, so its pop order is that of the heap it reproduces.
type pairQueue []pair

func (q *pairQueue) push(p pair) {
	*q = append(*q, p)
	q.up(len(*q) - 1)
}

func (q *pairQueue) pop() pair {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	q.down(0, n)
	it := h[n]
	*q = h[:n]
	return it
}

func (q pairQueue) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || !(q[j].d < q[i].d) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (q pairQueue) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && q[j2].d < q[j1].d {
			j = j2
		}
		if !(q[j].d < q[i].d) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}

func TestCentres(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}, {X: 10, Y: 10}}
	clusters := [][]int{{0, 1}, {2}}
	cs := Centres(pts, clusters)
	if !cs[0].Eq(geom.Point{X: 1, Y: 0}) || !cs[1].Eq(geom.Point{X: 10, Y: 10}) {
		t.Fatalf("Centres = %v", cs)
	}
}
