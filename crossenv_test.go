package operon

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"operon/internal/benchgen"
	"operon/internal/geom"
	"operon/internal/signal"
	"operon/internal/steiner"
)

// allPairsEnvs is the O(n²) scan the shared box-overlap query replaced:
// for every net, the primary-baseline segments of the other nets whose
// bounding boxes overlap its own, and the ascending list of those nets.
func allPairsEnvs(hnets []signal.HyperNet, trees [][]steiner.Tree) ([][]geom.Segment, [][]int) {
	type netGeom struct {
		segs []geom.Segment
		box  geom.Rect
	}
	geoms := make([]netGeom, len(hnets))
	for i := range hnets {
		segs := trees[i][0].Segments()
		g := netGeom{segs: segs}
		if len(segs) > 0 {
			g.box = segs[0].BBox()
			for _, s := range segs[1:] {
				g.box = g.box.Union(s.BBox())
			}
		}
		geoms[i] = g
	}
	envs := make([][]geom.Segment, len(hnets))
	contribs := make([][]int, len(hnets))
	for i := range hnets {
		for j := range hnets {
			if i == j || len(geoms[j].segs) == 0 || len(geoms[i].segs) == 0 {
				continue
			}
			if geoms[i].box.Overlaps(geoms[j].box) {
				envs[i] = append(envs[i], geoms[j].segs...)
				contribs[i] = append(contribs[i], j)
			}
		}
	}
	return envs, contribs
}

// TestEnvContribsMatchAllPairs checks the contributor lists and the
// environments built from them against the all-pairs oracle on the seeded
// Table-1 designs: the same nets in ascending order, and the same segments
// in the same order.
func TestEnvContribsMatchAllPairs(t *testing.T) {
	cfg := DefaultConfig()
	for _, name := range []string{"I1", "I2", "I3", "I4", "I5"} {
		spec, err := benchgen.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := benchgen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, hnets, err := process(d, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		trees := make([][]steiner.Tree, len(hnets))
		if err := baselineTrees(context.Background(), hnets, trees, cfg, nil); err != nil {
			t.Fatal(err)
		}
		envs := newCrossEnvs(trees)
		wantEnvs, wantContribs := allPairsEnvs(hnets, trees)
		pairs := 0
		var buf []geom.Segment
		for i, want := range wantContribs {
			if got := envs.contribs[i]; !slices.Equal(got, want) {
				t.Fatalf("%s: contributors of net %d = %v, all-pairs oracle %v", name, i, got, want)
			}
			buf = envs.env(i, buf)
			if len(buf) != len(wantEnvs[i]) || (len(buf) > 0 && !reflect.DeepEqual(buf, wantEnvs[i])) {
				t.Fatalf("%s: environment of net %d has %d segments, all-pairs oracle %d (or they differ)", name, i, len(buf), len(wantEnvs[i]))
			}
			pairs += len(want)
		}
		if pairs == 0 {
			t.Fatalf("%s: no contributor: the check shows nothing", name)
		}
	}
}
