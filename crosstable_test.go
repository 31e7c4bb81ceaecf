package operon_test

import (
	"math"
	"slices"
	"testing"

	operon "operon"
	"operon/internal/geom"
	"operon/internal/selection"
)

// flowNets runs the flow without WDM on the named seeded benchmark and
// returns its selection nets.
func flowNets(t *testing.T, name string) ([]selection.Net, operon.Config) {
	t.Helper()
	cfg := operon.DefaultConfig()
	return selected(t, design(t, name), cfg).Nets, cfg
}

// TestCrossTableMatchesCountCrossings checks every (i,j,m,n) entry of the
// crossing-loss table of the seeded I3 instance, bit for bit, against
// geom.CountCrossings priced by the library. The table is filled on the
// default worker pool, so `make race` runs the parallel fill under the race
// detector.
func TestCrossTableMatchesCountCrossings(t *testing.T) {
	nets, cfg := flowNets(t, "I3")
	inst, err := selection.NewInstance(nets, cfg.Lib, selection.InstanceOptions{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	entries, nonzero := 0, 0
	for i := range nets {
		for _, m := range inst.InteractingNets(i) {
			for j, c := range nets[i].Cands {
				for n, other := range nets[m].Cands {
					got := inst.CrossLossDB(i, j, m, n)
					if len(got) != len(c.Paths) {
						t.Fatalf("CrossLossDB(%d,%d,%d,%d) has %d entries for %d paths", i, j, m, n, len(got), len(c.Paths))
					}
					for p, path := range c.Paths {
						want := cfg.Lib.CrossingLossDB(geom.CountCrossings(path.Segs, other.OpticalSegs))
						if math.Float64bits(got[p]) != math.Float64bits(want) {
							t.Fatalf("CrossLossDB(%d,%d,%d,%d)[%d] = %v, oracle %v", i, j, m, n, p, got[p], want)
						}
						entries++
						if want != 0 {
							nonzero++
						}
					}
				}
			}
		}
	}
	if nonzero == 0 {
		t.Fatalf("no crossing among %d table entries: the check shows nothing", entries)
	}
	t.Logf("%d entries, %d non-zero", entries, nonzero)
}

// allPairsInteractions is the O(n²) interaction test the grid replaced:
// net m interacts with net i when one of m's optical candidate boxes
// overlaps the union of i's.
func allPairsInteractions(nets []selection.Net) [][]int {
	candBox := func(c selection.Net, j int) (geom.Rect, bool) {
		segs := c.Cands[j].OpticalSegs
		if len(segs) == 0 {
			return geom.Rect{}, false
		}
		box := segs[0].BBox()
		for _, s := range segs[1:] {
			box = box.Union(s.BBox())
		}
		return box, true
	}
	netBox := make([]geom.Rect, len(nets))
	netHas := make([]bool, len(nets))
	for i, net := range nets {
		for j := range net.Cands {
			if box, ok := candBox(net, j); ok {
				if netHas[i] {
					box = box.Union(netBox[i])
				}
				netBox[i], netHas[i] = box, true
			}
		}
	}
	out := make([][]int, len(nets))
	for i := range nets {
		out[i] = []int{}
		if !netHas[i] {
			continue
		}
		for m, net := range nets {
			if m == i {
				continue
			}
			for j := range net.Cands {
				if box, ok := candBox(net, j); ok && netBox[i].Overlaps(box) {
					out[i] = append(out[i], m)
					break
				}
			}
		}
	}
	return out
}

// TestInteractionsMatchAllPairs checks the grid-bucketed interaction lists
// against the all-pairs oracle on the seeded Table-1 designs: the same nets,
// in ascending order.
func TestInteractionsMatchAllPairs(t *testing.T) {
	names := []string{"I1", "I2", "I3", "I4", "I5"}
	if raceEnabled {
		names = names[2:3] // the interaction test is serial; I3 suffices
	}
	for _, name := range names {
		nets, cfg := flowNets(t, name)
		inst, err := selection.NewInstance(nets, cfg.Lib, selection.InstanceOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		pairs := 0
		for i, want := range allPairsInteractions(nets) {
			if got := inst.InteractingNets(i); !slices.Equal(got, want) {
				t.Fatalf("%s: InteractingNets(%d) = %v, all-pairs oracle %v", name, i, got, want)
			}
			pairs += len(want)
		}
		if pairs == 0 {
			t.Fatalf("%s: no interacting pair: the check shows nothing", name)
		}
	}
}
