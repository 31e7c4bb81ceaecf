package operon

import (
	"math"
	"testing"

	"operon/internal/codesign"
	"operon/internal/geom"
	"operon/internal/optics"
	"operon/internal/steiner"
)

func mkCand(power, loss float64) codesign.Candidate {
	return codesign.Candidate{PowerMW: power, MaxFixedLossDB: loss}
}

func TestThinCandidatesKeepsAllWhenSmall(t *testing.T) {
	cands := []codesign.Candidate{mkCand(1, 5), mkCand(2, 3)}
	if got := thinCandidates(cands, 4); len(got) != 2 {
		t.Fatalf("thinned to %d, want 2", len(got))
	}
	if got := thinCandidates(cands, 0); len(got) != 2 {
		t.Fatalf("max 0 should keep all, got %d", len(got))
	}
}

func TestThinCandidatesDropsDominated(t *testing.T) {
	for _, tc := range []struct {
		cands   []codesign.Candidate
		max     int
		dropped codesign.Candidate
	}{
		{[]codesign.Candidate{
			mkCand(1, 10), // cheapest
			mkCand(2, 9),
			mkCand(2.5, 9.5), // dominated by (2,9)
			mkCand(3, 6),
			mkCand(4, 4),
			mkCand(5, 2), // lowest loss
		}, 3, mkCand(2.5, 9.5)},
		// At equal power, (2,9) is listed before the (2,3) that dominates
		// it; input order must not let it through.
		{[]codesign.Candidate{
			mkCand(1, 10), mkCand(2, 9), mkCand(2, 3), mkCand(3, 2.5), mkCand(4, 1), mkCand(5, 0.5),
		}, 4, mkCand(2, 9)},
	} {
		got := thinCandidates(tc.cands, tc.max)
		if len(got) != tc.max {
			t.Fatalf("thinned to %d, want %d", len(got), tc.max)
		}
		// Extremes survive: the cheapest and the lowest-loss candidate.
		if got[0].PowerMW != 1 {
			t.Errorf("cheapest dropped: %+v", got[0])
		}
		if last := got[len(got)-1]; last.PowerMW != 5 {
			t.Errorf("lowest-loss dropped: %+v", last)
		}
		for _, c := range got {
			if c.PowerMW == tc.dropped.PowerMW && c.MaxFixedLossDB == tc.dropped.MaxFixedLossDB {
				t.Errorf("dominated candidate %+v survived: %+v", c, got)
			}
		}
	}
}

func TestThinCandidatesMonotone(t *testing.T) {
	// Output is sorted by power ascending with loss descending (a front).
	cands := []codesign.Candidate{
		mkCand(5, 1), mkCand(1, 9), mkCand(3, 4), mkCand(2, 7), mkCand(4, 2),
	}
	got := thinCandidates(cands, 4)
	for i := 1; i < len(got); i++ {
		if got[i].PowerMW < got[i-1].PowerMW {
			t.Fatalf("power not ascending: %+v", got)
		}
		if got[i].MaxFixedLossDB > got[i-1].MaxFixedLossDB {
			t.Fatalf("loss not descending: %+v", got)
		}
	}
}

func TestLossPressed(t *testing.T) {
	lib := optics.DefaultLibrary()
	short := steiner.MST([]geom.Point{{X: 0, Y: 0}, {X: 0.5, Y: 0}}, steiner.Euclidean, nil)
	if lossPressed(short, nil, lib, 1) {
		t.Error("short uncrossed net reported loss-pressed")
	}
	// A long net with many crossings approaches the budget.
	long := steiner.MST([]geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}}, steiner.Euclidean, nil)
	var env []geom.Segment
	for i := 0; i < 25; i++ {
		x := 0.1 + float64(i)*0.15
		env = append(env, geom.Segment{A: geom.Point{X: x, Y: -1}, B: geom.Point{X: x, Y: 1}})
	}
	if !lossPressed(long, env, lib, 1) {
		t.Error("long heavily-crossed net not reported loss-pressed")
	}
	// High fanout alone adds splitting pressure.
	if !lossPressed(long, nil, lib, 20) {
		t.Error("high-fanout long net not loss-pressed")
	}
}

func TestLossPressedThresholdMath(t *testing.T) {
	lib := optics.DefaultLibrary()
	// Exactly at 70% of the budget: 0.7·20 dB = 14 dB → a 9.34 cm
	// uncrossed 2-pin run sits barely above it (α = 1.5 dB/cm).
	length := 0.7*lib.MaxLossDB/lib.AlphaDBPerCM + 0.01
	tr := steiner.MST([]geom.Point{{X: 0, Y: 0}, {X: length, Y: 0}}, steiner.Euclidean, nil)
	if !lossPressed(tr, nil, lib, 1) {
		t.Error("net just above the 70% threshold not pressed")
	}
	tr = steiner.MST([]geom.Point{{X: 0, Y: 0}, {X: length - 0.02, Y: 0}}, steiner.Euclidean, nil)
	if lossPressed(tr, nil, lib, 1) {
		t.Error("net just below the 70% threshold pressed")
	}
}

func TestThinCandidatesProperty(t *testing.T) {
	// Thinning never loses the minimum-power candidate and never returns
	// more than max.
	for n := 1; n < 30; n++ {
		var cands []codesign.Candidate
		minPow := math.Inf(1)
		for i := 0; i < n; i++ {
			p := float64((i*7)%13) + 1
			l := float64((i*5)%11) + 1
			cands = append(cands, mkCand(p, l))
			if p < minPow {
				minPow = p
			}
		}
		for _, max := range []int{1, 2, 3, 5} {
			got := thinCandidates(append([]codesign.Candidate(nil), cands...), max)
			if len(got) > max {
				t.Fatalf("n=%d max=%d: %d survived", n, max, len(got))
			}
			if len(got) == 0 {
				t.Fatalf("n=%d max=%d: everything dropped", n, max)
			}
			if got[0].PowerMW != minPow {
				t.Fatalf("n=%d max=%d: min-power candidate lost", n, max)
			}
		}
	}
}
