package selection

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"operon/internal/codesign"
	"operon/internal/geom"
	"operon/internal/optics"
)

// oldPrice is the pricing weight as SolveLR computed it before the
// crossing-loss table: every term, the symmetric one included, read
// through CrossLossDB for every interacting net.
func oldPrice(inst *Instance, i, j int, prev []int, lambda []float64) float64 {
	c := inst.Nets[i].Cands[j]
	w := c.PowerMW
	off := inst.pathOff[i][j]
	for p, path := range c.Paths {
		loss := path.FixedLossDB
		for _, m := range inst.InteractingNets(i) {
			loss += inst.CrossLossDB(i, j, m, prev[m])[p]
		}
		w += lambda[off+p] * loss
	}
	for _, m := range inst.InteractingNets(i) {
		mj := prev[m]
		lx := inst.CrossLossDB(m, mj, i, j)
		moff := inst.pathOff[m][mj]
		for p := range lx {
			w += lambda[moff+p] * lx[p]
		}
	}
	return w
}

// TestAsymmetricInteraction builds a pair with 1 ∈ interactions[0] but
// 0 ∉ interactions[1]: net 0's two candidates span a box that net 1's short
// waveguide sits inside, clear of both candidates. A vertical net 2 crosses
// all three waveguides. Net 0 and net 1 then inflict no loss on each other,
// and the pricing weight, which skips the symmetric term of such a pair,
// must equal the old formula bit for bit.
func TestAsymmetricInteraction(t *testing.T) {
	lib := optics.DefaultLibrary()
	net0 := twoCandNet(0, 0, 1, 1, 5, 3)
	upper := twoCandNet(2, 0, 1, 1.5, 4, 3)
	net0.Cands = []codesign.Candidate{net0.Cands[0], upper.Cands[0], net0.Cands[1]}
	nets := []Net{
		net0,
		twoCandNet(1, 0.4, 0.6, 1, 5, 3),
		crossingNet(0.5, -0.5, 2.5, 1, 5, 3),
	}
	inst, err := NewInstance(nets, lib, InstanceOptions{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	k := slices.Index(inst.InteractingNets(0), 1)
	if k < 0 || slices.Contains(inst.InteractingNets(1), 0) {
		t.Fatalf("interactions %v, %v: want 1 in the first and 0 not in the second",
			inst.InteractingNets(0), inst.InteractingNets(1))
	}
	if inst.rev[0][k] != -1 {
		t.Fatalf("rev[0][%d] = %d, want -1", k, inst.rev[0][k])
	}
	for j := range nets[0].Cands {
		for n := range nets[1].Cands {
			for _, lx := range [][]float64{inst.CrossLossDB(1, n, 0, j), inst.CrossLossDB(0, j, 1, n)} {
				for _, v := range lx {
					if v != 0 {
						t.Fatalf("loss %v between nets 0 and 1 (cands %d, %d)", v, j, n)
					}
				}
			}
		}
	}
	if lx := inst.CrossLossDB(2, 0, 1, 0); lx[0] != lib.BetaDBPerCrossing {
		t.Fatalf("net 2 crossing net 1: loss %v, want β=%v", lx, lib.BetaDBPerCrossing)
	}

	rng := rand.New(rand.NewSource(7))
	lambda := make([]float64, inst.numPaths)
	for trial := 0; trial < 4; trial++ {
		for p := range lambda {
			lambda[p] = rng.Float64()
		}
		for p0 := range nets[0].Cands {
			for p1 := range nets[1].Cands {
				for p2 := range nets[2].Cands {
					prev := []int{p0, p1, p2}
					for i := range nets {
						for j := range nets[i].Cands {
							got, want := inst.price(i, j, prev, lambda), oldPrice(inst, i, j, prev, lambda)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("price(%d,%d) under prev %v = %v, old formula %v", i, j, prev, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestInteractionsAcrossCellBoundary places two collinear waveguides whose
// boxes touch within geom.Eps across a boundary of the interaction grid's
// cells (the cell side is 0.5 here, half the mean box side): they overlap
// by the Eps-tolerant box test, so each must list the other.
func TestInteractionsAcrossCellBoundary(t *testing.T) {
	lib := optics.DefaultLibrary()
	nets := []Net{
		twoCandNet(0, 0, 1-geom.Eps/2, 1, 5, 3),
		twoCandNet(0, 1, 2, 1, 5, 3),
	}
	inst, err := NewInstance(nets, lib, InstanceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := inst.InteractingNets(0), inst.InteractingNets(1); !slices.Equal(a, []int{1}) || !slices.Equal(b, []int{0}) {
		t.Fatalf("interactions %v, %v: want [1], [0]", a, b)
	}
}
