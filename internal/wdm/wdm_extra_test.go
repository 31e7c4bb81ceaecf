package wdm

import (
	"context"
	"math"
	"testing"

	"operon/internal/geom"
)

func TestDisplacementAccounting(t *testing.T) {
	// One connection exactly on its WDM: zero displacement. A second one
	// offset by 0.02 within reach: displacement = 0.02 × bits when the
	// flow keeps both on the first WDM.
	conns := []Connection{
		hconn(0.00, 0, 1, 10),
		hconn(0.02, 0, 1, 10),
	}
	pl, as, _, err := Run(context.Background(), conns, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.WDMs) != 1 {
		t.Fatalf("placement WDMs = %d, want 1", len(pl.WDMs))
	}
	want := 0.02 * 10
	if math.Abs(as.DisplacedBitCM-want) > 1e-9 {
		t.Errorf("DisplacedBitCM = %v, want %v", as.DisplacedBitCM, want)
	}
}

func TestVerticalOnlyPipeline(t *testing.T) {
	conns := []Connection{
		vconn(0.00, 0, 2, 12),
		vconn(0.01, 0, 2, 12),
		vconn(0.02, 0, 2, 12),
	}
	pl, as, st, err := Run(context.Background(), conns, cfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range pl.WDMs {
		if w.Horizontal {
			t.Fatal("vertical connections placed on a horizontal WDM")
		}
	}
	if st.FinalWDMs > st.InitialWDMs {
		t.Fatal("assignment increased WDMs")
	}
	total := 0
	for i := range conns {
		for _, s := range as.Shares[i] {
			total += s.Bits
		}
	}
	if total != 36 {
		t.Fatalf("shares cover %d bits, want 36", total)
	}
}

func TestDiagonalClassification(t *testing.T) {
	// A 45°+ε segment is vertical-dominant; placement must treat it as such.
	diag := Connection{
		Seg:  geom.Segment{A: geom.Point{X: 0, Y: 0}, B: geom.Point{X: 0.5, Y: 0.8}},
		Bits: 4,
	}
	if diag.Horizontal() {
		t.Fatal("steep diagonal classified horizontal")
	}
	pl, err := Place([]Connection{diag}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.WDMs) != 1 || pl.WDMs[0].Horizontal {
		t.Fatalf("placement: %+v", pl.WDMs)
	}
	// Its placement coordinate is the midpoint x.
	if math.Abs(pl.WDMs[0].CoordCM-0.25) > 1e-9 {
		t.Errorf("coord = %v, want 0.25", pl.WDMs[0].CoordCM)
	}
}

func TestSingleConnectionSingleWDM(t *testing.T) {
	pl, as, st, err := Run(context.Background(), []Connection{hconn(1, 0, 3, 32)}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.WDMs) != 1 || st.FinalWDMs != 1 {
		t.Fatalf("single full connection: %d placed, %d final", len(pl.WDMs), st.FinalWDMs)
	}
	if len(as.Shares[0]) != 1 || as.Shares[0][0].Bits != 32 {
		t.Fatalf("shares: %+v", as.Shares[0])
	}
}
