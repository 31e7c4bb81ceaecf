package codesign

import (
	"math/rand"
	"reflect"
	"testing"
)

// decodeStates turns fuzz bytes into DP states. data[0] sets the cap (0
// means none) and data[1] seeds the shuffles; every following 5-byte group
// is one state. Coordinates sit on a coarse grid, so ties are common in
// every coordinate and geom.Eps never blurs a dominance test.
func decodeStates(data []byte) (ss []state, maxKeep int, seed int64) {
	if len(data) < 2 {
		return nil, 0, 0
	}
	maxKeep, seed = int(data[0]%8), int64(data[1])
	for b := data[2:]; len(b) >= 5; b = b[5:] {
		labels := make([]Label, 4)
		for i := range labels {
			labels[i] = Label(b[4] >> i & 1)
		}
		ss = append(ss, state{
			labels:      labels,
			pow:         float64(b[0] % 6),
			loss:        float64(b[1]%4) / 2,
			sealedWorst: float64(b[2]%4) / 2,
			arms:        int(b[3] % 3),
			flag:        b[3]&4 != 0,
		})
	}
	if maxKeep == 0 {
		maxKeep = len(ss) + 1
	}
	return ss, maxKeep, seed
}

// checkPrune prunes shuffled copies of ss and requires the same kept list
// every time. Below the cap it also requires that no kept state dominates
// another and that every state of ss is dominated by a kept one.
func checkPrune(t *testing.T, ss []state, maxKeep int, seed int64) {
	t.Helper()
	want := prune(append([]state(nil), ss...), maxKeep)
	if len(want) > maxKeep {
		t.Fatalf("kept %d states, cap %d", len(want), maxKeep)
	}
	rng := rand.New(rand.NewSource(seed))
	for range 4 {
		shuffled := append([]state(nil), ss...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := prune(shuffled, maxKeep); !reflect.DeepEqual(got, want) {
			t.Fatalf("input order changed the kept states:\n got %v\nwant %v", got, want)
		}
	}
	if len(want) == maxKeep {
		return
	}
	for i := range want {
		for j := range want {
			if i != j && dominates(&want[i], &want[j]) {
				t.Fatalf("kept state %v dominates kept state %v", want[i], want[j])
			}
		}
	}
	for i := range ss {
		covered := false
		for j := range want {
			covered = covered || dominates(&want[j], &ss[i])
		}
		if !covered {
			t.Fatalf("dropped state %v is dominated by no kept state", ss[i])
		}
	}
}

func TestPruneOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 2+5*(1+rng.Intn(60)))
		rng.Read(data)
		for _, k := range []byte{0, 3, 5} {
			data[0] = k
			ss, maxKeep, seed := decodeStates(data)
			checkPrune(t, ss, maxKeep, seed)
		}
	}
}

func FuzzPrune(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ss, maxKeep, seed := decodeStates(data)
		checkPrune(t, ss, maxKeep, seed)
	})
}
