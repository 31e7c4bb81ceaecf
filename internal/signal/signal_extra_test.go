package signal

import (
	"encoding/json"
	"reflect"
	"testing"

	"operon/internal/geom"
)

func TestDesignJSONRoundTrip(t *testing.T) {
	// cmd/operon accepts designs as JSON; the exported model must survive
	// a marshal/unmarshal round trip exactly.
	d := Design{
		Name: "roundtrip",
		Die:  geom.Rect{Hi: geom.Point{X: 4, Y: 4}},
		Groups: []Group{
			{
				Name: "bus0",
				Bits: []Bit{
					{Driver: geom.Point{X: 0.5, Y: 1}, Sinks: []geom.Point{{X: 2, Y: 1}, {X: 3, Y: 1.5}}},
					{Driver: geom.Point{X: 0.5, Y: 1.1}, Sinks: []geom.Point{{X: 2, Y: 1.1}}},
				},
			},
		},
	}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Design
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatalf("round trip differs:\n%+v\nvs\n%+v", d, back)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHyperNetBitsWithinGroup(t *testing.T) {
	// Every bit index in a hyper net must refer into its own group.
	d := Design{Groups: []Group{busGroup("a", 40, 2, 1), busGroup("b", 50, 1, 2)}}
	_, nets, err := Process(d, ProcessConfig{WDMCapacity: 16, PinMergeThresholdCM: 0.05}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{"a": 40, "b": 50}
	perGroup := map[string]int{}
	for _, n := range nets {
		limit := sizes[n.Group]
		if limit == 0 {
			t.Fatalf("hyper net references unknown group %q", n.Group)
		}
		for _, b := range n.Bits {
			if b < 0 || b >= limit {
				t.Fatalf("group %s: bit index %d out of range %d", n.Group, b, limit)
			}
		}
		perGroup[n.Group] += n.BitCount()
	}
	if perGroup["a"] != 40 || perGroup["b"] != 50 {
		t.Fatalf("bit coverage per group: %v", perGroup)
	}
}

func TestHyperPinPinCountsConsistent(t *testing.T) {
	d := Design{Groups: []Group{busGroup("g", 20, 2, 9)}}
	_, nets, err := Process(d, ProcessConfig{WDMCapacity: 32, PinMergeThresholdCM: 0.05}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nets {
		totalPins := 0
		for _, p := range n.Pins {
			if len(p.Pins) == 0 {
				t.Fatal("empty hyper pin")
			}
			if p.Bits <= 0 || p.Bits > n.BitCount() {
				t.Fatalf("hyper pin bit count %d outside 1..%d", p.Bits, n.BitCount())
			}
			totalPins += len(p.Pins)
		}
		// Each bit contributes 1 driver + 2 sinks = 3 pins.
		if want := n.BitCount() * 3; totalPins != want {
			t.Fatalf("hyper pins cover %d electrical pins, want %d", totalPins, want)
		}
	}
}
