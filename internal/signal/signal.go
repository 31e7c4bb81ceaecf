// Package signal defines OPERON's on-chip signal model (paper §2.3) and the
// signal-processing stage (§3.1) that turns raw signal groups into hyper
// nets with hyper pins.
//
// A signal group is a bundle of performance-critical bits (e.g. a bus
// between logic and a memory interface). Each bit is a multi-pin net: one
// driver pin plus one or more sink pins. Signal processing partitions a
// group's bits into hyper nets respecting the WDM channel capacity
// (top-down capacitated K-Means) and merges neighbouring electrical pins
// into hyper pins (bottom-up agglomerative clustering), producing the
// reduced problem the router operates on.
package signal

import (
	"context"
	"fmt"

	"operon/internal/cluster"
	"operon/internal/geom"
	"operon/internal/parallel"
)

// Bit is a single signal bit: a multi-pin net with one driver and at least
// one sink.
type Bit struct {
	Driver geom.Point
	Sinks  []geom.Point
}

// PinCount returns the total number of electrical pins of the bit.
func (b Bit) PinCount() int { return 1 + len(b.Sinks) }

// Centroid returns the gravity centre of all the bit's pins, used as the
// bit's location during hyper-net clustering.
func (b Bit) Centroid() geom.Point {
	pts := make([]geom.Point, 0, b.PinCount())
	pts = append(pts, b.Driver)
	pts = append(pts, b.Sinks...)
	return geom.Centroid(pts)
}

// Validate reports whether the bit is well-formed.
func (b Bit) Validate() error {
	if len(b.Sinks) == 0 {
		return fmt.Errorf("signal: bit has no sinks")
	}
	return nil
}

// Group is a named bundle of bits routed together.
type Group struct {
	Name string
	Bits []Bit
}

// Validate reports whether the group is well-formed.
func (g Group) Validate() error {
	if len(g.Bits) == 0 {
		return fmt.Errorf("signal: group %q has no bits", g.Name)
	}
	for i, b := range g.Bits {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("signal: group %q bit %d: %w", g.Name, i, err)
		}
	}
	return nil
}

// Design is a complete routing problem: the chip outline and the signal
// groups to route.
type Design struct {
	Name   string
	Die    geom.Rect
	Groups []Group
}

// NetCount returns the total number of signal bits in the design (the
// paper's "#Net" column).
func (d Design) NetCount() int {
	n := 0
	for _, g := range d.Groups {
		n += len(g.Bits)
	}
	return n
}

// Validate reports whether the design is well-formed.
func (d Design) Validate() error {
	if len(d.Groups) == 0 {
		return fmt.Errorf("signal: design %q has no groups", d.Name)
	}
	for _, g := range d.Groups {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// HyperPin is a pseudo pin representing a set of neighbouring electrical
// pins (paper §3.1.2). Centre is the gravity centre of its members; Pins
// lists the member pin locations; Bits counts the distinct bits whose pins
// it aggregates, i.e. the number of parallel connections entering the
// hyper pin; Drivers counts the member pins that are drivers.
type HyperPin struct {
	Centre  geom.Point
	Pins    []geom.Point
	Bits    int
	Drivers int
}

// HyperNet bundles the bits of one capacity-respecting cluster (paper
// §3.1.1) behind a set of hyper pins. Source indexes the hyper pin that
// holds the most driver pins; it is the root of the routing topology.
type HyperNet struct {
	Group  string
	Bits   []int // indices into the owning Group's Bits
	Pins   []HyperPin
	Source int
}

// BitCount returns the number of parallel bits (wavelength channels) the
// hyper net carries.
func (h HyperNet) BitCount() int { return len(h.Bits) }

// SinkPins returns the indices of the non-source hyper pins.
func (h HyperNet) SinkPins() []int {
	out := make([]int, 0, len(h.Pins)-1)
	for i := range h.Pins {
		if i != h.Source {
			out = append(out, i)
		}
	}
	return out
}

// Terminals returns the hyper-pin centres with the source first, the layout
// the routing stage expects.
func (h HyperNet) Terminals() []geom.Point {
	out := make([]geom.Point, 0, len(h.Pins))
	out = append(out, h.Pins[h.Source].Centre)
	for i, p := range h.Pins {
		if i != h.Source {
			out = append(out, p.Centre)
		}
	}
	return out
}

// ProcessConfig controls the signal-processing stage.
type ProcessConfig struct {
	// WDMCapacity bounds the number of bits per hyper net.
	WDMCapacity int
	// PinMergeThresholdCM is the agglomerative merge distance for hyper
	// pins: electrical pins whose cluster centres are closer than this are
	// represented by one pseudo pin.
	PinMergeThresholdCM float64
	// Seed drives the deterministic K-Means initialisation.
	Seed int64
	// Workers bounds the per-group clustering parallelism (0 = NumCPU).
	// Groups are independent, so the result does not depend on the count.
	Workers int
}

// Process runs the full signal-processing stage over a design and returns
// the hyper nets of every group, per group and concatenated in group order.
// Bits of a group are clustered into capacity-respecting hyper nets by their
// centroids; within each hyper net, all member electrical pins are
// agglomerated into hyper pins.
//
// A group gi with clean[gi] set takes its hyper nets from prev[gi] unchanged
// instead of re-clustering: a group's hyper nets depend only on the group
// and its index, so incremental re-synthesis passes the previous solve's
// per-group output and marks the groups whose content and position did not
// change. A nil clean processes every group.
func Process(d Design, cfg ProcessConfig, prev [][]HyperNet, clean []bool) ([][]HyperNet, []HyperNet, error) {
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.WDMCapacity <= 0 {
		return nil, nil, fmt.Errorf("signal: WDM capacity %d must be positive", cfg.WDMCapacity)
	}
	// Groups are processed in parallel; perGroup[gi] keeps the hyper nets in
	// group order so the concatenated result is independent of scheduling.
	perGroup := make([][]HyperNet, len(d.Groups))
	err := parallel.ForEach(context.Background(), len(d.Groups), cfg.Workers, func(gi int) error {
		if clean != nil && clean[gi] {
			perGroup[gi] = prev[gi]
			return nil
		}
		hns, err := processGroup(d.Groups[gi], gi, cfg)
		perGroup[gi] = hns
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var nets []HyperNet
	for _, g := range perGroup {
		nets = append(nets, g...)
	}
	return perGroup, nets, nil
}

// processGroup runs the signal-processing stage over a single group: bits
// are clustered into capacity-respecting hyper nets by their centroids
// (K-Means seeded with cfg.Seed plus the group's index gi, so a group's
// clustering depends only on its contents and position), then each cluster's
// electrical pins are agglomerated into hyper pins.
func processGroup(g Group, gi int, cfg ProcessConfig) ([]HyperNet, error) {
	centroids := make([]geom.Point, len(g.Bits))
	for i, b := range g.Bits {
		centroids[i] = b.Centroid()
	}
	clusters, err := cluster.KMeans(centroids, cluster.KMeansConfig{
		Capacity: cfg.WDMCapacity,
		Seed:     cfg.Seed + int64(gi),
	})
	if err != nil {
		return nil, fmt.Errorf("signal: group %q: %w", g.Name, err)
	}
	var out []HyperNet
	for _, members := range clusters {
		hn, err := buildHyperNet(g, members, cfg.PinMergeThresholdCM)
		if err != nil {
			return nil, fmt.Errorf("signal: group %q: %w", g.Name, err)
		}
		out = append(out, hn)
	}
	return out, nil
}

// buildHyperNet constructs the hyper pins of one bit cluster per §3.1.2.
func buildHyperNet(g Group, members []int, mergeThreshold float64) (HyperNet, error) {
	type pinRef struct {
		loc      geom.Point
		bit      int
		isDriver bool
	}
	var pins []pinRef
	for _, bi := range members {
		b := g.Bits[bi]
		pins = append(pins, pinRef{loc: b.Driver, bit: bi, isDriver: true})
		for _, s := range b.Sinks {
			pins = append(pins, pinRef{loc: s, bit: bi})
		}
	}
	locs := make([]geom.Point, len(pins))
	for i, p := range pins {
		locs[i] = p.loc
	}
	groups := cluster.Agglomerate(locs, mergeThreshold)

	hn := HyperNet{Group: g.Name, Bits: append([]int(nil), members...)}
	bestDrivers := -1
	// seen[b] is 1 + the index of the last hyper pin that counted bit b.
	seen := make([]int, len(g.Bits))
	for h, idxs := range groups {
		hp := HyperPin{Pins: make([]geom.Point, 0, len(idxs))}
		for _, i := range idxs {
			hp.Pins = append(hp.Pins, pins[i].loc)
			if seen[pins[i].bit] != h+1 {
				seen[pins[i].bit] = h + 1
				hp.Bits++
			}
			if pins[i].isDriver {
				hp.Drivers++
			}
		}
		hp.Centre = geom.Centroid(hp.Pins)
		hn.Pins = append(hn.Pins, hp)
		if hp.Drivers > bestDrivers {
			bestDrivers = hp.Drivers
			hn.Source = len(hn.Pins) - 1
		}
	}
	if len(hn.Pins) < 2 {
		// All pins collapsed into one hyper pin: the connection is local,
		// but the router still needs at least a source and a sink. Split
		// drivers from sinks so the hyper net remains routable.
		hn = splitDegeneratePins(g, members)
	}
	if bestDrivers == 0 && len(hn.Pins) >= 2 {
		return hn, fmt.Errorf("hyper net has no driver pins")
	}
	return hn, nil
}

// splitDegeneratePins handles the corner case where the merge threshold
// swallowed every pin into a single hyper pin: it rebuilds two hyper pins,
// one holding all drivers and one holding all sinks.
func splitDegeneratePins(g Group, members []int) HyperNet {
	hn := HyperNet{Group: g.Name, Bits: append([]int(nil), members...)}
	var drv, snk HyperPin
	for _, bi := range members {
		b := g.Bits[bi]
		drv.Pins = append(drv.Pins, b.Driver)
		drv.Drivers++
		snk.Pins = append(snk.Pins, b.Sinks...)
	}
	drv.Centre = geom.Centroid(drv.Pins)
	snk.Centre = geom.Centroid(snk.Pins)
	drv.Bits = len(members)
	snk.Bits = len(members)
	hn.Pins = []HyperPin{drv, snk}
	hn.Source = 0
	return hn
}

// Stats summarises processed hyper nets: the paper's #HNet and #HPin
// columns.
type Stats struct {
	HyperNets int
	HyperPins int
}

// Summarize counts hyper nets and hyper pins.
func Summarize(nets []HyperNet) Stats {
	s := Stats{HyperNets: len(nets)}
	for _, n := range nets {
		s.HyperPins += len(n.Pins)
	}
	return s
}
