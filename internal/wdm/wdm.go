// Package wdm implements OPERON's WDM stage (paper §4): the sweep placement
// that initialises waveguide locations under capacity and proximity bounds
// (§4.1) and the min-cost max-flow re-assignment that consolidates optical
// connections onto fewer WDMs (§4.2).
//
// Optical connections are classified by dominant orientation; horizontal
// and vertical WDMs are placed and assigned independently with the same
// procedure. Costs in the assignment network follow the paper: connection→
// WDM edges carry the (normalised) perpendicular displacement, WDM→sink
// edges carry usage costs, deliberately scaled to dominate displacement so
// the flow consolidates ("we normalize the costs of edges from VC to VW so
// that the WDMs' usages are emphasized").
package wdm

import (
	"context"
	"fmt"
	"math"
	"sort"

	"operon/internal/geom"
	"operon/internal/mcmf"
	"operon/internal/obs"
)

// Connection is one point-to-point optical link of a routed hyper net.
type Connection struct {
	Seg geom.Segment
	// Bits is the number of wavelength channels the connection needs.
	Bits int
	// Net identifies the owning hyper net (for reporting only).
	Net int
}

// Horizontal reports the connection's dominant orientation.
func (c Connection) Horizontal() bool { return c.Seg.Horizontal() }

// coord returns the placement coordinate: the midpoint's y for horizontal
// connections, x for vertical ones.
func (c Connection) coord() float64 {
	if c.Horizontal() {
		return c.Seg.Midpoint().Y
	}
	return c.Seg.Midpoint().X
}

// Config carries the WDM parameters.
type Config struct {
	// Capacity is the channel capacity of one WDM waveguide.
	Capacity int
	// MinSpacingCM is dis_l: minimum spacing between adjacent WDMs
	// (crosstalk bound); placement legalises to it.
	MinSpacingCM float64
	// MaxAssignDistCM is dis_u: the maximum displacement allowed when
	// assigning a connection to a WDM.
	MaxAssignDistCM float64
	// Obs, when non-nil, receives wdm/place and wdm/assign spans, the
	// wdm.arcs counter, and the mcmf.augmentations counter of the
	// assignment flow. Nil disables all instrumentation.
	Obs *obs.Tracer
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Capacity <= 0:
		return fmt.Errorf("wdm: capacity %d must be positive", c.Capacity)
	case c.MinSpacingCM < 0 || c.MaxAssignDistCM <= 0:
		return fmt.Errorf("wdm: invalid distance bounds")
	case c.MinSpacingCM > c.MaxAssignDistCM:
		return fmt.Errorf("wdm: dis_l %v exceeds dis_u %v", c.MinSpacingCM, c.MaxAssignDistCM)
	}
	return nil
}

// WDM is one placed waveguide.
type WDM struct {
	Horizontal bool
	// CoordCM is the waveguide's fixed coordinate (y if horizontal).
	CoordCM float64
	// InitialLoad is the channel load after the sweep placement.
	InitialLoad int
}

// Placement is the §4.1 result.
type Placement struct {
	WDMs []WDM
	// InitialAssign maps each connection (by input index) to its WDM.
	InitialAssign []int
}

// Place runs the sweep placement: connections of each orientation are
// sorted by coordinate and greedily packed onto the current WDM while both
// the capacity and the dis_u proximity bound hold; otherwise a new WDM is
// opened at the connection's coordinate. Adjacent WDMs closer than dis_l
// are then legalised by shifting.
func Place(conns []Connection, cfg Config) (Placement, error) {
	if err := cfg.Validate(); err != nil {
		return Placement{}, err
	}
	for i, c := range conns {
		if c.Bits <= 0 {
			return Placement{}, fmt.Errorf("wdm: connection %d has %d bits", i, c.Bits)
		}
		if c.Bits > cfg.Capacity {
			return Placement{}, fmt.Errorf("wdm: connection %d needs %d bits > capacity %d",
				i, c.Bits, cfg.Capacity)
		}
	}
	sp := cfg.Obs.Span("wdm/place", obs.LaneFlow, obs.I("connections", len(conns)))
	pl := Placement{InitialAssign: make([]int, len(conns))}
	for _, horizontal := range []bool{true, false} {
		idxs := make([]int, 0, len(conns))
		for i, c := range conns {
			if c.Horizontal() == horizontal {
				idxs = append(idxs, i)
			}
		}
		sort.SliceStable(idxs, func(a, b int) bool {
			return conns[idxs[a]].coord() < conns[idxs[b]].coord()
		})
		cur := -1
		for _, ci := range idxs {
			c := conns[ci]
			if cur >= 0 &&
				pl.WDMs[cur].InitialLoad+c.Bits <= cfg.Capacity &&
				math.Abs(c.coord()-pl.WDMs[cur].CoordCM) <= cfg.MaxAssignDistCM {
				pl.WDMs[cur].InitialLoad += c.Bits
				pl.InitialAssign[ci] = cur
				continue
			}
			pl.WDMs = append(pl.WDMs, WDM{
				Horizontal:  horizontal,
				CoordCM:     c.coord(),
				InitialLoad: c.Bits,
			})
			cur = len(pl.WDMs) - 1
			pl.InitialAssign[ci] = cur
		}
		legalize(pl.WDMs, horizontal, cfg.MinSpacingCM)
	}
	sp.End(obs.I("wdms", len(pl.WDMs)))
	return pl, nil
}

// legalize shifts WDMs of one orientation so that adjacent coordinates are
// at least minSpacing apart, sweeping in coordinate order.
func legalize(wdms []WDM, horizontal bool, minSpacing float64) {
	if minSpacing <= 0 {
		return
	}
	idxs := make([]int, 0, len(wdms))
	for i, w := range wdms {
		if w.Horizontal == horizontal {
			idxs = append(idxs, i)
		}
	}
	sort.SliceStable(idxs, func(a, b int) bool {
		return wdms[idxs[a]].CoordCM < wdms[idxs[b]].CoordCM
	})
	for k := 1; k < len(idxs); k++ {
		prev, cur := idxs[k-1], idxs[k]
		if wdms[cur].CoordCM-wdms[prev].CoordCM < minSpacing {
			wdms[cur].CoordCM = wdms[prev].CoordCM + minSpacing
		}
	}
}

// Share is a portion of a connection routed on one WDM. The network model
// allows a connection's bits to split across waveguides (§4.2's edge
// capacities are bit counts).
type Share struct {
	WDM  int
	Bits int
}

// Assignment is the §4.2 result.
type Assignment struct {
	// Shares[i] lists the WDM shares of connection i.
	Shares [][]Share
	// UsedWDMs lists the WDM indices that carry flow after re-assignment.
	UsedWDMs []int
	// DisplacedBitCM is the total |displacement|·bits moved, a measure of
	// how much the routing result was disturbed.
	DisplacedBitCM float64
}

// Used returns the number of WDMs carrying at least one bit.
func (a Assignment) Used() int { return len(a.UsedWDMs) }

// Assign re-allocates the placed connections with a min-cost max-flow per
// orientation: source→connection edges (capacity = bits), connection→WDM
// edges within dis_u (cost = normalised displacement), WDM→sink edges
// (capacity = WDM capacity, cost = usage, growing with WDM order so the
// flow consolidates onto fewer waveguides). WDMs left idle are dropped.
//
// Cancellation is observed once per connection by the candidate costing
// and once per augmenting path by the min-cost flow; once ctx is done,
// Assign abandons the re-assignment and returns ctx.Err(). Callers that
// must produce an answer anyway fall back to PlacementAssignment, which
// derives a feasible (capacity-respecting) assignment straight from the
// sweep placement. A run that completes before cancellation is
// bit-identical to an uncancelled one.
func Assign(ctx context.Context, conns []Connection, pl Placement, cfg Config) (Assignment, error) {
	if err := cfg.Validate(); err != nil {
		return Assignment{}, err
	}
	if len(pl.InitialAssign) != len(conns) {
		return Assignment{}, fmt.Errorf("wdm: placement covers %d of %d connections",
			len(pl.InitialAssign), len(conns))
	}
	out := Assignment{Shares: make([][]Share, len(conns))}
	used := make([]bool, len(pl.WDMs))
	cArcs := cfg.Obs.Counter("wdm.arcs")

	// One candidate connection→WDM arc of the flow network.
	type connArc struct {
		k, q   int // indices into connIdx and wdmIdx
		cost   int64
		distCM float64
		id     int // mcmf edge handle
	}
	// Scratch shared by the two orientation passes.
	connIdx := make([]int, 0, len(conns))
	wdmIdx := make([]int, 0, len(pl.WDMs))
	var arcs []connArc

	for _, horizontal := range []bool{true, false} {
		connIdx, wdmIdx = connIdx[:0], wdmIdx[:0]
		totalBits := 0
		for i, c := range conns {
			if c.Horizontal() == horizontal {
				connIdx = append(connIdx, i)
				totalBits += c.Bits
			}
		}
		for w, wd := range pl.WDMs {
			if wd.Horizontal == horizontal {
				wdmIdx = append(wdmIdx, w)
			}
		}
		if len(connIdx) == 0 {
			continue
		}
		orient := "vertical"
		if horizontal {
			orient = "horizontal"
		}
		spAssign := cfg.Obs.Span("wdm/assign", obs.LaneFlow,
			obs.S("orient", orient),
			obs.I("connections", len(connIdx)),
			obs.I("wdms", len(wdmIdx)))
		// Candidate arcs in (connection, WDM) order: every WDM within dis_u
		// of the connection, plus the one the placement packed it onto.
		// Costs are integers for exact flow arithmetic: displacement is
		// quantised to dispScale steps of dis_u.
		const dispScale = 1000
		spCost := cfg.Obs.Span("wdm/cost-arcs", obs.LaneFlow, obs.S("orient", orient))
		arcs = arcs[:0]
		var err error
		for k, ci := range connIdx {
			if err = ctx.Err(); err != nil {
				break
			}
			coord, first := conns[ci].coord(), len(arcs)
			for q, w := range wdmIdx {
				d := math.Abs(coord - pl.WDMs[w].CoordCM)
				if d <= cfg.MaxAssignDistCM+geom.Eps || w == pl.InitialAssign[ci] {
					cost := min(int64(d/cfg.MaxAssignDistCM*dispScale), dispScale)
					arcs = append(arcs, connArc{k: k, q: q, cost: cost, distCM: d})
				}
			}
			if len(arcs) == first {
				err = fmt.Errorf("wdm: connection %d reaches no WDM", ci)
				break
			}
		}
		spCost.End()
		if err != nil {
			return Assignment{}, err
		}
		// Node layout: 0 source, 1..C connections, C+1..C+W WDMs, last sink.
		nConn := len(connIdx)
		g := mcmf.NewWithEdgeHint(nConn+len(wdmIdx)+2, nConn+len(wdmIdx)+len(arcs))
		src, snk := 0, nConn+len(wdmIdx)+1
		for k, ci := range connIdx {
			g.AddEdge(src, 1+k, conns[ci].Bits, 0)
		}
		// Usage costs dominate: one usage step exceeds any total
		// displacement cost.
		usageUnit := int64(totalBits)*dispScale + 1
		for q := range wdmIdx {
			g.AddEdge(1+nConn+q, snk, cfg.Capacity, usageUnit*int64(q+1))
		}
		for i, a := range arcs {
			arcs[i].id = g.AddEdge(1+a.k, 1+nConn+a.q, conns[connIdx[a.k]].Bits, a.cost)
		}
		cArcs.Add(int64(len(arcs)))
		g.Instrument(cfg.Obs)
		res, err := g.MaxFlow(ctx, src, snk)
		if err != nil {
			return Assignment{}, err
		}
		if res.Flow != totalBits {
			return Assignment{}, fmt.Errorf("wdm: assignment routed %d of %d bits",
				res.Flow, totalBits)
		}
		for _, a := range arcs {
			if f := g.Flow(a.id); f > 0 {
				ci, w := connIdx[a.k], wdmIdx[a.q]
				out.Shares[ci] = append(out.Shares[ci], Share{WDM: w, Bits: f})
				out.DisplacedBitCM += a.distCM * float64(f)
				used[w] = true
			}
		}
		spAssign.End(obs.I("arcs", len(arcs)), obs.I("flow_bits", res.Flow))
	}
	for w := range pl.WDMs {
		if used[w] {
			out.UsedWDMs = append(out.UsedWDMs, w)
		}
	}
	return out, nil
}

// PlacementAssignment derives an Assignment directly from the sweep
// placement, without running the network-flow re-assignment: every
// connection keeps the WDM the placement packed it onto, whole. The result
// is feasible by construction — the sweep never exceeds a waveguide's
// capacity — but forgoes the §4.2 consolidation, so it uses as many WDMs as
// the placement opened. Run falls back to it when the context is
// cancelled mid-assignment (the graceful-degradation floor of the WDM
// stage; see DESIGN.md §8).
func PlacementAssignment(conns []Connection, pl Placement) Assignment {
	out := Assignment{Shares: make([][]Share, len(conns))}
	usedSet := map[int]bool{}
	for i, w := range pl.InitialAssign {
		out.Shares[i] = []Share{{WDM: w, Bits: conns[i].Bits}}
		usedSet[w] = true
	}
	for w := range pl.WDMs {
		if usedSet[w] {
			out.UsedWDMs = append(out.UsedWDMs, w)
		}
	}
	sort.Ints(out.UsedWDMs)
	return out
}

// Stats summarises the WDM pipeline for one design: the three bars of the
// paper's Fig. 8.
type Stats struct {
	// Connections counts the optical connections fed into the stage.
	Connections int
	// InitialWDMs counts the waveguides opened by the sweep placement.
	InitialWDMs int
	// FinalWDMs counts the waveguides still carrying flow after the
	// network-flow re-assignment (equals InitialWDMs when Degraded).
	FinalWDMs int
	// Degraded reports that the context was cancelled mid-assignment and the
	// result fell back to the placement-derived assignment: feasible, but
	// without the §4.2 consolidation.
	Degraded bool
}

// Reduction returns the fractional WDM saving of the assignment over the
// placement (the paper reports 8.9% on average).
func (s Stats) Reduction() float64 {
	if s.InitialWDMs == 0 {
		return 0
	}
	return 1 - float64(s.FinalWDMs)/float64(s.InitialWDMs)
}

// Run executes placement followed by assignment under ctx and returns
// everything. The sweep placement always completes (it is the feasibility
// floor of the stage); when the context is cancelled during the
// network-flow re-assignment, the result degrades to PlacementAssignment and
// Stats.Degraded is set instead of returning an error. A run that completes
// before cancellation is bit-identical to an uncancelled one.
func Run(ctx context.Context, conns []Connection, cfg Config) (Placement, Assignment, Stats, error) {
	pl, err := Place(conns, cfg)
	if err != nil {
		return Placement{}, Assignment{}, Stats{}, err
	}
	st := Stats{Connections: len(conns), InitialWDMs: len(pl.WDMs)}
	as, err := Assign(ctx, conns, pl, cfg)
	switch {
	case err == nil:
	case ctx.Err() != nil:
		// Cancelled mid-assignment: keep the placement's packing.
		as = PlacementAssignment(conns, pl)
		st.Degraded = true
	default:
		return Placement{}, Assignment{}, Stats{}, err
	}
	st.FinalWDMs = as.Used()
	return pl, as, st, nil
}
