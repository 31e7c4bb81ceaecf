package operon

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"operon/internal/benchgen"
	"operon/internal/geom"
	"operon/internal/signal"
)

// Session supports incremental (ECO) re-synthesis: it wraps a mutable copy
// of a design and the committed state of the last successful solve, so that
// edit→re-solve loops skip every stage whose inputs did not change. Apply
// mutates the pending design/config; Resolve re-runs the flow reusing, for
// untouched signal groups, the per-group clustering, the baseline Steiner
// trees, and the co-design candidate sets of the previous solve, plus the
// crossing-loss table block of the selection instance for every
// carried-over net pair. The BPM simulation cache is process-global and is reused verbatim by
// construction.
//
// Correctness contract: Resolve is bit-identical to a cold RunContext on the
// same design and config. Both run the same stage pipeline; a cold run is a
// solve with no previous state, and reuse is restricted to stage outputs
// whose inputs are provably identical, so the solver trajectory cannot
// diverge (verified by the differential suite in session_test.go).
//
// A Session serialises its own methods; distinct sessions are independent
// and may resolve concurrently. A Session owns no solver scratch: Resolve
// runs on the caller's Workspace, as RunContextWith does, so any number of
// sessions can share the few workspaces of a worker pool (operond passes
// its queue slot's).
type Session struct {
	mu     sync.Mutex
	design signal.Design
	cfg    Config
	last   *sessionState // the last non-degraded solve; its design shares groups with design
}

// NewSession starts an editing session on a deep copy of d: later mutations
// of the caller's design do not leak in, and edits never leak out. The
// first Resolve is a cold solve.
func NewSession(d signal.Design, cfg Config) *Session {
	return &Session{design: copyDesign(d), cfg: cfg}
}

// Design returns a deep copy of the session's pending design (the last
// applied edits included) — the input a cold RunContext must see to
// reproduce the next Resolve bit-for-bit.
func (s *Session) Design() signal.Design {
	s.mu.Lock()
	defer s.mu.Unlock()
	return copyDesign(s.design)
}

// Config returns the session's pending configuration.
func (s *Session) Config() Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}

// EditKind discriminates the edit operations a Session accepts.
type EditKind int

const (
	// EditMoveTerminal moves one terminal (driver or sink) of a bit.
	EditMoveTerminal EditKind = iota
	// EditAddTerminal adds a sink terminal to a bit.
	EditAddTerminal
	// EditRemoveTerminal removes a sink terminal from a bit (a bit must
	// keep at least one sink).
	EditRemoveTerminal
	// EditAddGroup appends a new signal group to the design.
	EditAddGroup
	// EditRemoveGroup removes a signal group (the design must keep at least
	// one). Groups after it shift down and therefore re-cluster.
	EditRemoveGroup
	// EditSetMaxLoss changes the optical power budget Lib.MaxLossDB.
	EditSetMaxLoss
	// EditSetConfig replaces the whole configuration.
	EditSetConfig
)

// Edit is one delta against the session's pending design or config; build
// them with the constructor functions (MoveTerminal, AddGroup, ...).
type Edit struct {
	// Kind selects the operation and which of the fields below it reads.
	Kind EditKind
	// Group is the index of the edited group (terminal edits, RemoveGroup).
	Group int
	// Bit is the index of the edited bit within the group (terminal edits).
	Bit int
	// Sink is the sink index within the bit; -1 addresses the driver
	// (EditMoveTerminal only).
	Sink int
	// Pos is the new terminal position (move/add).
	Pos geom.Point
	// NewGroup is the group to append (EditAddGroup).
	NewGroup signal.Group
	// MaxLossDB is the new power budget (EditSetMaxLoss).
	MaxLossDB float64
	// Config is the replacement configuration (EditSetConfig).
	Config *Config
}

// MoveTerminal moves a terminal of bit (group, bit): sink -1 moves the
// driver, 0..len(Sinks)-1 moves that sink.
func MoveTerminal(group, bit, sink int, pos geom.Point) Edit {
	return Edit{Kind: EditMoveTerminal, Group: group, Bit: bit, Sink: sink, Pos: pos}
}

// AddTerminal appends a sink terminal at pos to bit (group, bit).
func AddTerminal(group, bit int, pos geom.Point) Edit {
	return Edit{Kind: EditAddTerminal, Group: group, Bit: bit, Pos: pos}
}

// RemoveTerminal removes sink index sink from bit (group, bit).
func RemoveTerminal(group, bit, sink int) Edit {
	return Edit{Kind: EditRemoveTerminal, Group: group, Bit: bit, Sink: sink}
}

// AddGroup appends a signal group to the design.
func AddGroup(g signal.Group) Edit { return Edit{Kind: EditAddGroup, NewGroup: g} }

// RemoveGroup removes the group at index i.
func RemoveGroup(i int) Edit { return Edit{Kind: EditRemoveGroup, Group: i} }

// SetMaxLossDB changes the optical detection budget (the "power budget"
// knob of the paper's ECO loop: tightening it demotes marginal nets to
// electrical wires, loosening it admits more optical routes).
func SetMaxLossDB(v float64) Edit { return Edit{Kind: EditSetMaxLoss, MaxLossDB: v} }

// SetConfig replaces the session's configuration wholesale.
func SetConfig(cfg Config) Edit { return Edit{Kind: EditSetConfig, Config: &cfg} }

// EditsFromOps converts flow-agnostic benchgen edit ops — the form edit
// scripts are generated and shipped over the session HTTP API in — into
// session edits. Index validation is left to Session.Apply.
func EditsFromOps(ops []benchgen.EditOp) ([]Edit, error) {
	edits := make([]Edit, 0, len(ops))
	for k, op := range ops {
		switch op.Kind {
		case "move":
			edits = append(edits, MoveTerminal(op.Group, op.Bit, op.Sink, geom.Point{X: op.X, Y: op.Y}))
		case "add_terminal":
			edits = append(edits, AddTerminal(op.Group, op.Bit, geom.Point{X: op.X, Y: op.Y}))
		case "remove_terminal":
			edits = append(edits, RemoveTerminal(op.Group, op.Bit, op.Sink))
		case "add_group":
			edits = append(edits, AddGroup(signal.Group{Name: op.Name, Bits: op.NewBits}))
		case "remove_group":
			edits = append(edits, RemoveGroup(op.Group))
		case "budget":
			edits = append(edits, SetMaxLossDB(op.Budget))
		default:
			return nil, fmt.Errorf("operon: op %d: unknown edit kind %q", k, op.Kind)
		}
	}
	return edits, nil
}

// Dirty previews the work an edit script implies: which groups must
// re-cluster and whether a config change is involved. It is advisory — the
// authoritative dirty set is recomputed by Resolve from design content, so
// a move-then-move-back script still reuses everything.
type Dirty struct {
	// All marks every group dirty (a clustering-relevant config change).
	All bool
	// Groups lists the touched group indices, ascending and deduplicated.
	Groups []int
	// Config reports that the edit script changed the configuration.
	Config bool
}

// Apply validates and applies an edit script atomically to the session's
// pending design/config: on error nothing is applied and the error names
// the offending edit's position. The returned Dirty summarises the touched
// groups; Resolve performs the actual re-solve.
//
// The pending design shares its groups with the committed one. The script
// edits a fresh group slice and deep-copies a group just before its first
// terminal edit, so neither the committed design nor a failed script's
// pending design is ever written.
func (s *Session) Apply(edits ...Edit) (Dirty, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.design
	d.Groups = slices.Clone(d.Groups)
	owned := make([]bool, len(d.Groups))
	cfg := s.cfg
	var dirty Dirty
	for k, e := range edits {
		if err := applyEdit(&d, &owned, &cfg, e, &dirty); err != nil {
			return Dirty{}, fmt.Errorf("operon: edit %d: %w", k, err)
		}
	}
	slices.Sort(dirty.Groups)
	dirty.Groups = slices.Compact(dirty.Groups)
	s.design, s.cfg = d, cfg
	return dirty, nil
}

// applyEdit applies one edit to the scratch design/config, accumulating the
// dirty preview. Bounds are validated here so Apply can be atomic. Group gi
// of d is shared with the committed design until owned[gi] marks it as the
// script's own deep copy.
func applyEdit(d *signal.Design, owned *[]bool, cfg *Config, e Edit, dirty *Dirty) error {
	touch := func(gi int) { dirty.Groups = append(dirty.Groups, gi) }
	bitAt := func() (*signal.Bit, error) {
		if e.Group < 0 || e.Group >= len(d.Groups) {
			return nil, fmt.Errorf("group %d out of range [0,%d)", e.Group, len(d.Groups))
		}
		if n := len(d.Groups[e.Group].Bits); e.Bit < 0 || e.Bit >= n {
			return nil, fmt.Errorf("group %d bit %d out of range [0,%d)", e.Group, e.Bit, n)
		}
		if !(*owned)[e.Group] {
			d.Groups[e.Group] = copyGroup(d.Groups[e.Group])
			(*owned)[e.Group] = true
		}
		return &d.Groups[e.Group].Bits[e.Bit], nil
	}
	switch e.Kind {
	case EditMoveTerminal:
		b, err := bitAt()
		if err != nil {
			return err
		}
		if e.Sink == -1 {
			b.Driver = e.Pos
		} else if e.Sink >= 0 && e.Sink < len(b.Sinks) {
			b.Sinks[e.Sink] = e.Pos
		} else {
			return fmt.Errorf("sink %d out of range [-1,%d)", e.Sink, len(b.Sinks))
		}
		touch(e.Group)
	case EditAddTerminal:
		b, err := bitAt()
		if err != nil {
			return err
		}
		b.Sinks = append(b.Sinks, e.Pos)
		touch(e.Group)
	case EditRemoveTerminal:
		b, err := bitAt()
		if err != nil {
			return err
		}
		if e.Sink < 0 || e.Sink >= len(b.Sinks) {
			return fmt.Errorf("sink %d out of range [0,%d)", e.Sink, len(b.Sinks))
		}
		if len(b.Sinks) == 1 {
			return fmt.Errorf("cannot remove the last sink of group %d bit %d", e.Group, e.Bit)
		}
		b.Sinks = append(b.Sinks[:e.Sink], b.Sinks[e.Sink+1:]...)
		touch(e.Group)
	case EditAddGroup:
		if err := e.NewGroup.Validate(); err != nil {
			return err
		}
		d.Groups = append(d.Groups, copyGroup(e.NewGroup))
		*owned = append(*owned, true)
		touch(len(d.Groups) - 1)
	case EditRemoveGroup:
		if e.Group < 0 || e.Group >= len(d.Groups) {
			return fmt.Errorf("group %d out of range [0,%d)", e.Group, len(d.Groups))
		}
		if len(d.Groups) == 1 {
			return fmt.Errorf("cannot remove the last group")
		}
		d.Groups = append(d.Groups[:e.Group], d.Groups[e.Group+1:]...)
		*owned = append((*owned)[:e.Group], (*owned)[e.Group+1:]...)
		// Every surviving group at or after the removed index shifts down;
		// its clustering seed (Seed + index) changes with it.
		for gi := e.Group; gi < len(d.Groups); gi++ {
			touch(gi)
		}
	case EditSetMaxLoss:
		if e.MaxLossDB <= 0 {
			return fmt.Errorf("max loss %.3f dB must be positive", e.MaxLossDB)
		}
		cfg.Lib.MaxLossDB = e.MaxLossDB
		dirty.Config = true
	case EditSetConfig:
		if e.Config == nil {
			return fmt.Errorf("SetConfig edit carries no config")
		}
		if diffConfig(*cfg, *e.Config).proc {
			dirty.All = true
		}
		*cfg = *e.Config
		dirty.Config = true
	default:
		return fmt.Errorf("unknown edit kind %d", e.Kind)
	}
	return nil
}

// ResolveStats reports what a Resolve reused versus rebuilt. Its JSON form
// is the "reuse" object of operond's session responses.
type ResolveStats struct {
	// Cold reports the session's first solve (nothing to reuse).
	Cold bool `json:"cold,omitempty"`
	// FullReuse reports that nothing was dirty: the previous result was
	// returned without re-running any stage.
	FullReuse bool `json:"full_reuse,omitempty"`
	// GroupsReused counts signal groups whose clustering was carried over.
	GroupsReused int `json:"groups_reused"`
	// GroupsRebuilt counts signal groups re-clustered by this solve.
	GroupsRebuilt int `json:"groups_rebuilt"`
	// TreesReused counts hyper nets whose baseline trees were carried over.
	TreesReused int `json:"trees_reused"`
	// TreesRebuilt counts hyper nets whose baseline trees were rebuilt.
	TreesRebuilt int `json:"trees_rebuilt"`
	// CandsReused counts hyper nets whose candidate sets were carried over.
	CandsReused int `json:"cands_reused"`
	// CandsRebuilt counts hyper nets whose candidate sets were regenerated.
	CandsRebuilt int `json:"cands_rebuilt"`
	// CrossCacheSeeded counts the (i,j,m,n) crossing-loss entries the new
	// selection instance copied from the previous one instead of
	// recomputing.
	CrossCacheSeeded int `json:"crosscache_seeded"`
	// WDMReused reports that the WDM placement/assignment was carried over
	// (identical nets and selection choice).
	WDMReused bool `json:"wdm_reused,omitempty"`
}

// Resolve re-solves the session's pending design under ctx on the caller's
// workspace ws (nil means per-run scratch; see RunContextWith), re-running
// only the stages whose inputs changed since the last committed solve (see
// the type doc for the reuse rules and DESIGN.md §12 for the reuse matrix).
// The result is bit-identical to RunContext(ctx, s.Design(), s.Config()),
// whichever workspace runs it.
// Degraded results (ctx expired mid-solve) are returned but not committed:
// the next Resolve diffs against the last good state, so a cancelled resolve
// never poisons the session.
func (s *Session) Resolve(ctx context.Context, ws *Workspace) (*Result, ResolveStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st ResolveStats
	if res := s.fullReuse(&st); res != nil {
		s.recordStats(st)
		return res, st, nil
	}
	res, next, err := solve(ctx, s.design, s.cfg, ws, s.last, &st)
	if err != nil {
		return nil, st, err
	}
	s.recordStats(st)
	if !res.Degraded {
		s.last = next // next.design shares s.design's groups; Apply never writes them
	}
	return res, st, nil
}

// fullReuse returns the committed result, without running any stage, when
// neither the design nor any result-relevant config knob changed since the
// last committed solve; nil otherwise. (A cold run under an expired ctx would
// degrade; returning the complete cached result is strictly better and still
// matches an un-expired cold run bit-for-bit.)
func (s *Session) fullReuse(st *ResolveStats) *Result {
	prev := s.last
	if prev == nil || diffConfig(prev.cfg, s.cfg).any() ||
		!slices.EqualFunc(s.design.Groups, prev.design.Groups, groupsEqual) {
		return nil
	}
	*st = ResolveStats{
		FullReuse:    true,
		GroupsReused: len(s.design.Groups),
		TreesReused:  len(prev.hnets),
		CandsReused:  len(prev.hnets),
		WDMReused:    !s.cfg.SkipWDM,
	}
	out := *prev.res
	out.Times = StageTimes{}
	out.Obs = s.cfg.Obs
	return &out
}

// recordStats publishes ResolveStats on the session's tracer as
// ws.session.* counters, so serving and bench snapshots expose reuse rates.
func (s *Session) recordStats(st ResolveStats) {
	t := s.cfg.Obs
	t.Counter("ws.session.resolves").Inc()
	if st.Cold {
		t.Counter("ws.session.cold").Inc()
	}
	if st.FullReuse {
		t.Counter("ws.session.reuse/full").Inc()
	}
	if st.WDMReused {
		t.Counter("ws.session.reuse/wdm").Inc()
	}
	t.Counter("ws.session.reuse/groups").Add(int64(st.GroupsReused))
	t.Counter("ws.session.dirty/groups").Add(int64(st.GroupsRebuilt))
	t.Counter("ws.session.reuse/trees").Add(int64(st.TreesReused))
	t.Counter("ws.session.reuse/cands").Add(int64(st.CandsReused))
	t.Counter("ws.session.dirty/cands").Add(int64(st.CandsRebuilt))
	t.Counter("ws.session.reuse/crosscache").Add(int64(st.CrossCacheSeeded))
}

// cfgDelta classifies a config change by the stages it invalidates.
// Workers and Obs are excluded throughout: they never affect results.
type cfgDelta struct {
	proc  bool // re-cluster every group
	trees bool // rebuild every baseline tree
	cands bool // regenerate every candidate set
	sel   bool // selection knobs changed (selection always re-runs anyway)
	wdm   bool // re-place/assign the WDM stage
}

// any reports whether the delta invalidates anything.
func (c cfgDelta) any() bool { return c.proc || c.trees || c.cands || c.sel || c.wdm }

// diffConfig classifies the differences between two configurations by the
// stages whose outputs they invalidate (the invalidation-trigger column of
// the DESIGN.md §12 reuse matrix). optics.Library and power.ElectricalModel
// are flat scalar structs, so == captures every knob.
func diffConfig(a, b Config) cfgDelta {
	var d cfgDelta
	if a.Lib.WDMCapacity != b.Lib.WDMCapacity ||
		a.PinMergeThresholdCM != b.PinMergeThresholdCM || a.Seed != b.Seed {
		d.proc = true
	}
	if a.MaxBaselines != b.MaxBaselines {
		d.trees = true
	}
	if a.Lib != b.Lib || a.Elec != b.Elec || a.SubdivideCM != b.SubdivideCM ||
		a.MaxCandidates != b.MaxCandidates || a.MaxCandidatesPerNet != b.MaxCandidatesPerNet {
		d.cands = true
	}
	if a.Lib != b.Lib || a.Mode != b.Mode || a.ILPTimeLimit != b.ILPTimeLimit ||
		a.ILPMaxNodes != b.ILPMaxNodes || a.LRMaxIters != b.LRMaxIters {
		d.sel = true
	}
	if a.Lib.WDMCapacity != b.Lib.WDMCapacity ||
		a.Lib.CrosstalkMinDistCM != b.Lib.CrosstalkMinDistCM ||
		a.Lib.AssignMaxDistCM != b.Lib.AssignMaxDistCM || a.SkipWDM != b.SkipWDM {
		d.wdm = true
	}
	return d
}

// groupsEqual compares two signal groups by content.
func groupsEqual(a, b signal.Group) bool {
	return a.Name == b.Name && slices.EqualFunc(a.Bits, b.Bits, func(x, y signal.Bit) bool {
		return x.Driver == y.Driver && slices.Equal(x.Sinks, y.Sinks)
	})
}

// copyDesign deep-copies a design, so a session never shares memory with
// its caller: not with the design NewSession gets, nor with one Design
// returns.
func copyDesign(d signal.Design) signal.Design {
	out := d
	out.Groups = make([]signal.Group, len(d.Groups))
	for i, g := range d.Groups {
		out.Groups[i] = copyGroup(g)
	}
	return out
}

// copyGroup deep-copies one signal group.
func copyGroup(g signal.Group) signal.Group {
	out := g
	out.Bits = make([]signal.Bit, len(g.Bits))
	for i, b := range g.Bits {
		nb := b
		nb.Sinks = append([]geom.Point(nil), b.Sinks...)
		out.Bits[i] = nb
	}
	return out
}

// identityMap reports whether m maps every index to itself.
func identityMap(m []int) bool {
	for i, v := range m {
		if v != i {
			return false
		}
	}
	return true
}
