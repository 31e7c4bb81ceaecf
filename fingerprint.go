package operon

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"

	"operon/internal/geom"
	"operon/internal/signal"
)

// Fingerprint returns a stable 32-byte content address of a solve instance:
// two (design, cfg) pairs hash equal exactly when RunContext would produce
// the same Result for both (given the same, sufficiently large time budget).
// It is the key of the serving layer's request coalescing and result cache —
// identical instances are detected by content, never by request identity, so
// the cache needs no invalidation.
//
// Every field that can steer the flow participates; fields that only choose
// HOW the identical result is computed do not. The exact split:
//
//	Design (all of it is semantic — every slice is a positional input to the
//	seeded clustering, so order matters by construction, and no maps exist
//	to introduce encoding-order artifacts):
//	  Name                      echoed into Result.Design
//	  Die                       the chip outline
//	  Groups[i].Name            echoed into hyper nets
//	  Groups[i].Bits[j]         driver and sink coordinates, in order
//
//	Config — semantic (participate):
//	  Lib (all fields)          loss/power library; changes every evaluation
//	  Elec (all fields)         electrical power model
//	  PinMergeThresholdCM       §3.1.2 agglomeration radius
//	  MaxBaselines              baseline topologies per hyper net
//	  SubdivideCM               edge-subdivision threshold
//	  MaxCandidates             co-design DP option cap
//	  MaxCandidatesPerNet       merged candidate cap
//	  Mode                      selection algorithm
//	  ILPTimeLimit, ILPMaxNodes exact-solver budgets (bound the incumbent)
//	  LRMaxIters                Lagrangian iteration cap
//	  Seed                      drives the deterministic clustering
//	  SkipWDM                   drops the whole §4 stage
//
//	Config — non-semantic (excluded; results are bit-identical across them):
//	  Workers                   worker-pool size (determinism contract)
//	  Obs                       telemetry sink
//
// fingerprint_test.go walks Config by reflection and fails
// when a new field is added without being classified above, so the split
// cannot silently rot.
//
// The encoding is canonical: a version tag first, every variable-length
// value length-prefixed, floats as IEEE-754 bit patterns, so the hash is
// stable across processes, architectures, and releases that keep the tag.
func Fingerprint(d signal.Design, cfg Config) [32]byte {
	h := fpHasher{h: sha256.New()}
	h.str("operon-fp-v3")

	// Design.
	h.str(d.Name)
	h.rect(d.Die)
	h.num(int64(len(d.Groups)))
	for _, g := range d.Groups {
		h.str(g.Name)
		h.num(int64(len(g.Bits)))
		for _, b := range g.Bits {
			h.pt(b.Driver)
			h.num(int64(len(b.Sinks)))
			for _, p := range b.Sinks {
				h.pt(p)
			}
		}
	}

	// Config: optical library.
	h.f64(cfg.Lib.AlphaDBPerCM)
	h.f64(cfg.Lib.BetaDBPerCrossing)
	h.f64(cfg.Lib.ModulatorPJPerBit)
	h.f64(cfg.Lib.DetectorPJPerBit)
	h.f64(cfg.Lib.BitRateGHz)
	h.num(int64(cfg.Lib.WDMCapacity))
	h.f64(cfg.Lib.MaxLossDB)
	h.f64(cfg.Lib.CrosstalkMinDistCM)
	h.f64(cfg.Lib.AssignMaxDistCM)

	// Config: electrical model.
	h.f64(cfg.Elec.SwitchingFactor)
	h.f64(cfg.Elec.FrequencyGHz)
	h.f64(cfg.Elec.VoltageV)
	h.f64(cfg.Elec.UnitCapPFPerCM)

	// Config: flow knobs.
	h.f64(cfg.PinMergeThresholdCM)
	h.num(int64(cfg.MaxBaselines))
	h.f64(cfg.SubdivideCM)
	h.num(int64(cfg.MaxCandidates))
	h.num(int64(cfg.MaxCandidatesPerNet))
	h.num(int64(cfg.Mode))
	h.num(int64(cfg.ILPTimeLimit))
	h.num(int64(cfg.ILPMaxNodes))
	h.num(cfg.Seed)
	h.bool(cfg.SkipWDM)
	h.num(int64(cfg.LRMaxIters))

	h.flush()
	var out [32]byte
	h.h.Sum(out[:0])
	return out
}

// fpHasher encodes values canonically into a fixed buffer that it writes
// to the hash whenever it fills, so the hash sees a few large writes rather
// than one per value. All multi-byte values are little-endian fixed-width,
// all variable-length values are length-prefixed, so no two distinct field
// sequences share an encoding. The digest depends only on the byte stream,
// not on where the flushes fall.
type fpHasher struct {
	h   hash.Hash
	n   int
	buf [1024]byte
}

// flush writes the buffered bytes to the hash.
func (f *fpHasher) flush() {
	f.h.Write(f.buf[:f.n])
	f.n = 0
}

func (f *fpHasher) u64(v uint64) {
	if f.n+8 > len(f.buf) {
		f.flush()
	}
	binary.LittleEndian.PutUint64(f.buf[f.n:], v)
	f.n += 8
}

func (f *fpHasher) num(v int64) { f.u64(uint64(v)) }

func (f *fpHasher) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fpHasher) bool(v bool) {
	if v {
		f.num(1)
	} else {
		f.num(0)
	}
}

func (f *fpHasher) str(s string) {
	f.num(int64(len(s)))
	for len(s) > 0 {
		if f.n == len(f.buf) {
			f.flush()
		}
		c := copy(f.buf[f.n:], s)
		f.n += c
		s = s[c:]
	}
}

func (f *fpHasher) pt(p geom.Point) { f.f64(p.X); f.f64(p.Y) }

func (f *fpHasher) rect(r geom.Rect) { f.pt(r.Lo); f.pt(r.Hi) }
