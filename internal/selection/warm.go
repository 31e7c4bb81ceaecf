package selection

// Cross-solve reuse for incremental (ECO) re-synthesis. The crossing
// loss between two candidates is a pure function of the two candidates'
// geometry and the optical library, so cached values survive across solves
// whenever the nets that produced them are carried over unchanged — only the
// net indices move. SeedCrossCache remaps index space; the caller (the root
// package's Session) is responsible for only mapping nets whose candidate
// lists are verbatim reuses of the previous solve.

// SeedCrossCache copies the crossing-loss memo of a previous instance into
// inst for every cached pair whose two nets both survive into the new
// instance. newToPrev[i] gives the previous index of new net i, or -1 when
// the net is new or rebuilt; mapped nets must carry candidate lists reused
// verbatim from the previous solve (same geometry, same order), which the
// bit-identity of the memoised values depends on. Value slices are shared,
// not copied — they are write-once. Returns the number of entries seeded;
// zero (and no seeding) when the libraries differ.
func (inst *Instance) SeedCrossCache(prev *Instance, newToPrev []int) int {
	if prev == nil || inst.Lib != prev.Lib || len(newToPrev) != len(inst.Nets) {
		return 0
	}
	prevToNew := make([]int, len(prev.Nets))
	for i := range prevToNew {
		prevToNew[i] = -1
	}
	for i, pi := range newToPrev {
		if pi >= 0 && pi < len(prev.Nets) {
			prevToNew[pi] = i
		}
	}
	prev.crossMu.RLock()
	defer prev.crossMu.RUnlock()
	inst.crossMu.Lock()
	defer inst.crossMu.Unlock()
	seeded := 0
	for k, v := range prev.crossCache {
		if k.i >= len(prevToNew) || k.m >= len(prevToNew) {
			continue
		}
		ni, nm := prevToNew[k.i], prevToNew[k.m]
		if ni < 0 || nm < 0 {
			continue
		}
		// Defensive bounds: a mapped net must still own the cached candidate
		// indices, and the path count must match the cached vector.
		if k.j >= len(inst.Nets[ni].Cands) || k.n >= len(inst.Nets[nm].Cands) {
			continue
		}
		if len(v) != len(inst.Nets[ni].Cands[k.j].Paths) {
			continue
		}
		inst.crossCache[pairKey{ni, k.j, nm, k.n}] = v
		seeded++
	}
	return seeded
}
