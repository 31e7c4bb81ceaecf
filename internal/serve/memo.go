package serve

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"time"

	operon "operon"
)

// The body memo (DESIGN.md §13) maps the bytes of a /solve or /solve/batch
// body to what they resolved to: per item the fingerprint, the mode and
// SkipWDM, and the applied budget. A repeated body whose fingerprints are
// all in the result cache is then answered without decoding it, generating
// a bench design or fingerprinting. The flow is deterministic and the
// decoder is a function of the bytes, so the memo needs no invalidation;
// a fingerprint the cache no longer holds sends the request back to the
// decode path, which still has the bytes.
//
// A memo-resolved instance carries no design. It goes through admit like
// any other, whose cache-hit branch answers it; on a flight hit or a cache
// miss admit returns errMemoMiss instead of joining or enqueueing it.

// errMemoMiss is admit's answer to a memo-resolved instance that the cache
// cannot answer: the caller decodes the body and admits the decoded
// instance.
var errMemoMiss = errors.New("serve: body memo miss")

// bodyMemo is a bounded LRU map from body key to the instances the body
// resolved to. Its capacity is the result cache's, counted in items, so a
// batch of n items costs n. It has no lock of its own: every access holds
// s.mu.
type bodyMemo struct {
	max, items int
	entries    map[[32]byte]*list.Element
	order      *list.List // front = most recently used
}

// memoEntry is one remembered body. It is not changed once stored, so a
// reader may keep it after releasing s.mu.
type memoEntry struct {
	key   [32]byte
	async bool // a /solve body with "async":true
	items []memoItem
}

// memoItem is what one request of a body resolved to.
type memoItem struct {
	fp      [32]byte
	mode    operon.Mode
	skipWDM bool
	timeout time.Duration
}

// bodyKey is a body's memo key; ok is false when the body must not be
// looked up or recorded (the memo is off, or the body was not read whole).
type bodyKey struct {
	sum [32]byte
	ok  bool
}

// newBodyMemo returns a memo holding as many items as the result cache
// holds entries, or nil (memo off) when the cache is off.
func newBodyMemo(cache *resultCache) *bodyMemo {
	if cache == nil {
		return nil
	}
	return &bodyMemo{max: cache.max, entries: map[[32]byte]*list.Element{}, order: list.New()}
}

// bodyKey hashes a version tag, the endpoint and the exact body bytes.
// Only a body read to its end gets a usable key.
func (s *Server) bodyKey(endpoint string, data []byte, readErr error) bodyKey {
	if s.memo == nil || readErr != nil {
		return bodyKey{}
	}
	h := sha256.New()
	h.Write([]byte("operond-body-v1\x00"))
	h.Write([]byte(endpoint))
	h.Write([]byte{0})
	h.Write(data)
	var k bodyKey
	h.Sum(k.sum[:0])
	k.ok = true
	return k
}

// memoGet returns the entry recorded for k and marks it most recently
// used, or nil.
func (s *Server) memoGet(k bodyKey) *memoEntry {
	if !k.ok {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.memo.entries[k.sum]
	if !ok {
		return nil
	}
	s.memo.order.MoveToFront(el)
	return el.Value.(*memoEntry)
}

// memoPut records what a body resolved to, one instance per item, evicting
// the least recently used entries past capacity. A body with more items
// than the capacity is not recorded.
func (s *Server) memoPut(k bodyKey, async bool, insts []instance) {
	m := s.memo
	if !k.ok || len(insts) > m.max {
		return
	}
	e := &memoEntry{key: k.sum, async: async, items: make([]memoItem, len(insts))}
	for i, inst := range insts {
		e.items[i] = memoItem{fp: inst.fp, mode: inst.cfg.Mode, skipWDM: inst.cfg.SkipWDM, timeout: inst.timeout}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := m.entries[k.sum]; ok { // a concurrent request recorded the same bytes
		m.order.MoveToFront(el)
		return
	}
	for m.items+len(e.items) > m.max {
		last := m.order.Back()
		old := m.order.Remove(last).(*memoEntry)
		delete(m.entries, old.key)
		m.items -= len(old.items)
	}
	m.entries[k.sum] = m.order.PushFront(e)
	m.items += len(e.items)
}

// memoInstance rebuilds a memo item's instance, without its design.
func (s *Server) memoInstance(it memoItem) instance {
	cfg := s.cfg
	cfg.Mode, cfg.SkipWDM = it.mode, it.skipWDM
	return instance{cfg: cfg, timeout: it.timeout, fp: it.fp, memo: true}
}
