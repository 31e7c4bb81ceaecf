package serve

import (
	"errors"
	"net/http"
	"time"
)

// BatchItem is one positional result of POST /solve/batch: either a solve
// response or a per-item error. Items never fail the whole batch — a bad
// item (unknown bench, invalid mode) carries its error in place while the
// rest solve normally.
type BatchItem struct {
	SolveResponse
	// Error is set when this item could not be resolved or its solve
	// failed; the other fields are zero then.
	Error string `json:"error,omitempty"`
}

// BatchResponse is the JSON result of POST /solve/batch. Results are
// positional: Results[i] answers the i-th request of the posted array.
type BatchResponse struct {
	// Results holds one item per posted request, in order.
	Results []BatchItem `json:"results"`
	// Items is the posted request count.
	Items int `json:"items"`
	// UniqueSolves counts the distinct instances this batch actually
	// scheduled (after within-batch dedup, coalescing, and cache hits).
	UniqueSolves int `json:"unique_solves"`
	// CacheHits counts items answered from the result cache.
	CacheHits int `json:"cache_hits"`
	// CoalesceJoins counts items that joined another in-flight solve
	// (within the batch or across requests).
	CoalesceJoins int `json:"coalesce_joins"`
	// DupItems counts items deduplicated against an earlier item of the
	// same batch.
	DupItems int `json:"dup_items"`
}

// handleBatch serves POST /solve/batch: an array of SolveRequest bodies is
// fingerprint-deduplicated, the unique instances are packed into one pass
// over the worker pool (enqueues block for a slot instead of 429ing, so a
// batch larger than the queue still completes), and the positional results
// report per-item cached/coalesced provenance. Per-item budgets degrade
// per item; the batch itself only fails on malformed JSON.
//
// A body in the body memo is answered item by item from the result cache
// without decoding; at the first item the cache cannot answer, the body is
// decoded and that item and the rest go the normal way, while the items
// already answered keep their answers. A decoded body whose items all
// resolved is recorded in the memo.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	data, readErr := s.readRequest(w, r)
	key := s.bodyKey("/solve/batch", data, readErr)
	memo := s.memoGet(key)
	var reqs []SolveRequest
	n := 0
	if memo != nil {
		clearReadDeadline(w)
		n = len(memo.items)
	} else {
		if !s.decodeBody(w, data, readErr, &reqs) {
			return
		}
		if len(reqs) == 0 {
			writeJSONError(w, http.StatusBadRequest, "empty batch")
			return
		}
		n = len(reqs)
	}
	s.tracer.Counter("http.batch_requests").Inc()
	s.tracer.Counter("http.batch_items").Add(int64(n))
	reqID := r.Header.Get("X-Request-Id")
	start := time.Now()

	resp := BatchResponse{Results: make([]BatchItem, n), Items: n}
	jobs := make([]*Job, n)         // per-item admitted job (firsts only)
	firstOf := map[[32]byte]int{}   // fingerprint -> first item index
	follower := make([]int, n)      // item -> index it duplicates, or -1
	insts := make([]instance, 0, n) // decoded items, for the memo
	for i := 0; i < n; i++ {
		follower[i] = -1
		var inst instance
		if reqs == nil {
			inst = s.memoInstance(memo.items[i])
		} else {
			if reqs[i].Async {
				resp.Results[i].Error = "async is not supported inside a batch"
				continue
			}
			var err error
			if inst, err = s.resolveInstance(reqs[i]); err != nil {
				resp.Results[i].Error = err.Error()
				continue
			}
			insts = append(insts, inst)
		}
		if first, ok := firstOf[inst.fp]; ok {
			follower[i] = first
			resp.DupItems++
			s.tracer.Counter("http.batch_dup_items").Inc()
			continue
		}
		j, _, err := s.admit(inst, reqID, r.Context(), true)
		if errors.Is(err, errMemoMiss) {
			if !s.decodeBody(w, data, readErr, &reqs) {
				for _, j := range jobs[:i] {
					if j != nil {
						s.DropJob(j)
					}
				}
				return
			}
			i-- // resolve this item again, from its request
			continue
		}
		firstOf[inst.fp] = i
		if err != nil {
			resp.Results[i].Error = err.Error()
			continue
		}
		jobs[i] = j
	}
	switch {
	case memo == nil && len(insts) == n:
		s.memoPut(key, false, insts)
	case reqs == nil:
		s.tracer.Counter("http.body_memo_hits").Inc()
	}

	// One barrier over the unique jobs: every job's done channel closes —
	// by solve completion, per-item degradation, coalesce fan-out, or
	// shutdown failure — so the batch always terminates.
	for i, j := range jobs {
		if j == nil {
			continue
		}
		<-j.done
		s.DropJob(j) // batch items never expose their ID
		v := s.jobView(j)
		if v.State == JobFailed {
			resp.Results[i].Error = v.Error
			continue
		}
		resp.Results[i].SolveResponse = *v.Result
		switch {
		case v.Result.Cached:
			resp.CacheHits++
		case v.Result.Coalesced:
			resp.CoalesceJoins++
		default:
			resp.UniqueSolves++
		}
	}

	// Followers copy their first's outcome with coalesced provenance: they
	// shared its solve the same way a cross-request joiner would have.
	for i, first := range follower {
		if first < 0 {
			continue
		}
		src := resp.Results[first]
		if src.Error != "" {
			resp.Results[i].Error = src.Error
			continue
		}
		item := src
		if !item.Cached {
			item.Coalesced = true
			resp.CoalesceJoins++
		} else {
			resp.CacheHits++
		}
		item.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
		resp.Results[i] = item
	}
	writeJSON(w, http.StatusOK, resp)
}
