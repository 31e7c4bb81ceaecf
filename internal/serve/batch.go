package serve

import (
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
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSONError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var reqs []SolveRequest
	if !s.decodeJSON(w, r, &reqs) {
		return
	}
	if len(reqs) == 0 {
		writeJSONError(w, http.StatusBadRequest, "empty batch")
		return
	}
	s.tracer.Counter("http.batch_requests").Inc()
	s.tracer.Counter("http.batch_items").Add(int64(len(reqs)))
	reqID := r.Header.Get("X-Request-Id")
	start := time.Now()

	resp := BatchResponse{Results: make([]BatchItem, len(reqs)), Items: len(reqs)}
	jobs := make([]*Job, len(reqs))    // per-item admitted job (firsts only)
	firstOf := map[[32]byte]int{}      // fingerprint -> first item index
	follower := make([]int, len(reqs)) // item -> index it duplicates, or -1
	for i, req := range reqs {
		follower[i] = -1
		if req.Async {
			resp.Results[i].Error = "async is not supported inside a batch"
			continue
		}
		inst, err := s.resolveInstance(req)
		if err != nil {
			resp.Results[i].Error = err.Error()
			continue
		}
		if first, ok := firstOf[inst.fp]; ok {
			follower[i] = first
			resp.DupItems++
			s.tracer.Counter("http.batch_dup_items").Inc()
			continue
		}
		firstOf[inst.fp] = i
		j, _, err := s.admit(inst, reqID, r.Context(), true)
		if err != nil {
			resp.Results[i].Error = err.Error()
			continue
		}
		jobs[i] = j
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
