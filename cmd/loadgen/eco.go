package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"operon/internal/benchgen"
	"operon/internal/obs"
	"operon/internal/serve"
)

// ecoBench is the benchmark the eco mix edits; small enough that an edit
// loop of tens of rounds stays inside the CI budget, large enough that the
// incremental resolve's reuse is visible in the latency split.
const ecoBench = "I3"

// replayEco drives the sticky-session edit loop against base: `sessions`
// concurrent sessions are created (POST /sessions, the cold solve), then
// each replays its own deterministic MoveScript one edit per request
// (POST /sessions/{id}/edit, the incremental resolve), probes a full-reuse
// empty script every eighth round, and finally deletes its session. Each
// session's script derives from seed+index, so the same (n, sessions, seed)
// triple replays byte-identical edit traffic. The report counts every HTTP
// request (creates, edits, deletes); the latency histogram covers the 200s,
// which makes the cold-create vs warm-edit split visible in the quantiles.
// Session solves are queued jobs, so a full queue answers 429; that ends
// the session's script and counts as an error as well as a 429.
func replayEco(base string, n, sessions int, seed int64) (*Report, error) {
	if sessions < 1 {
		sessions = 1
	}
	editsPer := n / sessions
	if editsPer < 1 {
		editsPer = 1
	}
	spec, err := benchgen.SpecByName(ecoBench)
	if err != nil {
		return nil, err
	}
	design, err := benchgen.Generate(spec)
	if err != nil {
		return nil, err
	}

	hist := obs.NewHistogram("client/session", nil)
	var total, ok, tooMany, errs, degraded atomic.Int64

	// request posts one JSON body and folds the outcome into the tallies,
	// returning the decoded session response on 200.
	request := func(path string, body any) (*serve.SessionResponse, bool) {
		total.Add(1)
		buf, err := json.Marshal(body)
		if err != nil {
			errs.Add(1)
			return nil, false
		}
		start := time.Now()
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			errs.Add(1)
			return nil, false
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			hist.RecordDuration(time.Since(start))
			ok.Add(1)
			var sr serve.SessionResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				errs.Add(1)
				return nil, false
			}
			if sr.Degraded {
				degraded.Add(1)
			}
			return &sr, true
		case http.StatusTooManyRequests:
			tooMany.Add(1)
			errs.Add(1)
		default:
			errs.Add(1)
		}
		return nil, false
	}

	start := time.Now()
	var wg sync.WaitGroup
	for si := 0; si < sessions; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sr, sok := request("/sessions", serve.SessionRequest{
				Bench: ecoBench, SkipWDM: true, TimeoutMS: 60_000,
			})
			if !sok {
				return
			}
			ops := benchgen.MoveScript(design, editsPer, seed+int64(si))
			for i, op := range ops {
				body := serve.EditRequest{Edits: []benchgen.EditOp{op}, TimeoutMS: 60_000}
				if i%8 == 7 {
					// Full-reuse probe: an empty script must still 200 fast.
					body.Edits = nil
				}
				if _, eok := request("/sessions/"+sr.SessionID+"/edit", body); !eok {
					return
				}
			}
			// Tear the session down so the run leaves no TTL garbage behind.
			total.Add(1)
			req, err := http.NewRequest(http.MethodDelete, base+"/sessions/"+sr.SessionID, nil)
			if err != nil {
				errs.Add(1)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs.Add(1)
				return
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ok.Add(1)
			} else {
				errs.Add(1)
			}
		}(si)
	}
	wg.Wait()
	dur := time.Since(start)

	snap := hist.Snapshot()
	const ms = 1e6 // histogram values are nanoseconds
	tot := total.Load()
	rep := &Report{
		Requests:      int(tot),
		Concurrency:   sessions,
		DurationS:     dur.Seconds(),
		ThroughputRPS: float64(tot) / dur.Seconds(),
		Counts: ReportCounts{
			OK: ok.Load(), TooMany: tooMany.Load(),
			Errors: errs.Load(), Degraded: degraded.Load(),
		},
		LatencyMS: LatencyMS{
			P50:  snap.Quantile(0.50) / ms,
			P95:  snap.Quantile(0.95) / ms,
			P99:  snap.Quantile(0.99) / ms,
			Mean: snap.Mean() / ms,
		},
	}
	if tot > 0 {
		rep.Rates = ReportRates{
			Error:    float64(rep.Counts.Errors) / float64(tot),
			TooMany:  float64(rep.Counts.TooMany) / float64(tot),
			Degraded: float64(rep.Counts.Degraded) / float64(tot),
		}
	}
	if rep.Counts.OK == 0 {
		return rep, fmt.Errorf("eco mix: no successful requests (%d errors)", rep.Counts.Errors)
	}
	return rep, nil
}
