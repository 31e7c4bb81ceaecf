package serve

import (
	"time"

	"operon/internal/obs"
)

// newRegistry builds the server's unified telemetry registry: the shared
// tracer's counters and histograms plus sampled serving gauges (queue
// depth and capacity, in-flight solves, uptime, workspace reuse ratio)
// and the Go runtime gauges (live heap, goroutines, cumulative GC pause).
// Every gauge closure reads lock-free state, so scraping /metrics never
// contends with the solve path.
func newRegistry(s *Server) *obs.Registry {
	reg := obs.NewRegistry(s.tracer)
	reg.Gauge("queue_depth", "Jobs waiting in the bounded queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.Gauge("queue_capacity", "Capacity of the bounded job queue.",
		func() float64 { return float64(cap(s.queue)) })
	reg.Gauge("inflight_solves", "Solves currently executing on workers.",
		func() float64 { return float64(s.inflight.Load()) })
	reg.Gauge("uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	// ws.worker.create / ws.worker.reuse are bumped inside the flow each
	// time a per-worker solver workspace is allocated vs recycled; their
	// ratio is the steady-state health of the allocation-reuse design
	// (→ 1.0 once every queue slot has warmed its workspace).
	create := s.tracer.Counter("ws.worker.create")
	reuse := s.tracer.Counter("ws.worker.reuse")
	reg.Gauge("workspace_reuse_ratio", "Fraction of worker-workspace checkouts served by reuse.",
		func() float64 {
			c, r := create.Value(), reuse.Value()
			if c+r == 0 {
				return 0
			}
			return float64(r) / float64(c+r)
		})
	reg.Gauge("sessions_active", "Live sticky editing sessions.",
		func() float64 { return float64(s.sessionCount()) })
	reg.Gauge("cache_entries", "Live entries in the content-addressed result cache.",
		func() float64 { return float64(s.cacheEntryCount()) })
	reg.Gauge("jobs_tracked", "Jobs pollable on /jobs/{id} or still queued or running.",
		func() float64 { return float64(s.jobCount()) })
	obs.RuntimeGauges(reg)
	return reg
}
