package main

import (
	"encoding/json"
	"time"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/obs"
	"operon/internal/serve"
)

// serveLayers is the per-layer picture of the serving path: /metrics.json
// deltas over the window, client-observed edit latency, and the request
// path's CPU stages timed on the workload's own request bytes. The zero
// value describes a workload that never served a request.
type serveLayers struct {
	before   obs.RegistrySnapshot
	metrics  registryDelta
	scrape   time.Duration
	requests int
	editLat  []float64
	// Per hot /solve request, weighted by the mix: ms spent decoding the
	// body, regenerating a named benchmark, fingerprinting, and encoding
	// the reply. A cache hit is these plus the round trip.
	decode, benchGen, fingerprint, encode float64
}

// registryDelta is the change of the server's counters and histograms
// between two /metrics.json snapshots.
type registryDelta struct {
	counters map[string]int64
	hists    map[string]obs.HistogramSnapshot
}

// diffRegistry returns after minus before.
func diffRegistry(after, before obs.RegistrySnapshot) registryDelta {
	d := registryDelta{counters: map[string]int64{}, hists: map[string]obs.HistogramSnapshot{}}
	for _, c := range after.Counters {
		d.counters[c.Name] += c.Value
	}
	for _, c := range before.Counters {
		d.counters[c.Name] -= c.Value
	}
	base := map[string]obs.HistogramSnapshot{}
	for _, h := range before.Histograms {
		base[h.Name] = h
	}
	for _, h := range after.Histograms {
		if b, ok := base[h.Name]; ok {
			h = h.Sub(b)
		}
		d.hists[h.Name] = h
	}
	return d
}

// put records the serving and session layer metrics.
func (l serveLayers) put(b *bench) {
	c := func(name string) float64 { return float64(l.metrics.counters[name]) }
	q := func(name string, p float64) float64 { return l.metrics.hists[name].Quantile(p) / 1e6 }

	b.put("session.edit_ms_p50", "ms", quantile(l.editLat, 0.50))
	b.put("session.edit_ms_p90", "ms", quantile(l.editLat, 0.90))
	b.put("session.resolve_ms_p50", "ms", q("session/resolve", 0.50))
	b.put("session.cands_reuse_ratio", "ratio", ratio(c("ws.session.reuse/cands"),
		c("ws.session.reuse/cands")+c("ws.session.dirty/cands"), 0))
	b.put("session.crosscache_seeded", "count",
		ratio(c("ws.session.reuse/crosscache"), c("ws.session.resolves"), 0))
	b.put("serve.queue_wait_ms_p90", "ms", q("request/queue_wait", 0.90))
	b.put("serve.solve_ms_p50", "ms", q("request/solve", 0.50))
	b.put("serve.cache_hit_ms_p50", "ms", q("request/cache_hit", 0.50))
	b.put("serve.cache_hit_ratio", "ratio",
		ratio(c("http.cache_hits"), c("http.cache_hits")+c("http.cache_misses"), 0))
	b.put("serve.solves_per_req", "ratio", ratio(c("http.solves_run"), float64(l.requests), 0))
	b.put("serve.coalesce_joins", "count", c("http.coalesce_joins"))
	b.put("serve.rejected", "count", c("http.429"))
	b.put("serve.decode_ms", "ms", l.decode)
	b.put("serve.bench_gen_ms", "ms", l.benchGen)
	b.put("serve.fingerprint_ms", "ms", l.fingerprint)
	b.put("serve.encode_ms", "ms", l.encode)
}

// requestPathRepeats is how many times each hot body is timed; the median
// is kept.
const requestPathRepeats = 5

// timeRequestPath times, outside the window, the CPU stages a cache hit
// costs the server on each hot body: json.Unmarshal into serve.SolveRequest,
// benchgen.Generate for a named benchmark, operon.Fingerprint, and
// json.Marshal of the reply. It weights them by how often blockKinds sends
// each hot kind, split evenly over the kind's instances.
func (l *serveLayers) timeRequestPath(env *mixEnv, cfg operon.Config) error {
	weight := make([]float64, numHot)
	total := 0.0
	for _, kind := range blockKinds {
		if kind < numHot {
			weight[kind]++
			total++
		}
	}
	for kind, insts := range env.hot {
		for _, k := range insts {
			if err := l.timeInstance(env.inst[k], cfg, weight[kind]/total/float64(len(insts))); err != nil {
				return err
			}
		}
	}
	return nil
}

// timeInstance times the request path of one hot instance and adds it to
// the layer means with weight w.
func (l *serveLayers) timeInstance(in instance, cfg operon.Config, w float64) error {
	var dec, gen, fp, enc []float64
	for r := 0; r < requestPathRepeats; r++ {
		start := time.Now()
		var req serve.SolveRequest
		if err := json.Unmarshal(in.body, &req); err != nil {
			return err
		}
		dec = append(dec, ms(time.Since(start)))

		start = time.Now()
		d := in.design
		if req.Bench != "" {
			spec, err := benchgen.SpecByName(req.Bench)
			if err != nil {
				return err
			}
			if d, err = benchgen.Generate(spec); err != nil {
				return err
			}
		} else {
			d = *req.Design
		}
		gen = append(gen, ms(time.Since(start)))

		start = time.Now()
		operon.Fingerprint(d, cfg)
		fp = append(fp, ms(time.Since(start)))

		start = time.Now()
		if _, err := json.Marshal(serve.SolveResponse{Design: d.Name, Flow: "operon-lr", Cached: true}); err != nil {
			return err
		}
		enc = append(enc, ms(time.Since(start)))
	}
	l.decode += w * median(dec)
	l.benchGen += w * median(gen)
	l.fingerprint += w * median(fp)
	l.encode += w * median(enc)
	return nil
}
