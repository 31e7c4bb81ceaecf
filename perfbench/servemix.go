package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/obs"
	"operon/internal/optics/bpm"
	"operon/internal/serve"
	"operon/internal/signal"
)

// serve-mix: two closed-loop callers each replay their own seeded sequence
// of callerRate requests per second of --seconds against operond's handler
// on a loopback listener. A sequence repeats shuffled blocks of blockKinds
// (hot /solve requests that hit the result cache, one-pin session edits, a
// /solve/batch with duplicates) and, at evenly spaced positions, sends a
// cold inline design instead. At even cold slots both callers meet and send
// the same design, so one of them coalesces onto the other's solve. A fixed
// sequence, not a fixed time, keeps a run's work the same on a slow host and
// a fast one, and with it operond's memory, which grows with every request.

// callers is the number of concurrent closed-loop callers (nproc on the
// reference host).
const callers = 2

// Hot request kinds: the result cache holds their instances after set-up.
const (
	hotBenchI1  = iota // {"bench":"I1"}: the server regenerates the design
	hotBenchI3         // {"bench":"I3"}
	hotInlineI2        // a seeded I2-spec design sent inline (~220 KB)
	hotInlineI3        // a seeded I3-spec design sent inline (~560 KB)
	numHot
)

// hotSpecs names each hot kind's benchgen spec.
var hotSpecs = [numHot]string{hotBenchI1: "I1", hotBenchI3: "I3", hotInlineI2: "I2", hotInlineI3: "I3"}

// Request kinds besides the hot /solve requests.
const (
	opEdit = numHot + iota
	opBatch
	opCold
)

// blockKinds is one caller block: every caller repeats a seeded shuffle of
// it, so the mix is the same for every seed.
var blockKinds = []int{
	hotBenchI1, hotBenchI1, hotBenchI1, hotBenchI1,
	hotBenchI3, hotBenchI3, hotBenchI3,
	hotInlineI2, hotInlineI2, hotInlineI2,
	hotInlineI3, hotInlineI3, hotInlineI3,
	opEdit, opEdit, opEdit, opEdit, opEdit, opEdit,
	opBatch,
}

const (
	// callerRate sizes each caller's sequence: requests per second of
	// --seconds, about what one caller completes on the reference host.
	callerRate = 65
	// coldEvery spaces the cold slots through a sequence (at least two).
	coldEvery = 300
	// batchVariants is how many distinct batch bodies a run cycles through.
	batchVariants = 4
	// editCheckEvery picks which session edits are re-checked, after the
	// window, against a cold solve of the edited design.
	editCheckEvery = 64
	// editScript is the length of each session's pre-generated move
	// script; callers wrap around it (moves are absolute positions).
	editScript = 4096
	// inlineVariants and sessionsPerCaller set how many seeded designs
	// stand behind each inline hot kind and each caller's edits. A design's
	// hit and edit costs vary with its seed, so more than one per kind
	// keeps a run's mix from resting on a single draw.
	inlineVariants    = 2
	sessionsPerCaller = 2
)

// instance is one solve input the mix sends: its request body and the
// design a library solve checks the response against.
type instance struct {
	name   string
	design signal.Design
	body   []byte
}

// mixEnv is one set-up of serve-mix: the generated inputs, the running
// server with its sessions open, and the warmed result cache.
type mixEnv struct {
	inst     []instance    // the hot instances, then the cold ones
	hot      [numHot][]int // instance indices per hot kind
	cold     [][callers]int
	meet     []sync.WaitGroup // per cold slot; shared slots hold every caller
	batches  [][]int          // instance index per batch item
	batchReq [][]byte         // request body per batch
	sessions [callers][sessionsPerCaller]string
	origin   [callers][sessionsPerCaller]signal.Design // before any edit
	moves    [callers][sessionsPerCaller][]benchgen.EditOp

	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	client  *client
}

// record is one request as the caller saw it.
type record struct {
	kind     int
	status   int
	err      error
	keys     []int     // instance answered per item (hot and cold requests, batches)
	powers   []float64 // power_mw per item
	degraded bool
	check    *signal.Design // edited design to re-check (every editCheckEvery-th edit)
}

// runServeMix drives the serve-mix workload.
func runServeMix(b *bench) error {
	cfg := operon.DefaultConfig()
	env, err := setUp(b, func() (*mixEnv, error) { return newMixEnv(b, cfg) }, (*mixEnv).close)
	if err != nil {
		return err
	}
	defer env.close()

	var layers serveLayers
	if b.traced {
		if layers.before, layers.scrape, err = env.client.scrape(); err != nil {
			return err
		}
	}
	b.probeHost()
	rt := readRuntime()
	recs := make([][]record, callers)
	lats := make([][]float64, callers)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			recs[c], lats[c] = env.caller(b, c)
		}(c)
	}
	wg.Wait()
	busy := time.Since(start)
	var lat []float64
	for _, l := range lats {
		lat = append(lat, l...)
	}
	b.putRuntime(rt, len(lat))
	b.probeHost()
	if b.traced {
		after, took, err := env.client.scrape()
		if err != nil {
			return err
		}
		layers.metrics = diffRegistry(after, layers.before)
		layers.scrape += took
		layers.requests = len(lat)
		b.put("trace.overhead_pct", "%", 100*ratio(ms(layers.scrape), ms(busy), 0))
	}
	b.putLatency(lat, busy)

	// Checks, outside the window: every response against a library solve of
	// the same instance, every editCheckEvery-th edit against a cold solve of
	// the edited design.
	var solveTrace *solveLayers
	if b.traced {
		solveTrace = &solveLayers{}
	}
	ws := operon.NewWorkspace()
	ref := map[int]float64{}
	refOf := func(k int) (float64, error) {
		if p, ok := ref[k]; ok {
			return p, nil
		}
		res, _, err := solve(b.ctx, env.inst[k].design, cfg, ws, solveTrace)
		if err != nil {
			return 0, err
		}
		ref[k] = res.PowerMW
		return res.PowerMW, nil
	}
	served := map[int]bool{}
	for c := range recs {
		for i, r := range recs[c] {
			b.attempted++
			if r.kind == opEdit {
				layers.editLat = append(layers.editLat, lats[c][i])
			}
			switch {
			case r.err != nil:
				b.fail("caller %d: %v", c, r.err)
				continue
			case r.status/100 != 2:
				b.fail("caller %d: HTTP %d", c, r.status)
				continue
			case r.degraded:
				b.fail("caller %d: degraded response", c)
				continue
			}
			if r.kind == opEdit {
				if r.check != nil {
					res, _, err := solve(b.ctx, *r.check, cfg, ws, solveTrace)
					if err != nil {
						b.fail("caller %d: cold solve of an edited design: %v", c, err)
					} else if res.PowerMW != r.powers[0] {
						b.fail("caller %d: edit power %v, cold solve of the edited design %v", c, r.powers[0], res.PowerMW)
					}
				}
				continue
			}
			for _, k := range r.keys {
				served[k] = true
			}
			for i, k := range r.keys {
				want, err := refOf(k)
				if err != nil {
					b.fail("caller %d: library solve of %s: %v", c, env.inst[k].name, err)
					break
				}
				if r.powers[i] != want {
					b.fail("caller %d: %s power %v, library solve %v", c, env.inst[k].name, r.powers[i], want)
					break
				}
			}
		}
	}
	total := 0.0 // summed in instance order, so the same seed gives the same bits
	for k := range env.inst {
		if served[k] {
			total += ref[k]
		}
	}
	b.put("power_mw", "mW", total)

	if b.traced {
		if err := layers.timeRequestPath(env, cfg); err != nil {
			return err
		}
	}
	layers.put(b)
	if solveTrace == nil {
		solveTrace = &solveLayers{}
	}
	solveTrace.put(b)
	return nil
}

// newMixEnv generates the inputs, boots the server, opens each caller's
// sessions and warms the result cache with every hot instance.
func newMixEnv(b *bench, cfg operon.Config) (*mixEnv, error) {
	bpm.ResetSimulationCache()
	env := &mixEnv{}
	gen := func(name string, stream, i int) (signal.Design, error) {
		spec, err := benchgen.SpecByName(name)
		if err != nil {
			return signal.Design{}, err
		}
		spec.Seed = derive(b.seed, stream, i)
		spec.Name = fmt.Sprintf("%s.s%d.%d", name, stream, i)
		return benchgen.Generate(spec)
	}
	addInline := func(d signal.Design) (int, error) {
		body, err := json.Marshal(serve.SolveRequest{Design: &d})
		if err != nil {
			return 0, err
		}
		env.inst = append(env.inst, instance{name: d.Name, design: d, body: body})
		return len(env.inst) - 1, nil
	}
	for kind, name := range hotSpecs {
		if kind == hotBenchI1 || kind == hotBenchI3 {
			spec, err := benchgen.SpecByName(name)
			if err != nil {
				return nil, err
			}
			d, err := benchgen.Generate(spec)
			if err != nil {
				return nil, err
			}
			body, err := json.Marshal(serve.SolveRequest{Bench: name})
			if err != nil {
				return nil, err
			}
			env.hot[kind] = []int{len(env.inst)}
			env.inst = append(env.inst, instance{name: "bench " + name, design: d, body: body})
			continue
		}
		for v := 0; v < inlineVariants; v++ {
			d, err := gen(name, streamServeHot, kind*inlineVariants+v)
			if err != nil {
				return nil, err
			}
			k, err := addInline(d)
			if err != nil {
				return nil, err
			}
			env.hot[kind] = append(env.hot[kind], k)
		}
	}
	hotInst := len(env.inst)
	slots := max(2, sequenceLen(b)/coldEvery)
	env.cold = make([][callers]int, slots)
	env.meet = make([]sync.WaitGroup, slots)
	for s := range env.cold {
		for c := 0; c < callers; c++ {
			if s%2 == 0 && c > 0 { // shared slot: every caller sends the same design
				env.cold[s][c] = env.cold[s][0]
				continue
			}
			if s%2 == 0 {
				env.meet[s].Add(callers)
			}
			d, err := gen("I2", streamServeCold, s*callers+c)
			if err != nil {
				return nil, err
			}
			if env.cold[s][c], err = addInline(d); err != nil {
				return nil, err
			}
		}
	}
	rng := rand.New(rand.NewSource(derive(b.seed, streamServeCaller, callers)))
	for v := 0; v < batchVariants; v++ {
		p := rng.Perm(hotInst)
		items := []int{p[0], p[1], p[0], p[2], p[1]}
		var buf bytes.Buffer
		buf.WriteByte('[')
		for i, k := range items {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.Write(env.inst[k].body)
		}
		buf.WriteByte(']')
		env.batches = append(env.batches, items)
		env.batchReq = append(env.batchReq, buf.Bytes())
	}

	// operond's defaults: concurrency 2, queue 64, result cache 256.
	env.srv = serve.New(serve.Options{
		Config:         cfg,
		QueueLen:       64,
		Concurrency:    2,
		DefaultTimeout: time.Minute,
		MaxTimeout:     10 * time.Minute,
		CacheEntries:   256,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.srv.Shutdown()
		return nil, err
	}
	env.httpSrv = &http.Server{Handler: env.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	env.served = make(chan error, 1)
	go func() { env.served <- env.httpSrv.Serve(ln) }()
	env.client = newClient("http://" + ln.Addr().String())

	for c := 0; c < callers; c++ {
		for s := 0; s < sessionsPerCaller; s++ {
			i := c*sessionsPerCaller + s
			d, err := gen("I3", streamServeSession, i)
			if err != nil {
				env.close()
				return nil, err
			}
			body, err := json.Marshal(serve.SessionRequest{Design: &d})
			if err != nil {
				env.close()
				return nil, err
			}
			var resp serve.SessionResponse
			if status, _, err := env.client.post("/sessions", body, &resp); err != nil || status != http.StatusOK {
				env.close()
				return nil, fmt.Errorf("open session: HTTP %d: %v", status, err)
			}
			env.sessions[c][s] = resp.SessionID
			env.origin[c][s] = d
			env.moves[c][s] = benchgen.MoveScript(d, editScript, derive(b.seed, streamServeEdits, i))
		}
	}
	for k := 0; k < hotInst; k++ {
		var resp serve.SolveResponse
		if status, _, err := env.client.post("/solve", env.inst[k].body, &resp); err != nil || status != http.StatusOK {
			env.close()
			return nil, fmt.Errorf("warm %s: HTTP %d: %v", env.inst[k].name, status, err)
		}
	}
	return env, nil
}

// sequenceLen is the number of requests each caller sends.
func sequenceLen(b *bench) int {
	return callerRate * int(b.window/time.Second)
}

// close stops the listener and the server and waits for both.
func (env *mixEnv) close() {
	if env.httpSrv == nil {
		return
	}
	env.srv.Abort()
	_ = env.httpSrv.Close() // the Serve error below is the one that matters
	env.srv.Shutdown()
	if err := <-env.served; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
	}
	env.client.hc.CloseIdleConnections()
	env.httpSrv = nil
}

// caller replays caller c's sequence, one request at a time, and returns
// its records and per-request latencies in ms (one per record).
func (env *mixEnv) caller(b *bench, c int) ([]record, []float64) {
	rng := rand.New(rand.NewSource(derive(b.seed, streamServeCaller, c)))
	var mirrors [sessionsPerCaller]*operon.Session
	for s := range mirrors {
		mirrors[s] = operon.NewSession(env.origin[c][s], operon.DefaultConfig())
	}
	block := append([]int(nil), blockKinds...)
	var (
		recs  []record
		lats  []float64
		sent  [numHot]int
		edits int
		slot  int
	)
	n, slots := sequenceLen(b), len(env.cold)
	for i := 0; i < n; i++ {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(x, y int) { block[x], block[y] = block[y], block[x] })
		}
		kind := block[i%len(block)]
		if slot < slots && i == (2*slot+1)*n/(2*slots) {
			kind = opCold
		}
		r := record{kind: kind}
		var lat time.Duration
		switch kind {
		case opEdit:
			s := edits % sessionsPerCaller
			op := env.moves[c][s][edits/sessionsPerCaller%editScript]
			edits++
			ops, err := operon.EditsFromOps([]benchgen.EditOp{op})
			if err == nil {
				_, err = mirrors[s].Apply(ops...)
			}
			if err != nil {
				r.err = fmt.Errorf("mirror edit: %w", err)
				break
			}
			body, err := json.Marshal(serve.EditRequest{Edits: []benchgen.EditOp{op}})
			if err != nil {
				r.err = err
				break
			}
			var resp serve.SessionResponse
			r.status, lat, r.err = env.client.post("/sessions/"+env.sessions[c][s]+"/edit", body, &resp)
			r.powers, r.degraded = []float64{resp.PowerMW}, resp.Degraded
			if edits%editCheckEvery == 0 {
				d := mirrors[s].Design()
				r.check = &d
			}
		case opBatch:
			v := rng.Intn(len(env.batches))
			var resp serve.BatchResponse
			r.status, lat, r.err = env.client.post("/solve/batch", env.batchReq[v], &resp)
			r.keys = env.batches[v]
			if r.err == nil && r.status == http.StatusOK && len(resp.Results) != len(r.keys) {
				r.err = fmt.Errorf("batch: %d results for %d items", len(resp.Results), len(r.keys))
			}
			for _, it := range resp.Results {
				if it.Error != "" && r.err == nil {
					r.err = fmt.Errorf("batch item: %s", it.Error)
				}
				r.powers = append(r.powers, it.PowerMW)
				r.degraded = r.degraded || it.Degraded
			}
		default:
			var k int
			if kind == opCold {
				k = env.cold[slot][c]
				if slot%2 == 0 {
					env.meet[slot].Done()
					env.meet[slot].Wait()
				}
				slot++
			} else {
				k = env.hot[kind][sent[kind]%len(env.hot[kind])]
				sent[kind]++
			}
			var resp serve.SolveResponse
			r.status, lat, r.err = env.client.post("/solve", env.inst[k].body, &resp)
			r.keys, r.powers, r.degraded = []int{k}, []float64{resp.PowerMW}, resp.Degraded
		}
		recs = append(recs, r)
		lats = append(lats, ms(lat))
	}
	return recs, lats
}

// client is a keep-alive HTTP client for the loopback server.
type client struct {
	base string
	hc   *http.Client
}

// newClient returns a client for the server at base with one idle
// connection per caller plus one for the metrics scrapes.
func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: callers + 1, DisableCompression: true},
	}}
}

// post sends body and decodes a 2xx reply into out. The latency runs from
// the send to the last byte of the reply; decoding is not part of it.
func (c *client) post(path string, body []byte, out any) (int, time.Duration, error) {
	start := time.Now()
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return resp.StatusCode, lat, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, lat, nil
	}
	return resp.StatusCode, lat, json.Unmarshal(data, out)
}

// scrape reads /metrics.json and reports how long the read took.
func (c *client) scrape() (obs.RegistrySnapshot, time.Duration, error) {
	start := time.Now()
	var snap obs.RegistrySnapshot
	resp, err := c.hc.Get(c.base + "/metrics.json")
	if err != nil {
		return snap, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, 0, fmt.Errorf("/metrics.json: HTTP %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, time.Since(start), err
}
