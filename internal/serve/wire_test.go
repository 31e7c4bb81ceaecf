package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/signal"
)

// checkDecode decodes data into a zero T with the server's decoder and
// with encoding/json, and fails unless the errors read the same and the
// values are DeepEqual and re-encode to the same bytes (DeepEqual does not
// tell -0 from 0).
func checkDecode[T any](t *testing.T, data []byte) {
	t.Helper()
	var want, got T
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	gotErr := new(wire).decode(data, nil, &got)
	if errString(gotErr) != errString(wantErr) {
		t.Fatalf("%T of %q: error %q, encoding/json %q", got, data, errString(gotErr), errString(wantErr))
	}
	if !reflect.DeepEqual(got, want) || !bytes.Equal(marshal(t, got), marshal(t, want)) {
		t.Fatalf("%T of %q:\n got %#v\nwant %#v", got, data, got, want)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzDecodeRequest checks the one-pass decoder against encoding/json on
// every request type it decodes: whatever the body, the decoded value and
// the error must be encoding/json's. The committed seeds cover a benchgen
// design and the inputs the canonical subset must decline.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode[SolveRequest](t, data)
		checkDecode[[]SolveRequest](t, data)
		checkDecode[SessionRequest](t, data)
	})
}

// smallDesign is a benchgen design of a few nets.
func smallDesign(t testing.TB, seed int64) signal.Design {
	t.Helper()
	d, err := benchgen.Generate(benchgen.Spec{
		Name: "wire", DieCM: 2, Groups: 2, BitsPerGroup: 2, BitsJitter: 1,
		MinSinkClusters: 1, MaxSinkClusters: 2, LocalFraction: 0.5,
		LocalSpanCM: 0.3, GlobalSpanCM: 1.0, RegionSpreadCM: 0.02, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// marshal is json.Marshal that fails tb on error.
func marshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestCanonicalAcceptsMarshalled feeds the decoder what json.Marshal
// writes for each request type, every field set, and the bodies a
// serve-mix run sends (inline designs, bench names, batches of both): each
// must decode in one pass, to encoding/json's value.
func TestCanonicalAcceptsMarshalled(t *testing.T) {
	small := smallDesign(t, 1)
	i2 := design(t, "I2")
	neg := smallDesign(t, 2)
	neg.Die.Lo.X = math.Copysign(0, -1)     // "-0"
	neg.Groups[0].Bits[0].Driver.Y = 1e-7   // "1e-07"
	neg.Groups[0].Bits[0].Sinks[0].X = 1e21 // "1e+21"
	one := SolveRequest{Bench: "I1", Design: &small, Mode: "greedy", TimeoutMS: -5, SkipWDM: true, Async: true}
	bodies := map[string]struct {
		body []byte
		into func() any
	}{
		"solve/all-fields": {marshal(t, one), func() any { return new(SolveRequest) }},
		"solve/inline-I2":  {marshal(t, SolveRequest{Design: &i2}), func() any { return new(SolveRequest) }},
		"solve/bench":      {marshal(t, SolveRequest{Bench: "I3"}), func() any { return new(SolveRequest) }},
		"solve/exponents":  {marshal(t, SolveRequest{Design: &neg}), func() any { return new(SolveRequest) }},
		"solve/empty":      {[]byte(`{}`), func() any { return new(SolveRequest) }},
		"batch/mixed": {marshal(t, []SolveRequest{one, {Bench: "I1"}, {Design: &i2}, one}),
			func() any { return new([]SolveRequest) }},
		"batch/empty": {[]byte(` [ ] `), func() any { return new([]SolveRequest) }},
		"session/all-fields": {marshal(t, SessionRequest{Bench: "I2", Design: &small, Mode: "ilp", SkipWDM: true, TimeoutMS: 1 << 40}),
			func() any { return new(SessionRequest) }},
		"session/inline-I2": {marshal(t, SessionRequest{Design: &i2}), func() any { return new(SessionRequest) }},
		"design/empty-lists": {[]byte(`{"design":{"Name":"e","Groups":[{"Name":"g","Bits":[{"Sinks":[]}]}]}}`),
			func() any { return new(SolveRequest) }},
	}
	for name, tc := range bodies {
		got, want := tc.into(), tc.into()
		if !new(wire).canonical(tc.body, got) {
			t.Errorf("%s: the one-pass decoder declined %.80q", name, tc.body)
			continue
		}
		if err := json.Unmarshal(tc.body, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) || !bytes.Equal(marshal(t, got), marshal(t, want)) {
			t.Errorf("%s: decoded %+v, encoding/json %+v", name, got, want)
		}
	}
}

// TestCanonicalDeclines pins inputs outside the canonical subset: the
// one-pass decoder must decline each, leaving it to encoding/json.
func TestCanonicalDeclines(t *testing.T) {
	for _, body := range []string{
		``, ` `, `null`, `{"design":null}`, `{"Bench":"I1"}`, `{"bench":"I1","bench":"I2"}`,
		`{"bench":"I\u0031"}`, `{"bench":"Ī1"}`, `{"timeout_ms":1.0}`, `{"timeout_ms":01}`,
		`{"timeout_ms":1e3}`, `{"timeout_ms":9223372036854775808}`, `{"extra":1}`,
		`{"design":{"Die":{"Lo":{"X":1e400}}}}`, `{"design":{"Die":{"Lo":{"X":-}}}}`,
		`{"design":{"Die":{"Lo":{"X":.5}}}}`, `{"design":{"Die":{"Lo":{"X":1.}}}}`,
		`{"async":tru}`, `{"async":true`, `{"async":"true"}`, `{"bench":"a` + "\t" + `"}`,
		`{"bench":"I1",}`, `[]`, `{"design":{"Groups":[{"Bits":[{"Sinks":[{"X":1},]}]}]}}`,
	} {
		if new(wire).canonical([]byte(body), new(SolveRequest)) {
			t.Errorf("the one-pass decoder accepted %q", body)
		}
	}
}

// TestDecodeStatuses pins the status of every way a body can fail on the
// three endpoints that decode a design: an oversized body (413, counted in
// http.body_too_large), a first value that completes inside the cap with
// trailing bytes past it (decoded as json.Decoder.Decode decodes it, the
// trailing bytes ignored), a stalled body (408) and malformed JSON
// (400 with encoding/json's message).
func TestDecodeStatuses(t *testing.T) {
	t.Parallel()
	const limit = 256
	srv := New(Options{
		Config: operon.DefaultConfig(), QueueLen: 4, Concurrency: 1,
		DefaultTimeout: time.Minute, MaxBodyBytes: limit,
	})
	srv.bodyReadTimeout = testBodyReadTimeout
	ts := httptest.NewServer(srv.Handler())
	defer srv.Shutdown()
	defer ts.Close()

	big := `{"bench":"` + strings.Repeat("x", 4*limit) + `"}`
	past := strings.Repeat(" x", limit) // trailing bytes that cross the cap
	for _, tc := range []struct {
		path, body string
		status     int
		error      string // the error body, or "" for a success
	}{
		{"/solve", big, http.StatusRequestEntityTooLarge, "request body exceeds 256 bytes"},
		{"/solve/batch", "[" + big + "]", http.StatusRequestEntityTooLarge, "request body exceeds 256 bytes"},
		{"/sessions", big, http.StatusRequestEntityTooLarge, "request body exceeds 256 bytes"},
		{"/solve", `{"bench":"nope"}` + past, http.StatusBadRequest, `benchgen: unknown benchmark "nope"`},
		{"/solve/batch", `[{"bench":"nope"}]` + past, http.StatusOK, ""},
		{"/sessions", `{"bench":"nope"}` + past, http.StatusBadRequest, `benchgen: unknown benchmark "nope"`},
		{"/solve", `{nope`, http.StatusBadRequest, "parse request: " + jsonError(`{nope`, new(SolveRequest))},
		{"/solve/batch", `[{"bench":1}]`, http.StatusBadRequest, "parse request: " + jsonError(`[{"bench":1}]`, new([]SolveRequest))},
		{"/sessions", `{"bench":"I1"`, http.StatusBadRequest, "parse request: " + jsonError(`{"bench":"I1"`, new(SessionRequest))},
	} {
		tooLarge := counter(srv, "http.body_too_large")
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		decode(t, resp, &body)
		if resp.StatusCode != tc.status || tc.error != "" && body["error"] != tc.error {
			t.Errorf("%s %.24q: %d %v, want %d %q", tc.path, tc.body, resp.StatusCode, body, tc.status, tc.error)
		}
		counted := counter(srv, "http.body_too_large") - tooLarge
		if want := int64(boolInt(tc.status == http.StatusRequestEntityTooLarge)); counted != want {
			t.Errorf("%s %.24q: http.body_too_large rose by %d, want %d", tc.path, tc.body, counted, want)
		}
	}

	// The stalled uploads run side by side, so the test waits out
	// bodyReadTimeout once.
	paths := []string{"/solve", "/solve/batch", "/sessions"}
	conns := make([]net.Conn, len(paths))
	start := time.Now()
	for k, path := range paths {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[k] = conn
		if _, err := io.WriteString(conn, "POST "+path+" HTTP/1.1\r\nHost: operond\r\n"+
			"Content-Type: application/json\r\nContent-Length: 200\r\n\r\n[{\"bench\":"); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(start.Add(srv.bodyReadTimeout + 3*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	for k, conn := range conns {
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s: no answer %v after a stalled body: %v", paths[k], time.Since(start), err)
		}
		var body map[string]string
		decode(t, resp, &body)
		if resp.StatusCode != http.StatusRequestTimeout || body["error"] == "" {
			t.Errorf("%s: stalled body: %d %v, want 408 with a JSON error", paths[k], resp.StatusCode, body)
		}
	}
}

// jsonError is encoding/json's error for body decoded into v.
func jsonError(body string, v any) string {
	return errString(json.NewDecoder(strings.NewReader(body)).Decode(v))
}

// design generates a named benchgen case.
func design(tb testing.TB, name string) signal.Design {
	tb.Helper()
	spec, err := benchgen.SpecByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := benchgen.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// BenchmarkDecodeRequest decodes an inline-design /solve body of I2 and of
// I3 with the server's decoder and with encoding/json, the decoder before
// it.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, name := range []string{"I2", "I3"} {
		d := design(b, name)
		body := marshal(b, SolveRequest{Design: &d})
		b.Run(name+"/wire", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req SolveRequest
				if err := new(wire).decode(body, nil, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/encoding-json", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req SolveRequest
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
