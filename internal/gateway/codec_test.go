package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/telemetry"
)

// decodeBody runs the /v1/decide decoder on body with a fresh state.
func decodeBody(body []byte) (decideRequest, error) {
	var d decideState
	err := d.decode(body)
	return d.req, err
}

// sameAttrs compares attribute maps; nil and empty mean the same to the
// gateway.
func sameAttrs(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func sameRequest(a, b decideRequest) bool {
	if a.Operation != b.Operation || !sameAttrs(a.Attributes, b.Attributes) || len(a.Queries) != len(b.Queries) {
		return false
	}
	for i := range a.Queries {
		if a.Queries[i].Operation != b.Queries[i].Operation || !sameAttrs(a.Queries[i].Attributes, b.Queries[i].Attributes) {
			return false
		}
	}
	return true
}

// FuzzDecideBody checks the hand-written /v1/decide decoder against
// encoding/json: every body it accepts must decode to the same request
// under json.Unmarshal, and every body json.Marshal renders from a
// decideRequest (at most MaxBulkQueries queries) must be accepted.
func FuzzDecideBody(f *testing.F) {
	for _, seed := range []string{
		`{"operation":"read"}`,
		`{"operation":"read","attributes":{"num_args":"2","Domain":"Finance"}}`,
		`{"queries":[{"operation":"read"},{"operation":"write","attributes":{"k":"v"}}]}`,
		` { "queries" : [ null , { "operation" : null , "attributes" : null } ] } `,
		`{"operation":"réad😀\ud800x\"\\\/\b\f\n\r\t","attributes":{"a":null}}`,
		"{\"operation\":\"\xff\xfe\"}",
		`{"operation":"read","extra":[1,-2.5e+3,true,false,null,{"x":[{}]},"s"]}`,
		`{"Operation":"read"}`,
		`{"operation":"a","operation":"b"}`,
		`{"attributes":{"a":"1","a":"2"}}`,
		`{"operation":"read"} x`,
		`{"operation":01}`,
		`{"queries":{}}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeBody(body)
		if err == nil {
			var want decideRequest
			if jerr := json.Unmarshal(body, &want); jerr != nil {
				t.Fatalf("decoder accepted %q, json.Unmarshal refuses it: %v", body, jerr)
			}
			if !sameRequest(got, want) {
				t.Fatalf("%q decodes to %+v, json.Unmarshal to %+v", body, got, want)
			}
		}
		var ref decideRequest
		if json.Unmarshal(body, &ref) != nil || len(ref.Queries) > MaxBulkQueries {
			return
		}
		canon, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeBody(canon)
		if err != nil {
			t.Fatalf("decoder refuses json.Marshal output %q: %v", canon, err)
		}
		if !sameRequest(again, ref) {
			t.Fatalf("%q decodes to %+v, want %+v", canon, again, ref)
		}
	})
}

// TestDecodeRefusesAtQueryBound: a bulk batch is refused at query
// MaxBulkQueries+1, while it is parsed.
func TestDecodeRefusesAtQueryBound(t *testing.T) {
	body := func(n int) []byte {
		return []byte(`{"queries":[` + strings.Repeat(`{"operation":"echo"},`, n-1) + `{"operation":"echo"}]}`)
	}
	if req, err := decodeBody(body(MaxBulkQueries)); err != nil || len(req.Queries) != MaxBulkQueries {
		t.Fatalf("%d queries: %d decoded, err %v", MaxBulkQueries, len(req.Queries), err)
	}
	if _, err := decodeBody(body(MaxBulkQueries + 1)); !errors.Is(err, errTooManyQueries) {
		t.Fatalf("%d queries: err %v, want errTooManyQueries", MaxBulkQueries+1, err)
	}
}

// TestDecodeNestingBound: an unknown member's value is skipped up to
// encoding/json's nesting bound (10000, the top-level object included)
// and refused past it, as json.Unmarshal refuses it.
func TestDecodeNestingBound(t *testing.T) {
	for _, depth := range []int{9999, 10000} {
		body := []byte(`{"operation":"echo","x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`)
		_, err := decodeBody(body)
		var ref decideRequest
		jerr := json.Unmarshal(body, &ref)
		if (err == nil) != (jerr == nil) {
			t.Fatalf("value nested %d deep: decoder err %v, json.Unmarshal err %v", depth, err, jerr)
		}
	}
}

// TestDecodeUnknownMembersCheap: skipping unknown members allocates
// nothing per member, so a body at DefaultMaxBodyBytes made only of
// small unknown members, plain or escaped and repeated, costs a few
// allocations in all.
func TestDecodeUnknownMembersCheap(t *testing.T) {
	for _, member := range []string{`"x":0,`, `"\u0078":[{"y":"\n"}],`} {
		n := (DefaultMaxBodyBytes - 64) / len(member)
		body := []byte(`{` + strings.Repeat(member, n) + `"operation":"echo"}`)
		var d decideState
		allocs := testing.AllocsPerRun(3, func() {
			d = decideState{}
			if err := d.decode(body); err != nil || d.req.Operation != "echo" {
				t.Fatalf("%d members %s: operation %q, err %v", n, member, d.req.Operation, err)
			}
		})
		if allocs > 4 {
			t.Errorf("%d members %s: decoding allocates %.0f times, ceiling 4", n, member, allocs)
		}
	}
}

// TestDecideRepliesMatchEncoder: the hand-encoded replies are
// byte-identical to json.Encoder's rendering of decideResponse and
// bulkResponse, HTML escaping and trailing newline included.
func TestDecideRepliesMatchEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"", "true", "false", "jwt:alice", "<b>&amp;</b>", `"q"`, `\`, "\n\t\x01\x7f",
		"é", "  ", "\xff", "😀", "a/b+c@d:e", " "}
	str := func() string {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	decision := func() *authz.Decision {
		return &authz.Decision{Allowed: rng.Intn(2) == 0, Value: str(), Trace: authz.Trace{CacheHit: rng.Intn(2) == 0}}
	}
	result := func(d *authz.Decision) decideResult {
		return decideResult{Allowed: d.Allowed, Value: d.Value, CacheHit: d.Trace.CacheHit}
	}
	for i := 0; i < 2000; i++ {
		epoch, principal := rng.Uint64()>>uint(rng.Intn(64)), str()
		d := decision()
		got := appendDecideReply(nil, d, epoch, principal)
		want := encode(decideResponse{decideResult: result(d), Epoch: epoch, Principal: principal})
		if !bytes.Equal(got, want) {
			t.Fatalf("single reply:\n got %q\nwant %q", got, want)
		}
		ds := make([]*authz.Decision, 1+rng.Intn(5))
		wire := bulkResponse{Decisions: make([]decideResult, len(ds)), Epoch: epoch, Principal: principal}
		for j := range ds {
			ds[j] = decision()
			wire.Decisions[j] = result(ds[j])
		}
		if got, want := appendBulkReply(nil, ds, epoch, principal), encode(wire); !bytes.Equal(got, want) {
			t.Fatalf("bulk reply:\n got %q\nwant %q", got, want)
		}
	}
}

// TestDecideLatencyIsMonotonic: gateway.decide.latency is timed on the
// monotonic clock, so a policy clock pinned in the past does not record
// months per request.
func TestDecideLatencyIsMonotonic(t *testing.T) {
	f := newFixture(t, nil) // Now is pinned to e2eNow
	if time.Since(e2eNow) < time.Hour {
		t.Skip("the pinned clock is not in the past")
	}
	tok := f.token("alice", "echo")
	for i := 0; i < 3; i++ {
		if _, resp := f.decide(tok, "echo", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("decide: status %d", resp.StatusCode)
		}
	}
	snap := f.tel.Histogram("gateway.decide.latency").Snapshot()
	if snap.Count != 3 || snap.P99 >= 1 {
		t.Fatalf("gateway.decide.latency: %d samples, p99 %.3gs; want 3 samples under 1s", snap.Count, snap.P99)
	}
}

// rewindBody is a request body that can be replayed.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// replyRecorder is a reusable ResponseWriter keeping the last reply.
type replyRecorder struct {
	h    http.Header
	code int
	body []byte
}

func (w *replyRecorder) Header() http.Header  { return w.h }
func (w *replyRecorder) WriteHeader(code int) { w.code = code }
func (w *replyRecorder) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

// raceBuild reports whether the test binary runs under the race
// detector, whose sync.Pool drops items at random.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestDecideCacheHitAllocs holds the allocation count of a warm
// /v1/decide through ServeHTTP, every cache hitting and a Tracer
// recording spans, under a ceiling: the measured count (13 single, 52
// bulk-32; the spans make 9 and 16 of them, the decoded operation
// strings 1 and 32) plus a little headroom. The harness reuses its
// request and writer, so the count is the handler's own.
func TestDecideCacheHitAllocs(t *testing.T) {
	if testing.Short() || raceBuild() {
		t.Skip("alloc ceiling skipped in -short and under -race")
	}
	f := newFixture(t, func(c *Config) {
		c.Tracer = telemetry.NewTracer(0)
		c.RatePerPrincipal, c.Burst = 1e12, 1e12
	})
	tok := f.token("alice", "echo add")
	bulk := decideRequest{}
	for i := 0; i < 32; i++ {
		bulk.Queries = append(bulk.Queries, decideQuery{Operation: []string{"echo", "add", "transfer"}[i%3]})
	}
	for _, tc := range []struct {
		name    string
		body    any
		ceiling float64
	}{
		{"single", decideRequest{Operation: "echo"}, 15},
		{"bulk-32", bulk, 56},
	} {
		body, err := json.Marshal(tc.body)
		if err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/decide", rewindBody{rd})
		req.Header.Set("Authorization", "Bearer "+tok)
		w := &replyRecorder{h: http.Header{}}
		serve := func() {
			rd.Reset(body)
			w.code, w.body = 0, w.body[:0]
			f.srv.ServeHTTP(w, req)
		}
		for i := 0; i < 3; i++ { // warm every cache and pool
			serve()
		}
		allocs := testing.AllocsPerRun(200, serve)
		if w.code != http.StatusOK || !bytes.Contains(w.body, []byte(`"cache_hit":true`)) ||
			bytes.Contains(w.body, []byte(`"cache_hit":false`)) {
			t.Fatalf("%s: status %d, reply %s; want a 200 of cache hits", tc.name, w.code, w.body)
		}
		if allocs > tc.ceiling {
			t.Errorf("%s: a cache-hit decide allocates %.0f times, ceiling %.0f", tc.name, allocs, tc.ceiling)
		} else {
			t.Logf("%s: %.0f allocs per cache-hit decide (ceiling %.0f)", tc.name, allocs, tc.ceiling)
		}
	}
}
