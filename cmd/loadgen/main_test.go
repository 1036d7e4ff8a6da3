package main

// Smoke tests: the generator runs at small scale against an in-process
// gateway and its summary must account for every request it issued.

import (
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/gateway"
	"securewebcom/internal/gateway/jwtbridge"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
)

var smokeSecret = []byte("loadgen-smoke-secret")

// smokeServer is a minimal authzd: engine + bridge + gateway, rate
// limiting effectively off unless the mutator turns it on.
func smokeServer(t *testing.T, mut func(*gateway.Config)) *httptest.Server {
	t.Helper()
	signer := keys.Deterministic("Kgateway", "loadgen-smoke")
	ks := keys.NewKeyStore()
	ks.Add(signer)
	policy, err := keynote.New("POLICY", fmt.Sprintf("%q", signer.PublicID()), `app_domain=="WebCom";`)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := keynote.NewChecker([]*keynote.Assertion{policy}, keynote.WithResolver(ks))
	if err != nil {
		t.Fatal(err)
	}
	engine := authz.NewEngine(chk)
	bridge, err := jwtbridge.New(&jwtbridge.Verifier{
		Issuer:      "idp.test",
		HS256Secret: smokeSecret,
	}, signer, engine, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gateway.Config{
		Engine:           engine,
		Bridge:           bridge,
		RatePerPrincipal: 1e9,
		Burst:            1e9,
	}
	if mut != nil {
		mut(&cfg)
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw)
	t.Cleanup(ts.Close)
	return ts
}

func smokeConfig(target string) config {
	return config{
		target:    target,
		secretHex: hex.EncodeToString(smokeSecret),
		issuer:    "idp.test",
		users:     1000,
		workers:   8,
		duration:  2 * time.Second,
		requests:  300,
		zipfS:     1.2,
		seed:      1,
		scope:     "echo add",
		queueCap:  64,
	}
}

func TestLoadgenClosedLoopSmoke(t *testing.T) {
	ts := smokeServer(t, nil)
	sum, err := run(smokeConfig(ts.URL), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 {
		t.Fatalf("smoke run saw %d errors: %+v", sum.Errors, sum)
	}
	if sum.OK == 0 {
		t.Fatalf("no admitted requests: %+v", sum)
	}
	if sum.OK+sum.Shed != sum.Requests {
		t.Fatalf("%d ok + %d shed != %d issued", sum.OK, sum.Shed, sum.Requests)
	}
	if sum.P50Ms <= 0 || sum.P99Ms < sum.P50Ms {
		t.Fatalf("quantiles out of order: %+v", sum)
	}
	if sum.DistinctUsers < 1 || sum.DistinctUsers > sum.Users {
		t.Fatalf("distinct users %d out of [1,%d]", sum.DistinctUsers, sum.Users)
	}
	// Zipfian reuse: fewer distinct principals than requests, or the
	// distribution degenerated into uniform.
	if int64(sum.DistinctUsers) >= sum.Requests {
		t.Fatalf("%d distinct users for %d requests: no head reuse", sum.DistinctUsers, sum.Requests)
	}
}

func TestLoadgenBulkSmoke(t *testing.T) {
	ts := smokeServer(t, nil)
	cfg := smokeConfig(ts.URL)
	cfg.bulk = 8
	cfg.requests = 100
	sum, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 || sum.OK == 0 {
		t.Fatalf("bulk smoke: %+v", sum)
	}
}

// TestLoadgenOpenLoopBoundsBacklog: with arrivals far outpacing one
// worker and a tiny queue, the generator must drop arrivals rather than
// queue without bound — and still account for every request.
func TestLoadgenOpenLoopBoundsBacklog(t *testing.T) {
	ts := smokeServer(t, nil)
	cfg := smokeConfig(ts.URL)
	cfg.workers = 1
	cfg.rate = 5000
	cfg.queueCap = 1
	cfg.requests = 0
	cfg.duration = 500 * time.Millisecond
	sum, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 {
		t.Fatalf("open-loop run saw %d errors", sum.Errors)
	}
	if sum.Dropped == 0 {
		t.Fatalf("saturated open loop dropped nothing: %+v", sum)
	}
	if sum.OK+sum.Shed+sum.Dropped != sum.Requests {
		t.Fatalf("%d ok + %d shed + %d dropped != %d arrivals", sum.OK, sum.Shed, sum.Dropped, sum.Requests)
	}
}

func TestLoadgenRefusesBadConfig(t *testing.T) {
	base := smokeConfig("http://127.0.0.1:0")
	for name, mut := range map[string]func(*config){
		"no secret":  func(c *config) { c.secretHex, c.secretFil = "", "" },
		"bad hex":    func(c *config) { c.secretHex = "zz" },
		"flat zipf":  func(c *config) { c.zipfS = 1.0 },
		"no users":   func(c *config) { c.users = 0 },
		"no scope":   func(c *config) { c.scope = "  " },
		"no workers": func(c *config) { c.workers = 0 },
	} {
		cfg := base
		mut(&cfg)
		if _, err := run(cfg, io.Discard); err == nil {
			t.Errorf("%s: run accepted a bad config", name)
		}
	}
}

// TestLoadgenOpenLoopCountsQueueing: arrivals every 10 ms against one
// worker and a server that takes 20 ms per request queue up behind it.
// Latency runs from each arrival's scheduled send time, so p99 must
// show that wait, far above the bare 20 ms service time.
func TestLoadgenOpenLoopCountsQueueing(t *testing.T) {
	const service = 20 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(service)
	}))
	t.Cleanup(ts.Close)
	cfg := smokeConfig(ts.URL)
	cfg.workers = 1
	cfg.rate = 100
	cfg.queueCap = 4096
	cfg.requests = 0
	cfg.duration = 500 * time.Millisecond
	sum, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 || sum.Dropped != 0 || sum.OK != sum.Requests {
		t.Fatalf("every arrival should be served: %+v", sum)
	}
	if floor := 3 * float64(service) / float64(time.Millisecond); sum.P99Ms < floor {
		t.Fatalf("p99 %.1f ms with a %v service time and a growing queue; want above %.0f ms", sum.P99Ms, service, floor)
	}
}
