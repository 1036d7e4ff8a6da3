package main

// End-to-end daemon tests: realMain runs in-process against an
// ephemeral port (-addr 127.0.0.1:0), the test parses the announced
// address from the daemon's output, drives the HTTP surface with real
// clients, and shuts the daemon down through its signal channel.

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"securewebcom/internal/gateway/jwtbridge"
	"securewebcom/internal/keycom"
	"securewebcom/internal/keys"
	"securewebcom/internal/rbac"
)

// lineWriter splits the daemon's output into lines on a channel so the
// test can wait for specific announcements without output/read races.
type lineWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	lines chan string
}

func newLineWriter() *lineWriter {
	return &lineWriter{lines: make(chan string, 64)}
}

func (lw *lineWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.buf.Write(p)
	for {
		i := bytes.IndexByte(lw.buf.Bytes(), '\n')
		if i < 0 {
			return len(p), nil
		}
		line := strings.TrimRight(string(lw.buf.Next(i+1)), "\n")
		select {
		case lw.lines <- line:
		default: // a full channel only drops announcements nobody awaits
		}
	}
}

// daemon runs realMain in a goroutine and hands the test its output
// lines, its stop channel and its exit error.
type daemon struct {
	t     *testing.T
	lines chan string
	stop  chan os.Signal
	errc  chan error
	addr  string
}

func startDaemon(t *testing.T, cfg config) *daemon {
	t.Helper()
	lw := newLineWriter()
	d := &daemon{
		t:     t,
		lines: lw.lines,
		stop:  make(chan os.Signal, 1),
		errc:  make(chan error, 1),
	}
	go func() { d.errc <- realMain(cfg, lw, d.stop) }()
	t.Cleanup(func() {
		select {
		case d.stop <- syscall.SIGTERM:
		default:
		}
		select {
		case <-d.errc:
		case <-time.After(10 * time.Second):
			t.Error("daemon did not exit within 10s of SIGTERM")
		}
	})
	d.addr = strings.TrimPrefix(d.waitLine("authzd listening on "), "authzd listening on ")
	return d
}

// waitLine blocks until a line with the given prefix appears (or the
// daemon exits, or 10s pass) and returns it.
func (d *daemon) waitLine(prefix string) string {
	d.t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		select {
		case line := <-d.lines:
			if strings.HasPrefix(line, prefix) {
				return line
			}
		case err := <-d.errc:
			d.errc <- err
			d.t.Fatalf("daemon exited (%v) before printing %q", err, prefix)
		case <-deadline:
			d.t.Fatalf("no line with prefix %q within 10s", prefix)
		}
	}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func (d *daemon) post(path, token string, body any) (*http.Response, []byte) {
	d.t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		d.t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, d.url(path), bytes.NewReader(buf))
	if err != nil {
		d.t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, raw
}

func mintHS256(t *testing.T, secret []byte, issuer, sub, scope string) string {
	t.Helper()
	tok, err := jwtbridge.Sign("HS256", jwtbridge.Claims{
		Issuer:    issuer,
		Subject:   sub,
		Scope:     scope,
		ExpiresAt: time.Now().Add(time.Hour).Unix(),
	}, secret, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

func TestAuthzdEndToEnd(t *testing.T) {
	dir := t.TempDir()
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		t.Fatal(err)
	}
	secretPath := filepath.Join(dir, "secret.bin")
	if err := os.WriteFile(secretPath, secret, 0o600); err != nil {
		t.Fatal(err)
	}
	admin := keys.Deterministic("Kadmin", "authzd-e2e")
	adminPath := filepath.Join(dir, "admin.pub")
	if err := admin.Save(adminPath, false); err != nil {
		t.Fatal(err)
	}

	d := startDaemon(t, config{
		addr:     "127.0.0.1:0",
		issuer:   "idp.test",
		hsSecret: secretPath,
		admin:    adminPath,
		domain:   "DOMA",
		class:    "SalariesDB.Component",
		role:     "Clerk",
		storeDir: filepath.Join(dir, "store"),
	})
	signerLine := d.waitLine("signer: ")

	// Liveness.
	resp, err := http.Get(d.url("/healthz"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// An admitted token decides; a missing one does not.
	tok := mintHS256(t, secret, "idp.test", "alice", "echo")
	resp, raw := d.post("/v1/decide", tok, map[string]any{"operation": "echo"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: %d %s", resp.StatusCode, raw)
	}
	var dec struct {
		Allowed   bool   `json:"allowed"`
		Epoch     uint64 `json:"epoch"`
		Principal string `json:"principal"`
	}
	if err := json.Unmarshal(raw, &dec); err != nil {
		t.Fatal(err)
	}
	if !dec.Allowed {
		t.Fatalf("admitted principal denied: %s", raw)
	}
	if dec.Principal != "jwt:alice" {
		t.Fatalf("principal %q, want jwt:alice", dec.Principal)
	}
	if resp, raw = d.post("/v1/decide", "", map[string]any{"operation": "echo"}); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless decide: %d %s", resp.StatusCode, raw)
	}

	// Status reports the minting key the daemon announced.
	resp, raw = func() (*http.Response, []byte) {
		r, err := http.Get(d.url("/v1/status"))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r, b
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d %s", resp.StatusCode, raw)
	}
	var st struct {
		Version string `json:"version"`
		Signer  string `json:"signer"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimPrefix(signerLine, "signer: "); st.Signer != want {
		t.Fatalf("status signer %q, announced %q", st.Signer, want)
	}

	// A signed catalogue update commits and advances the epoch.
	upd := keycom.UpdateRequest{
		Requester: admin.PublicID(),
		Diff: rbac.Diff{AddedUserRole: []rbac.UserRoleEntry{
			{User: "jwt:alice", Domain: "DOMA", Role: "Clerk"},
		}},
	}
	if err := upd.Sign(admin); err != nil {
		t.Fatal(err)
	}
	resp, raw = d.post("/v1/credentials", "", &upd)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("credentials: %d %s", resp.StatusCode, raw)
	}
	var ack struct {
		Committed bool   `json:"committed"`
		Epoch     uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.Committed || ack.Epoch <= dec.Epoch {
		t.Fatalf("commit ack %+v, want committed with epoch > %d", ack, dec.Epoch)
	}

	// An unsigned update is refused.
	bad := keycom.UpdateRequest{Requester: admin.PublicID(), Diff: upd.Diff}
	if resp, raw = d.post("/v1/credentials", "", &bad); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unsigned update: %d %s", resp.StatusCode, raw)
	}

	// Telemetry rides along under /debug/.
	resp, err = http.Get(d.url("/debug/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug metrics: %d", resp.StatusCode)
	}

	// Graceful shutdown on signal.
	d.stop <- syscall.SIGTERM
	select {
	case err := <-d.errc:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
		d.errc <- nil // let the cleanup observe the exit too
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain within 10s")
	}
}

// TestAuthzdDemoSecret: with no verification key configured the daemon
// generates and announces an HS256 secret; tokens minted with it are
// admitted, and the credential plane (absent -admin) answers 503.
func TestAuthzdDemoSecret(t *testing.T) {
	d := startDaemon(t, config{addr: "127.0.0.1:0", issuer: "demo"})
	line := d.waitLine("demo hs256 secret: ")
	secret, err := hex.DecodeString(strings.TrimPrefix(line, "demo hs256 secret: "))
	if err != nil {
		t.Fatalf("announced secret %q: %v", line, err)
	}

	tok := mintHS256(t, secret, "demo", "bob", "echo add")
	resp, raw := d.post("/v1/decide", tok, map[string]any{"operation": "add"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: %d %s", resp.StatusCode, raw)
	}

	// Wrong secret is refused.
	bad := mintHS256(t, []byte("not-the-secret"), "demo", "bob", "echo")
	if resp, raw = d.post("/v1/decide", bad, map[string]any{"operation": "echo"}); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("forged token: %d %s", resp.StatusCode, raw)
	}

	upd := keycom.UpdateRequest{Requester: "nobody"}
	if resp, raw = d.post("/v1/credentials", "", &upd); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("credentials without a plane: %d %s", resp.StatusCode, raw)
	}
}

// TestAuthzdServerLimits: a client that never finishes its request
// header is disconnected once readHeaderTimeout passes, an oversized
// header is refused, and a normal decide beside them still succeeds.
func TestAuthzdServerLimits(t *testing.T) {
	d := startDaemon(t, config{addr: "127.0.0.1:0", issuer: "demo"})
	line := d.waitLine("demo hs256 secret: ")
	secret, err := hex.DecodeString(strings.TrimPrefix(line, "demo hs256 secret: "))
	if err != nil {
		t.Fatal(err)
	}

	slow, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := io.WriteString(slow, "POST /v1/decide HTTP/1.1\r\nHost: authzd\r\n"); err != nil {
		t.Fatal(err)
	}

	tok := mintHS256(t, secret, "demo", "bob", "echo")
	if resp, raw := d.post("/v1/decide", tok, map[string]any{"operation": "echo"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("decide beside a slow client: %d %s", resp.StatusCode, raw)
	}

	const slack = 3 * time.Second
	slow.SetReadDeadline(time.Now().Add(readHeaderTimeout + slack))
	if _, err := io.ReadAll(slow); err != nil {
		t.Fatalf("partial-header connection not closed within %v: %v", readHeaderTimeout+slack, err)
	}
	if held := time.Since(start); held < readHeaderTimeout-time.Second {
		t.Fatalf("partial-header connection closed after %v, before the %v header timeout", held, readHeaderTimeout)
	}

	req, err := http.NewRequest(http.MethodGet, d.url("/healthz"), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Padding", strings.Repeat("x", 2*maxHeaderBytes))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized header: %d, want 431", resp.StatusCode)
	}
}
