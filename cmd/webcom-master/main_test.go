package main

// Lifecycle tests: realMain runs in-process and the test stops it
// through its signal channel, in serve mode and while a -run graph
// waits for its clients.

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"securewebcom/internal/keys"
)

// syncBuffer collects realMain's output while the test polls it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var (
	listenRe  = regexp.MustCompile(`listening on (\S+)`)
	metricsRe = regexp.MustCompile(`telemetry on http://(\S+)/metrics`)
)

// TestMasterDrainsOnStop: SIGINT or SIGTERM drains the master and its
// telemetry listener and exits cleanly, whether it serves or is waiting
// to run a graph.
func TestMasterDrainsOnStop(t *testing.T) {
	dir := t.TempDir()
	clientPub := filepath.Join(dir, "client.pub")
	if err := keys.Deterministic("KX", "master-lifecycle").Save(clientPub, false); err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]string{"serve": "", "run": "echo hi"} {
		t.Run(name, func(t *testing.T) {
			o := opts{addr: "127.0.0.1:0", metricsAddr: "127.0.0.1:0", run: run, waitClients: 1, trust: []string{clientPub}}
			var out syncBuffer
			stop := make(chan os.Signal, 1)
			done := make(chan error, 1)
			go func() { done <- realMain(o, &out, stop) }()
			deadline := time.Now().Add(10 * time.Second)
			for listenRe.FindStringSubmatch(out.String()) == nil {
				if time.Now().After(deadline) {
					t.Fatalf("master never announced its address: %q", out.String())
				}
				time.Sleep(10 * time.Millisecond)
			}
			addr := listenRe.FindStringSubmatch(out.String())[1]
			metrics := metricsRe.FindStringSubmatch(out.String())[1]

			stop <- syscall.SIGINT
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("realMain: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("master did not drain within 10s of SIGINT")
			}
			got := out.String()
			for _, want := range []string{"webcom-master: interrupt received, draining\n", "webcom-master: shutdown complete\n"} {
				if !strings.Contains(got, want) {
					t.Fatalf("output %q lacks %q", got, want)
				}
			}
			for _, a := range []string{addr, metrics} {
				if c, err := net.Dial("tcp", a); err == nil {
					c.Close()
					t.Fatalf("%s still accepts after shutdown", a)
				}
			}
		})
	}
}
