package main

// Lifecycle tests: realMain runs in-process against an in-process
// master, and the test stops it through its signal channel.

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

	"securewebcom/internal/daemon"
	"securewebcom/internal/keys"
	"securewebcom/internal/webcom"
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

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// startMaster runs a master that trusts client and returns it with the
// path of its public-key file.
func startMaster(t *testing.T, dir string, client *keys.KeyPair) (*webcom.Master, string) {
	t.Helper()
	mk := keys.Deterministic("Kmaster", "client-lifecycle")
	mPub := filepath.Join(dir, "master.pub")
	if err := mk.Save(mPub, false); err != nil {
		t.Fatal(err)
	}
	ks := keys.NewKeyStore()
	ks.Add(mk)
	chk, err := daemon.Trust(ks, daemon.WebComActions, client)
	if err != nil {
		t.Fatal(err)
	}
	m := webcom.NewMaster(mk, chk, nil, ks)
	if err := m.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, mPub
}

var subAddrRe = regexp.MustCompile(`embedded sub-master listening on (\S+)`)

// TestClientDrainsOnStop: a stop delivered while the client is
// connected closes it cleanly — the embedded sub-master first, when
// there is one — and the master sees it leave.
func TestClientDrainsOnStop(t *testing.T) {
	for _, sub := range []bool{false, true} {
		name := "plain"
		if sub {
			name = "submaster"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ck := keys.Deterministic("KX", "client-lifecycle")
			keyPath := filepath.Join(dir, "client.key")
			if err := ck.Save(keyPath, true); err != nil {
				t.Fatal(err)
			}
			master, mPub := startMaster(t, dir, ck)
			o := opts{masterAddr: master.Addr(), name: "X", keyPath: keyPath, trustMaster: mPub}
			if sub {
				leafPub := filepath.Join(dir, "leaf.pub")
				if err := keys.Deterministic("Kleaf", "client-lifecycle").Save(leafPub, false); err != nil {
					t.Fatal(err)
				}
				o.subAddr, o.subTrust = "127.0.0.1:0", daemon.Strings{leafPub}
			}

			var out syncBuffer
			stop := make(chan os.Signal, 1)
			done := make(chan error, 1)
			go func() { done <- realMain(o, &out, stop) }()
			waitFor(t, "the client to connect", func() bool { return len(master.Clients()) == 1 })
			var subAddr string
			if sub {
				m := subAddrRe.FindStringSubmatch(out.String())
				if m == nil {
					t.Fatalf("no sub-master announcement in %q", out.String())
				}
				subAddr = m[1]
			}

			stop <- syscall.SIGTERM
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("realMain: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("client did not drain within 10s of SIGTERM")
			}
			got := out.String()
			for _, want := range []string{"webcom-client: terminated received, draining\n", "webcom-client: shutdown complete\n"} {
				if !strings.Contains(got, want) {
					t.Fatalf("output %q lacks %q", got, want)
				}
			}
			waitFor(t, "the master to drop the client", func() bool { return len(master.Clients()) == 0 })
			if sub {
				if c, err := net.Dial("tcp", subAddr); err == nil {
					c.Close()
					t.Fatal("the embedded sub-master still accepts after shutdown")
				}
			}
		})
	}
}
