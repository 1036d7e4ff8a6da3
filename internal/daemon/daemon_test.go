package daemon

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"securewebcom/internal/netserve"
)

// leakCheck fails the test if goroutines started during it outlive its
// teardown.
func leakCheck(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= base {
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d at start, %d after teardown\n%s",
			base, runtime.NumGoroutine(), buf[:n])
	})
}

// syncBuffer collects a daemon's output from several goroutines.
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

// requestServer is a netserve server whose every connection is one
// admitted request: it is admitted on the first byte and ends when
// release closes, or when the connection is severed.
type requestServer struct {
	netserve.Server
	admitted chan struct{}
	release  chan struct{}
	ended    chan struct{}
}

func startRequestServer(t *testing.T) (*requestServer, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &requestServer{admitted: make(chan struct{}), release: make(chan struct{}), ended: make(chan struct{})}
	s.Serve(ln, func(c net.Conn) {
		var b [1]byte
		if _, err := c.Read(b[:]); err != nil || !s.Begin() {
			return
		}
		defer close(s.ended)
		defer s.End()
		close(s.admitted)
		severed := make(chan struct{})
		go func() {
			c.Read(b[:])
			close(severed)
		}()
		select {
		case <-s.release:
			c.Close()
		case <-severed:
		}
		<-severed
	})
	return s, ln.Addr().String()
}

// sendRequest opens one request and waits until the server admitted it.
func (s *requestServer) sendRequest(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("request never admitted")
	}
	return c
}

// closeRecorder is a closer with no drain that notes it was closed.
type closeRecorder struct{ closed chan struct{} }

func (c *closeRecorder) Close() error { close(c.closed); return nil }

func TestShutdownWaitsForAdmittedRequest(t *testing.T) {
	leakCheck(t)
	srv, addr := startRequestServer(t)
	srv.sendRequest(t, addr)
	after := &closeRecorder{closed: make(chan struct{})}

	var out syncBuffer
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- run("testd", &out, stop, nil, 5*time.Second, []io.Closer{srv, after}) }()
	stop <- syscall.SIGTERM

	select {
	case err := <-done:
		t.Fatalf("run returned (%v) while a request was in flight", err)
	case <-after.closed:
		t.Fatal("a later closer closed before the server drained")
	case <-time.After(100 * time.Millisecond):
	}
	close(srv.release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after the request ended")
	}
	select {
	case <-srv.ended:
	default:
		t.Fatal("run returned before the admitted request ended")
	}
	<-after.closed
	want := "testd: terminated received, draining\ntestd: shutdown complete\n"
	if got := out.String(); got != want {
		t.Fatalf("output %q, want %q", got, want)
	}
}

func TestDrainPastTimeoutSevers(t *testing.T) {
	leakCheck(t)
	srv, addr := startRequestServer(t)
	srv.sendRequest(t, addr)

	var out syncBuffer
	stop := make(chan os.Signal, 1)
	stop <- syscall.SIGINT
	const timeout = 100 * time.Millisecond
	start := time.Now()
	if err := run("testd", &out, stop, nil, timeout, []io.Closer{srv}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > timeout+2*time.Second {
		t.Fatalf("drain took %v with a %v bound", took, timeout)
	}
	select {
	case <-srv.ended:
	default:
		t.Fatal("run returned before the severed request ended")
	}
	got := out.String()
	for _, want := range []string{"testd: interrupt received, draining\n", "testd: drain timed out, severing connections: ", "testd: shutdown complete\n"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output %q lacks %q", got, want)
		}
	}
}

func TestShutdownCancelsServeAndWaits(t *testing.T) {
	leakCheck(t)
	stop := make(chan os.Signal, 1)
	stop <- syscall.SIGTERM
	returned := false
	serve := func(ctx context.Context) error {
		<-ctx.Done()
		time.Sleep(20 * time.Millisecond)
		returned = true
		return ctx.Err()
	}
	if err := run("testd", io.Discard, stop, serve, time.Second, nil); err != nil {
		t.Fatalf("a signalled daemon returned %v", err)
	}
	if !returned {
		t.Fatal("run returned before serve did")
	}
}

func TestServeErrorIsReturned(t *testing.T) {
	leakCheck(t)
	boom := errors.New("boom")
	c := &closeRecorder{closed: make(chan struct{})}
	var out syncBuffer
	err := run("testd", &out, make(chan os.Signal), func(context.Context) error { return boom }, time.Second, []io.Closer{c})
	if !errors.Is(err, boom) {
		t.Fatalf("run returned %v, want the serve error", err)
	}
	select {
	case <-c.closed:
	default:
		t.Fatal("closer left open after serve failed")
	}
	if got := out.String(); got != "" {
		t.Fatalf("a failed serve printed %q", got)
	}
}

// failingCloser is a closer whose Close returns err.
type failingCloser struct{ err error }

func (f failingCloser) Close() error { return f.err }

func TestCloseErrorFailsShutdown(t *testing.T) {
	stop := make(chan os.Signal, 1)
	stop <- syscall.SIGTERM
	bad := errors.New("close store: disk gone")
	var out syncBuffer
	err := run("testd", &out, stop, nil, time.Second, []io.Closer{failingCloser{net.ErrClosed}, failingCloser{bad}})
	if !errors.Is(err, bad) {
		t.Fatalf("run returned %v, want the close error", err)
	}
	if strings.Contains(out.String(), "shutdown complete") {
		t.Fatalf("a failed close still reported completion: %q", out.String())
	}

	stop <- syscall.SIGTERM
	if err := run("testd", io.Discard, stop, nil, time.Second, []io.Closer{failingCloser{net.ErrClosed}}); err != nil {
		t.Fatalf("closing what was already closed failed the shutdown: %v", err)
	}
}
