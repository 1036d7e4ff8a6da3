package netserve

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
)

// serve starts s on a loopback listener with handle.
func serve(t *testing.T, s *Server, handle func(net.Conn)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(ln, handle)
}

// dialHandled dials s and waits until its handler has started.
func dialHandled(t *testing.T, s *Server, started <-chan struct{}) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	<-started
	return c
}

// TestCloseIsABarrier: Close severs a connection whose handler is
// blocked reading it, and returns only after that handler has exited.
func TestCloseIsABarrier(t *testing.T) {
	var s Server
	started := make(chan struct{}, 1)
	exited := make(chan struct{})
	serve(t, &s, func(c net.Conn) {
		defer close(exited)
		started <- struct{}{}
		io.Copy(io.Discard, c)
	})
	c := dialHandled(t, &s, started)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-exited:
	default:
		t.Fatal("Close returned while a connection handler still ran")
	}
	if n, _ := io.Copy(io.Discard, c); n != 0 {
		t.Fatalf("read %d bytes from a severed connection", n)
	}
	if _, err := net.Dial("tcp", s.Addr().String()); err == nil {
		t.Fatal("listener still accepts after Close")
	}
	if s.Begin() {
		t.Fatal("a closed server admitted a request")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestShutdownDrainsAdmittedRequests: Shutdown refuses new requests at
// once, waits for an admitted one to end, and leaves its connection
// open until then.
func TestShutdownDrainsAdmittedRequests(t *testing.T) {
	var s Server
	started := make(chan struct{}, 1)
	exited := make(chan struct{})
	serve(t, &s, func(c net.Conn) {
		defer close(exited)
		started <- struct{}{}
		io.Copy(io.Discard, c)
	})
	dialHandled(t, &s, started)
	if !s.Begin() {
		t.Fatal("an open server refused a request")
	}
	shutDone := make(chan error, 1)
	go func() { shutDone <- s.Shutdown(context.Background()) }()
	for s.Begin() { // until Shutdown has marked the server closing
		s.End()
	}
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned (%v) with a request in flight", err)
	default:
	}
	select {
	case <-exited:
		t.Fatal("connection severed before the drain finished")
	default:
	}
	s.End()
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case <-exited:
	default:
		t.Fatal("Shutdown returned while a connection handler still ran")
	}
}

// TestShutdownExpirySevers: when ctx ends before the drain, Shutdown
// severs the connections anyway and reports ctx.Err().
func TestShutdownExpirySevers(t *testing.T) {
	var s Server
	started := make(chan struct{}, 1)
	serve(t, &s, func(c net.Conn) {
		started <- struct{}{}
		io.Copy(io.Discard, c)
	})
	c := dialHandled(t, &s, started)
	if !s.Begin() {
		t.Fatal("an open server refused a request")
	}
	defer s.End()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired drain reported %v, want context.Canceled", err)
	}
	if n, _ := io.Copy(io.Discard, c); n != 0 {
		t.Fatalf("read %d bytes from a severed connection", n)
	}
}

// TestServeAfterClose: a server closed before it serves closes the
// listener it is handed, and one that never served closes cleanly.
func TestServeAfterClose(t *testing.T) {
	var s Server
	if err := s.Close(); err != nil {
		t.Fatalf("Close before Serve: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Serve(ln, func(net.Conn) { t.Error("a closed server handled a connection") })
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listener handed to a closed server: Accept = %v", err)
	}
}
