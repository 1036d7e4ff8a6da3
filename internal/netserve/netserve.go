// Package netserve owns the serving lifecycle of the repository's
// long-running TCP services: one accept loop, a registry of every
// accepted connection, admission of in-flight requests, and Close and
// Shutdown as barriers (DESIGN.md §7). Each service keeps only its
// policy: what a connection speaks and what counts as a request.
package netserve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"
)

// A transient Accept error (EMFILE, ECONNABORTED, ...) must not spin the
// accept loop hot: it sleeps, doubling from minBackoff to maxBackoff,
// and resets on the next success.
const (
	minBackoff = 5 * time.Millisecond
	maxBackoff = time.Second
)

// Server serves the connections of one listener. The zero value is
// ready: a Server that never serves still admits requests and closes.
type Server struct {
	mu      sync.Mutex
	ln      net.Listener
	stop    chan struct{} // closed on close; wakes a backing-off accept loop
	closed  bool
	conns   map[net.Conn]struct{}
	active  int           // admitted requests not yet ended
	drained chan struct{} // closed by the End that empties a draining server
	wg      sync.WaitGroup
}

// Serve starts accepting from ln. Each connection is handed to handle on
// its own goroutine and closed when handle returns. Serve on a closed
// server closes ln.
func (s *Server) Serve(ln net.Listener, handle func(net.Conn)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		ln.Close()
		return
	}
	s.ln, s.stop = ln, make(chan struct{})
	s.wg.Add(1)
	go s.acceptLoop(ln, s.stop, handle)
}

// Addr returns the listener's address. Serve must have been called.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop(ln net.Listener, stop <-chan struct{}, handle func(net.Conn)) {
	defer s.wg.Done()
	backoff := minBackoff
	for {
		conn, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			t := time.NewTimer(backoff)
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
			backoff = min(2*backoff, maxBackoff)
			continue
		}
		backoff = minBackoff
		// Registration checks closed under the lock Close severs under,
		// so every connection admitted here is one Close will sever.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// Begin admits one request, or reports false once the server is
// closing; the caller must then refuse the request. Every admitted
// request ends with one End. Begin allocates nothing.
func (s *Server) Begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.active++
	return true
}

// End retires a request Begin admitted.
func (s *Server) End() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active--; s.active == 0 && s.drained != nil {
		close(s.drained)
		s.drained = nil
	}
}

// Close stops the server at once: the listener closes and every
// connection, mid-handshake ones included, is severed without waiting
// for in-flight requests. It returns once every goroutine the server
// started has exited, so it must not be called from a handler.
func (s *Server) Close() error {
	s.mu.Lock()
	err := s.closeLocked()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Shutdown stops the server gracefully: the listener closes and new
// requests are refused at once, admitted requests drain, and then it
// closes as Close does. ctx bounds the drain; on expiry the connections
// are severed anyway and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closeLocked()
	if s.active > 0 && s.drained == nil {
		s.drained = make(chan struct{})
	}
	drained := s.drained
	s.mu.Unlock()
	var err error
	if drained != nil {
		select {
		case <-drained:
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	s.Close()
	return err
}

// closeLocked marks the server closed and closes its listener, once.
func (s *Server) closeLocked() error {
	wasClosed := s.closed
	s.closed = true
	if wasClosed || s.ln == nil {
		return nil
	}
	close(s.stop)
	return s.ln.Close()
}

// Limits of every daemon's HTTP listener. A client gets
// ReadHeaderTimeout to send its whole request header, so a slow-header
// (slowloris) client cannot pin a connection; an idle keep-alive
// connection closes after IdleTimeout; a header larger than
// MaxHeaderBytes is refused (a bearer JWT and the usual headers need a
// few KiB).
const (
	ReadHeaderTimeout = 5 * time.Second
	IdleTimeout       = 2 * time.Minute
	MaxHeaderBytes    = 64 << 10
)

// NewHTTPServer returns an http.Server for h with those limits.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout: IdleTimeout, MaxHeaderBytes: MaxHeaderBytes}
}
