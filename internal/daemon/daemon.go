// Package daemon is the harness authzd, keycomd, webcom-master and
// webcom-client are composed of: the signal → bounded-drain lifecycle,
// the trust-policy builder, the KeyCOM credential plane and the flags a
// WebCom master and client share. The servers it drains keep the
// netserve lifecycle contract (DESIGN.md §7): Shutdown waits for
// admitted work and Close is a barrier.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// drainTimeout bounds every daemon's graceful drain: in-flight work
// gets this long after a stop signal before connections are severed.
const drainTimeout = 5 * time.Second

// Main runs a daemon's realMain with stdout and a stop channel fed by
// SIGINT and SIGTERM. If realMain fails, Main prints "<name>: <err>" to
// stderr and exits 1.
func Main(name string, realMain func(out io.Writer, stop <-chan os.Signal) error) {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := realMain(os.Stdout, stop); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// Run is the daemon lifecycle. It runs serve, the daemon's own work (a
// blocking Serve, a graph run, a wait on a connection), under a
// context, and waits for serve to return or for a stop signal; a nil
// serve waits for the signal alone. If serve returns first, Run closes
// every closer and returns serve's error. On a signal Run prints "<name>:
// <sig> received, draining", drains the closers in order under one
// drainTimeout (Shutdown, then Close if the drain times out; Close
// alone for a closer without Shutdown), cancels serve's context and
// waits for it, and prints "<name>: shutdown complete". It then returns
// nil, or the first Close error other than net.ErrClosed.
func Run(name string, out io.Writer, stop <-chan os.Signal, serve func(ctx context.Context) error, closers ...io.Closer) error {
	return run(name, out, stop, serve, drainTimeout, closers)
}

func run(name string, out io.Writer, stop <-chan os.Signal, serve func(ctx context.Context) error, timeout time.Duration, closers []io.Closer) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	if serve != nil {
		go func() { served <- serve(ctx) }()
	}

	select {
	case sig := <-stop:
		fmt.Fprintf(out, "%s: %s received, draining\n", name, sig)
	case err := <-served:
		for _, c := range closers {
			c.Close()
		}
		return err
	}

	dctx, dcancel := context.WithTimeout(context.Background(), timeout)
	defer dcancel()
	var closeErr error
	for _, c := range closers {
		if d, ok := c.(interface{ Shutdown(context.Context) error }); ok {
			if err := d.Shutdown(dctx); err != nil {
				fmt.Fprintf(out, "%s: drain timed out, severing connections: %v\n", name, err)
				c.Close()
			}
		} else if err := c.Close(); err != nil && !errors.Is(err, net.ErrClosed) && closeErr == nil {
			closeErr = err
		}
	}
	cancel()
	if serve != nil {
		<-served
	}
	if closeErr != nil {
		return closeErr
	}
	fmt.Fprintf(out, "%s: shutdown complete\n", name)
	return nil
}
