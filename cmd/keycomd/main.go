// Command keycomd runs a KeyCOM automated administration service
// (Figure 8): a TCP daemon that accepts signed policy update requests
// carrying KeyNote credentials and applies authorised changes to a COM+
// catalogue.
//
// Usage:
//
//	keycomd -addr 127.0.0.1:7080 -domain DOMA -admin admin.pub \
//	    [-class SalariesDB.Component] [-role Clerk] [-store /var/lib/keycomd]
//
// The service's policy trusts the key in -admin for all KeyCOM actions;
// that administrator can delegate narrower authority (e.g. "add users to
// Clerk") to other keys with ordinary KeyNote credentials, which
// requesters submit alongside their update.
//
// With -store the catalogue is durable: every acknowledged update is
// fsynced to a write-ahead log and a hash-chained audit log before the
// response goes out, and on restart the daemon replays the store —
// discarding any torn tail a crash left behind — so it serves exactly
// the acknowledged history. SIGINT/SIGTERM shut the daemon down
// gracefully: the listener closes, in-flight commits drain, and the
// store is flushed and closed before the process exits.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	harness "securewebcom/internal/daemon" // the tests name their own type daemon
	"securewebcom/internal/keycom"
	"securewebcom/internal/keys"
)

type config struct {
	addr     string
	domain   string
	admin    string
	class    string
	role     string
	storeDir string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7080", "listen address")
	flag.StringVar(&cfg.domain, "domain", "DOMA", "Windows NT domain name of the catalogue")
	flag.StringVar(&cfg.admin, "admin", "", "administrator public-key file")
	flag.StringVar(&cfg.class, "class", "SalariesDB.Component", "demo COM class ProgID")
	flag.StringVar(&cfg.role, "role", "Clerk", "demo COM role granted Access on the class")
	flag.StringVar(&cfg.storeDir, "store", "", "durable store directory (WAL, snapshots, audit chain); empty keeps the catalogue in memory only")
	flag.Parse()

	harness.Main("keycomd", func(out io.Writer, stop <-chan os.Signal) error { return realMain(cfg, out, stop) })
}

// realMain builds the service, serves until stop delivers a signal, and
// shuts down gracefully. It is the whole daemon minus process plumbing,
// so tests can run it in a child process and watch out.
func realMain(cfg config, out io.Writer, stop <-chan os.Signal) error {
	plane, err := harness.OpenKeyCOM(harness.KeyCOMConfig{Name: "keycomd", Domain: cfg.domain,
		Admin: cfg.admin, Class: cfg.class, Role: cfg.role, StoreDir: cfg.storeDir}, keys.NewKeyStore(), out)
	if err != nil {
		return err
	}
	srv, err := keycom.ListenAndServe(plane.Service, cfg.addr)
	if err != nil {
		plane.Close()
		return err
	}
	fmt.Fprintf(out, "keycomd administering NT domain %s on %s\n", cfg.domain, srv.Addr())
	return harness.Run("keycomd", out, stop, nil, srv, plane)
}
