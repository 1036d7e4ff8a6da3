// Command webcom-client runs a Secure WebCom client: it connects to a
// master, authenticates it, and executes scheduled operations — either
// built-in demo operations or operations of a demo EJB container — under
// its own KeyNote policy.
//
// Usage:
//
//	webcom-client -master 127.0.0.1:7070 -name X -key clientX.key \
//	    -trust-master master.pub [-demo-ejb]
//
// The -trust-master flag names the master's public-key file; the client's
// policy authorises exactly that master for all WebCom operations. For a
// narrower policy pass -policy with a KeyNote policy file.
//
// With -submaster-addr the client additionally runs an embedded master
// (the paper's Figure 3 recursion): it announces the submaster role to
// its own master, listens for leaf clients of its own, and accepts whole
// condensed subgraphs under a delegation credential it re-lints before
// honouring. Trust the leaves with repeatable -submaster-trust flags or
// a -submaster-policy file:
//
//	webcom-client -master root:7070 -name S0 -trust-master root.pub \
//	    -submaster-addr :7071 -submaster-trust leaf0.pub -submaster-trust leaf1.pub
//
// SIGINT/SIGTERM drain the embedded master, then close the client.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"securewebcom/internal/daemon"
	"securewebcom/internal/keys"
	"securewebcom/internal/middleware"
	"securewebcom/internal/middleware/ejb"
	"securewebcom/internal/webcom"
)

// opts carries the parsed command line.
type opts struct {
	masterAddr, name, keyPath string
	trustMaster, policyPath   string
	subAddr, subPolicyPath    string
	subTrust                  daemon.Strings
	demoEJB                   bool
	peer                      daemon.PeerFlags
	reconnect                 webcom.ReconnectPolicy
}

func main() {
	var o opts
	flag.StringVar(&o.masterAddr, "master", "127.0.0.1:7070", "master address")
	flag.StringVar(&o.name, "name", "client", "client name")
	flag.StringVar(&o.keyPath, "key", "", "client key file (private); empty generates a fresh key")
	flag.StringVar(&o.trustMaster, "trust-master", "", "master public-key file the client trusts")
	flag.StringVar(&o.policyPath, "policy", "", "KeyNote policy file for authorising masters")
	flag.BoolVar(&o.demoEJB, "demo-ejb", false, "host the demo Salaries EJB container")
	o.peer.Register(flag.CommandLine, "the master")

	// Sub-master (hierarchical federation) knobs.
	flag.StringVar(&o.subAddr, "submaster-addr", "", "run an embedded master for leaf clients on this address (empty disables)")
	flag.Var(&o.subTrust, "submaster-trust", "leaf-client public-key file the embedded master trusts (repeatable)")
	flag.StringVar(&o.subPolicyPath, "submaster-policy", "", "KeyNote policy file for the embedded master's leaf clients")

	// Fault-tolerance knobs; 0 means the library default.
	flag.BoolVar(&o.reconnect.Enabled, "reconnect", false, "re-dial a lost master (full re-authentication) with backoff")
	flag.IntVar(&o.reconnect.MaxAttempts, "reconnect-attempts", 0, "redial attempts per outage; negative = forever (0 = default 8)")
	flag.DurationVar(&o.reconnect.BaseBackoff, "reconnect-backoff", 0, "base redial backoff (0 = default 50ms)")
	flag.DurationVar(&o.reconnect.MaxBackoff, "reconnect-max-backoff", 0, "redial backoff cap (0 = default 5s)")
	flag.Parse()

	daemon.Main("webcom-client", func(out io.Writer, stop <-chan os.Signal) error { return realMain(o, out, stop) })
}

// realMain connects the client and serves its master until the
// connection ends for good or stop delivers a signal.
func realMain(o opts, out io.Writer, stop <-chan os.Signal) error {
	clientKey, err := keys.LoadOrGenerate(o.keyPath, "K"+o.name)
	if err != nil {
		return err
	}
	ks := keys.NewKeyStore()
	ks.Add(clientKey)
	chk, _, err := daemon.TrustPolicy(ks, "master", []string{o.trustMaster}, o.policyPath)
	if err != nil {
		return err
	}
	if chk == nil {
		fmt.Fprintln(os.Stderr, "warning: no -trust-master/-policy; any authenticated master will be obeyed")
	}

	cl := &webcom.Client{
		Name:      o.name,
		Key:       clientKey,
		Codec:     o.peer.Codec,
		Checker:   chk,
		Live:      o.peer.Live,
		Reconnect: o.reconnect,
		Local: map[string]func([]string) (string, error){
			"echo": func(args []string) (string, error) {
				return strings.Join(args, " "), nil
			},
			"hostname": func([]string) (string, error) { return os.Hostname() },
		},
	}
	o.peer.TraceDenials(cl.Audit())

	if o.demoEJB {
		srv := ejb.NewServer("ejb-"+o.name, "host-"+o.name, "srv")
		c := srv.CreateContainer("finance")
		salaries := map[string]string{"Bob": "52000", "Alice": "41000"}
		c.DeployBean("Salaries", map[string]middleware.Handler{
			"read": func(args []string) (string, error) {
				if len(args) != 1 {
					return "", fmt.Errorf("read: want employee name")
				}
				return salaries[args[0]], nil
			},
			"write": func(args []string) (string, error) {
				if len(args) != 2 {
					return "", fmt.Errorf("write: want name, salary")
				}
				salaries[args[0]] = args[1]
				return "ok", nil
			},
		}, "read", "write")
		c.AddMethodPermission("Clerk", "Salaries", "write")
		c.AddMethodPermission("Manager", "Salaries", "read")
		c.AddMethodPermission("Manager", "Salaries", "write")
		srv.AddUser("Alice")
		srv.AddUser("Bob")
		if err := srv.AssignRole("finance", "Alice", "Clerk"); err != nil {
			return err
		}
		if err := srv.AssignRole("finance", "Bob", "Manager"); err != nil {
			return err
		}
		reg := middleware.NewRegistry()
		if err := reg.Register(srv); err != nil {
			return err
		}
		cl.Registry = reg
		fmt.Fprintf(out, "demo EJB container at domain host-%s/srv/finance (bean Salaries)\n", o.name)
	}

	// The embedded master drains before the client closes, so a
	// delegated subgraph's in-flight leaf tasks can finish.
	var closers []io.Closer
	if o.subAddr != "" {
		subChk, n, err := daemon.TrustPolicy(ks, "leaf", o.subTrust, o.subPolicyPath)
		if err != nil {
			return err
		}
		if subChk == nil {
			return fmt.Errorf("no leaf client authorised: pass -submaster-trust or -submaster-policy with -submaster-addr")
		}
		// The embedded master signs as the same principal the client
		// authenticates with, so the delegation credential the root mints
		// for this client is exactly the one the subgraph runs under.
		sub := webcom.NewMaster(clientKey, subChk, nil, ks)
		sub.Live = o.peer.Live
		if err := sub.Listen(o.subAddr); err != nil {
			return err
		}
		closers = append(closers, sub)
		cl.Sub = sub
		fmt.Fprintf(out, "embedded sub-master listening on %s (%d policy assertions)\n", sub.Addr(), n)
	}
	closers = append(closers, cl)

	if err := cl.Connect(o.masterAddr); err != nil {
		for _, c := range closers {
			c.Close()
		}
		return err
	}
	fmt.Fprintf(out, "webcom-client %s (%s...) connected to master %s...\n",
		o.name, clientKey.PublicID()[:24], cl.Master()[:24])
	return daemon.Run("webcom-client", out, stop, func(context.Context) error {
		cl.Wait()
		return nil
	}, closers...)
}
