// Command webcom-master runs a Secure WebCom master: it listens for
// client connections, mutually authenticates them, and schedules
// condensed-graph operations to clients its KeyNote policy authorises.
//
// Usage:
//
//	webcom-master -addr 127.0.0.1:7070 -key master.key \
//	    -trust clientX.pub [-trust clientY.pub] \
//	    [-run "echo hello world"] [-wait-clients 1]
//
// The -trust flags name client public-key files; each becomes a POLICY
// assertion authorising that key for any WebCom operation. For
// finer-grained policies write a policy file and pass -policy instead.
// With -run, the master waits for -wait-clients connections, executes the
// single-operation graph "<op> <args...>" and exits; otherwise it serves
// until interrupted. Either way SIGINT/SIGTERM drain it gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"securewebcom/internal/cg"
	"securewebcom/internal/daemon"
	"securewebcom/internal/keys"
	"securewebcom/internal/netserve"
	"securewebcom/internal/telemetry"
	"securewebcom/internal/webcom"
)

// opts carries the parsed command line.
type opts struct {
	addr, keyPath, policyPath  string
	run, graphPath, inputsFlag string
	metricsAddr                string
	waitClients                int
	trust                      daemon.Strings
	peer                       daemon.PeerFlags
	retry                      webcom.RetryPolicy
}

func main() {
	var o opts
	flag.StringVar(&o.addr, "addr", "127.0.0.1:7070", "listen address")
	flag.StringVar(&o.keyPath, "key", "", "master key file (private); empty generates a fresh key")
	flag.StringVar(&o.policyPath, "policy", "", "KeyNote policy file for authorising clients")
	flag.StringVar(&o.run, "run", "", "operation to schedule once clients connect: \"op arg1 arg2\"")
	flag.StringVar(&o.graphPath, "graph", "", "JSON condensed-graph file to execute (see internal/cg)")
	flag.StringVar(&o.inputsFlag, "inputs", "", "comma-separated name=value graph inputs for -graph")
	flag.IntVar(&o.waitClients, "wait-clients", 1, "clients to wait for before -run/-graph")
	flag.Var(&o.trust, "trust", "client public-key file to trust for all operations (repeatable)")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /healthz and /traces on this address (empty disables telemetry)")
	o.peer.Register(flag.CommandLine, "a client")

	// Fault-tolerance knobs; 0 means the library default.
	flag.IntVar(&o.retry.MaxAttempts, "max-attempts", 0, "scheduling attempts per task (0 = default 3)")
	flag.DurationVar(&o.retry.BaseBackoff, "backoff", 0, "base retry backoff (0 = default 25ms)")
	flag.DurationVar(&o.retry.MaxBackoff, "max-backoff", 0, "backoff cap (0 = default 2s)")
	flag.DurationVar(&o.retry.DispatchTimeout, "dispatch-timeout", 0, "per-dispatch deadline (0 = default 30s)")
	flag.IntVar(&o.retry.FailureThreshold, "failure-threshold", 0, "consecutive failures before quarantining a client (0 = default 3)")
	flag.DurationVar(&o.retry.Quarantine, "quarantine", 0, "circuit-breaker quarantine period (0 = default 2s)")
	flag.IntVar(&o.retry.MaxInFlight, "max-in-flight", 0, "in-flight tasks per client (0 = default 32)")
	flag.DurationVar(&o.retry.DelegateTimeout, "delegate-timeout", 0, "per-subgraph delegation deadline for sub-masters (0 = default 4x dispatch timeout)")
	flag.Parse()

	daemon.Main("webcom-master", func(out io.Writer, stop <-chan os.Signal) error { return realMain(o, out, stop) })
}

// realMain builds the master and serves until stop delivers a signal
// or, with -run or -graph, until that graph has run.
func realMain(o opts, out io.Writer, stop <-chan os.Signal) error {
	g, inputs, err := buildGraph(o)
	if err != nil {
		return err
	}
	masterKey, err := keys.LoadOrGenerate(o.keyPath, "Kmaster")
	if err != nil {
		return err
	}
	ks := keys.NewKeyStore()
	ks.Add(masterKey)
	chk, n, err := daemon.TrustPolicy(ks, "client", o.trust, o.policyPath)
	if err != nil {
		return err
	}
	if chk == nil {
		return fmt.Errorf("no client authorised: pass -trust or -policy")
	}

	master := webcom.NewMaster(masterKey, chk, nil, ks)
	master.Retry = o.retry
	master.Live = o.peer.Live
	master.Codec = o.peer.Codec
	o.peer.TraceDenials(master.Audit())
	closers := []io.Closer{master}
	if o.metricsAddr != "" {
		master.Tel = telemetry.NewRegistry()
		master.Tracer = telemetry.NewTracer(0)
		ln, err := net.Listen("tcp", o.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		hsrv := netserve.NewHTTPServer(telemetry.NewHandler(master.Tel, master.Tracer, func() error {
			if len(master.Clients()) == 0 {
				return fmt.Errorf("no clients connected")
			}
			return nil
		}))
		go hsrv.Serve(ln)
		closers = append(closers, hsrv)
		fmt.Fprintf(out, "telemetry on http://%s/metrics\n", ln.Addr())
	}
	if err := master.Listen(o.addr); err != nil {
		for _, c := range closers {
			c.Close()
		}
		return err
	}
	fmt.Fprintf(out, "webcom-master %s listening on %s (%d policy assertions)\n",
		masterKey.PublicID()[:24]+"...", master.Addr(), n)

	// Without a graph the master serves until interrupted; the drain
	// stops accepting, lets in-flight dispatches finish, and only then
	// severs clients.
	var serve func(context.Context) error
	if g != nil {
		serve = func(ctx context.Context) error { return runGraph(ctx, out, master, o.waitClients, g, inputs) }
	}
	return daemon.Run("webcom-master", out, stop, serve, closers...)
}

// runGraph waits for the clients and runs g on them, printing the result.
func runGraph(ctx context.Context, out io.Writer, master *webcom.Master, waitClients int, g *cg.Graph, inputs map[string]string) error {
	wait, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for len(master.Clients()) < waitClients {
		select {
		case <-wait.Done():
			return fmt.Errorf("timed out waiting for %d clients", waitClients)
		case <-time.After(50 * time.Millisecond):
		}
	}
	fmt.Fprintf(out, "clients connected: %v\n", master.Clients())

	ctx, cancel = context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	result, stats, err := master.Run(ctx, &cg.Engine{}, g, inputs)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "result: %s (fired %d nodes)\n", result, stats.Fired)
	return nil
}

// buildGraph returns the graph -graph or -run names, or nil in serve
// mode.
func buildGraph(o opts) (*cg.Graph, map[string]string, error) {
	inputs := map[string]string{}
	switch {
	case o.graphPath != "":
		data, err := os.ReadFile(o.graphPath)
		if err != nil {
			return nil, nil, err
		}
		g, err := cg.ParseJSON(data)
		if err != nil {
			return nil, nil, err
		}
		if o.inputsFlag != "" {
			for _, kv := range strings.Split(o.inputsFlag, ",") {
				eq := strings.Index(kv, "=")
				if eq <= 0 {
					return nil, nil, fmt.Errorf("input %q is not name=value", kv)
				}
				inputs[kv[:eq]] = kv[eq+1:]
			}
		}
		return g, inputs, nil
	case o.run != "":
		fields := strings.Fields(o.run)
		if len(fields) == 0 {
			return nil, nil, errors.New("-run names no operation")
		}
		op, args := fields[0], fields[1:]
		g := cg.NewGraph("cli")
		g.MustAddNode("op", &cg.Opaque{OpName: op, OpArity: len(args)})
		for i, a := range args {
			if err := g.SetConst("op", i, a); err != nil {
				return nil, nil, err
			}
		}
		if err := g.SetExit("op"); err != nil {
			return nil, nil, err
		}
		return g, inputs, nil
	}
	return nil, nil, nil
}
