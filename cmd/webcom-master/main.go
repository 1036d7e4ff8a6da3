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
// until interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"securewebcom/internal/authz"
	"securewebcom/internal/cg"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/netserve"
	"securewebcom/internal/telemetry"
	"securewebcom/internal/webcom"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// opts carries the parsed command line.
type opts struct {
	addr, keyPath, policyPath  string
	run, graphPath, inputsFlag string
	metricsAddr                string
	codec                      string
	waitClients                int
	trace                      bool
	trust                      []string
	retry                      webcom.RetryPolicy
	live                       webcom.Liveness
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
	var trust multiFlag
	flag.Var(&trust, "trust", "client public-key file to trust for all operations (repeatable)")
	flag.BoolVar(&o.trace, "trace", false, "log every authorisation denial with its full decision trace")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics, /healthz and /traces on this address (empty disables telemetry)")
	flag.StringVar(&o.codec, "codec", "", "wire codec: empty/\"binary\" negotiates the binary framed codec per client, \"json\" pins every connection to the JSON fallback")

	// Fault-tolerance knobs; 0 means the library default.
	flag.IntVar(&o.retry.MaxAttempts, "max-attempts", 0, "scheduling attempts per task (0 = default 3)")
	flag.DurationVar(&o.retry.BaseBackoff, "backoff", 0, "base retry backoff (0 = default 25ms)")
	flag.DurationVar(&o.retry.MaxBackoff, "max-backoff", 0, "backoff cap (0 = default 2s)")
	flag.DurationVar(&o.retry.DispatchTimeout, "dispatch-timeout", 0, "per-dispatch deadline (0 = default 30s)")
	flag.IntVar(&o.retry.FailureThreshold, "failure-threshold", 0, "consecutive failures before quarantining a client (0 = default 3)")
	flag.DurationVar(&o.retry.Quarantine, "quarantine", 0, "circuit-breaker quarantine period (0 = default 2s)")
	flag.IntVar(&o.retry.MaxInFlight, "max-in-flight", 0, "in-flight tasks per client (0 = default 32)")
	flag.DurationVar(&o.retry.DelegateTimeout, "delegate-timeout", 0, "per-subgraph delegation deadline for sub-masters (0 = default 4x dispatch timeout)")
	flag.DurationVar(&o.live.PingInterval, "ping-interval", 0, "heartbeat interval (0 = default 15s)")
	flag.DurationVar(&o.live.IdleTimeout, "idle-timeout", 0, "silence before a client is declared dead (0 = default 45s)")
	flag.DurationVar(&o.live.HandshakeTimeout, "handshake-timeout", 0, "handshake read deadline (0 = default 10s)")
	flag.Parse()
	o.trust = trust

	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "webcom-master:", err)
		os.Exit(1)
	}
}

func realMain(o opts) error {
	addr, keyPath, policyPath := o.addr, o.keyPath, o.policyPath
	run, graphPath, inputsFlag := o.run, o.graphPath, o.inputsFlag
	waitClients, trust := o.waitClients, o.trust
	ks := keys.NewKeyStore()
	var masterKey *keys.KeyPair
	var err error
	if keyPath != "" {
		masterKey, err = keys.Load(keyPath)
		if err != nil {
			return err
		}
		if masterKey.Private == nil {
			return fmt.Errorf("%s holds no private key", keyPath)
		}
	} else {
		masterKey, err = keys.Generate("Kmaster")
		if err != nil {
			return err
		}
	}
	ks.Add(masterKey)

	var policy []*keynote.Assertion
	for _, path := range trust {
		kp, err := keys.Load(path)
		if err != nil {
			return err
		}
		ks.Add(kp)
		a, err := keynote.New("POLICY", fmt.Sprintf("%q", kp.PublicID()), `app_domain=="WebCom";`)
		if err != nil {
			return err
		}
		policy = append(policy, a.WithComment("trusted client "+kp.Name))
	}
	if policyPath != "" {
		data, err := os.ReadFile(policyPath)
		if err != nil {
			return err
		}
		more, err := keynote.ParseAll(string(data))
		if err != nil {
			return err
		}
		policy = append(policy, more...)
	}
	if len(policy) == 0 {
		return fmt.Errorf("no client authorised: pass -trust or -policy")
	}
	chk, err := keynote.NewChecker(policy, keynote.WithResolver(ks))
	if err != nil {
		return err
	}

	master := webcom.NewMaster(masterKey, chk, nil, ks)
	master.Retry = o.retry
	master.Live = o.live
	master.Codec = o.codec
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
		defer hsrv.Close()
		fmt.Printf("telemetry on http://%s/metrics\n", ln.Addr())
	}
	if o.trace {
		master.Audit().SetSink(func(e authz.AuditEntry) {
			fmt.Fprintf(os.Stderr, "trace: %s", e.String())
		})
	}
	if err := master.Listen(addr); err != nil {
		return err
	}
	defer master.Close()
	fmt.Printf("webcom-master %s listening on %s (%d policy assertions)\n",
		masterKey.PublicID()[:24]+"...", master.Addr(), len(policy))

	if run == "" && graphPath == "" {
		// Serve until interrupted, then drain gracefully: stop accepting,
		// let in-flight dispatches finish, and only then sever clients.
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		sig := <-stop
		fmt.Printf("webcom-master: %s received, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := master.Shutdown(ctx); err != nil {
			fmt.Printf("webcom-master: drain timed out, severing clients: %v\n", err)
		}
		fmt.Println("webcom-master: shutdown complete")
		return nil
	}

	deadline := time.Now().Add(30 * time.Second)
	for len(master.Clients()) < waitClients {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %d clients", waitClients)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("clients connected: %v\n", master.Clients())

	var g *cg.Graph
	inputs := map[string]string{}
	switch {
	case graphPath != "":
		data, err := os.ReadFile(graphPath)
		if err != nil {
			return err
		}
		g, err = cg.ParseJSON(data)
		if err != nil {
			return err
		}
		if inputsFlag != "" {
			for _, kv := range strings.Split(inputsFlag, ",") {
				eq := strings.Index(kv, "=")
				if eq <= 0 {
					return fmt.Errorf("input %q is not name=value", kv)
				}
				inputs[kv[:eq]] = kv[eq+1:]
			}
		}
	default:
		fields := strings.Fields(run)
		op, args := fields[0], fields[1:]
		g = cg.NewGraph("cli")
		g.MustAddNode("op", &cg.Opaque{OpName: op, OpArity: len(args)})
		for i, a := range args {
			if err := g.SetConst("op", i, a); err != nil {
				return err
			}
		}
		if err := g.SetExit("op"); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	result, stats, err := master.Run(ctx, &cg.Engine{}, g, inputs)
	if err != nil {
		return err
	}
	fmt.Printf("result: %s (fired %d nodes)\n", result, stats.Fired)
	return nil
}
