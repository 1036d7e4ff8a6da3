package webcom

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"securewebcom/internal/cg"
	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/middleware"
	"securewebcom/internal/middleware/ejb"
)

// testEnv bundles a running master and helpers to attach clients.
type testEnv struct {
	t      *testing.T
	ks     *keys.KeyStore
	master *Master
}

// newTestEnv starts a master whose policy trusts the listed client names
// for any WebCom operation (conditions: app_domain only).
func newTestEnv(t *testing.T, trustedClients ...string) *testEnv {
	t.Helper()
	ks := keys.NewKeyStore()
	mk := keys.Deterministic("Kmaster", "webcom-test")
	ks.Add(mk)
	var policy []*keynote.Assertion
	for _, name := range trustedClients {
		ck := keys.Deterministic("K"+name, "webcom-test")
		ks.Add(ck)
		policy = append(policy, keynote.MustNew(
			"POLICY", fmt.Sprintf("%q", ck.PublicID()), `app_domain=="WebCom";`))
	}
	chk, err := keynote.NewChecker(policy, keynote.WithResolver(ks))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMaster(mk, chk, nil, ks)
	if err := m.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return &testEnv{t: t, ks: ks, master: m}
}

// attach connects a client that trusts this master for everything and
// executes ops from the local map.
func (e *testEnv) attach(name string, local map[string]func([]string) (string, error)) *Client {
	e.t.Helper()
	ck, err := e.ks.ByName("K" + name)
	if err != nil {
		ck = keys.Deterministic("K"+name, "webcom-test")
		e.ks.Add(ck)
	}
	mk, _ := e.ks.ByName("Kmaster")
	chk, err := keynote.NewChecker([]*keynote.Assertion{
		keynote.MustNew("POLICY", fmt.Sprintf("%q", mk.PublicID()), `app_domain=="WebCom";`),
	}, keynote.WithResolver(e.ks))
	if err != nil {
		e.t.Fatal(err)
	}
	cl := &Client{Name: name, Key: ck, Checker: chk, Local: local}
	if err := cl.Connect(e.master.Addr()); err != nil {
		e.t.Fatalf("connect %s: %v", name, err)
	}
	e.t.Cleanup(func() { cl.Close() })
	return cl
}

func waitClients(t *testing.T, m *Master, n int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(m.Clients()) >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("only %d clients connected, want %d", len(m.Clients()), n)
}

func echoOp(args []string) (string, error) { return strings.Join(args, ","), nil }

// TestHandshakeSessionsAreCompiled pins the static-compilation wiring:
// after a handshake both ends' admitted credential sessions decide
// through a compiled decision DAG, not the tree-walking interpreter.
func TestHandshakeSessionsAreCompiled(t *testing.T) {
	env := newTestEnv(t, "X")
	cl := env.attach("X", map[string]func([]string) (string, error){"echo": echoOp})
	waitClients(t, env.master, 1)

	env.master.mu.Lock()
	mc := env.master.clients["X"]
	env.master.mu.Unlock()
	if mc == nil || mc.session == nil {
		t.Fatal("master has no admitted session for client X")
	}
	if !mc.session.CompiledOK() {
		t.Fatal("master-side session not compiled at admission")
	}

	cl.mu.Lock()
	cs := cl.session
	cl.mu.Unlock()
	if cs == nil {
		t.Fatal("client has no session for the master")
	}
	if !cs.CompiledOK() {
		t.Fatal("client-side session not compiled at admission")
	}
	if st, ok := cs.CompileStats(); !ok || st.Assertions == 0 {
		t.Fatalf("client-side compile stats = %+v, %v", st, ok)
	}
}

func TestHandshakeAndScheduling(t *testing.T) {
	env := newTestEnv(t, "X")
	env.attach("X", map[string]func([]string) (string, error){"echo": echoOp})
	waitClients(t, env.master, 1)

	g := cg.NewGraph("app")
	g.MustAddNode("remote", &cg.Opaque{OpName: "echo", OpArity: 2})
	if err := g.SetConst("remote", 0, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetConst("remote", 1, "world"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetExit("remote"); err != nil {
		t.Fatal(err)
	}

	got, _, err := env.master.Run(context.Background(), &cg.Engine{}, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello,world" {
		t.Fatalf("result = %q", got)
	}
}

func TestUnauthorisedClientNotScheduled(t *testing.T) {
	// Master trusts only X; Z connects but must never receive tasks.
	env := newTestEnv(t, "X")
	env.attach("Z", map[string]func([]string) (string, error){"echo": echoOp})
	waitClients(t, env.master, 1)

	g := cg.NewGraph("app")
	g.MustAddNode("remote", &cg.Opaque{OpName: "echo", OpArity: 1})
	if err := g.SetConst("remote", 0, "x"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetExit("remote"); err != nil {
		t.Fatal(err)
	}
	_, _, err := env.master.Run(context.Background(), &cg.Engine{}, g, nil)
	if err == nil || !strings.Contains(err.Error(), "no authorised client") {
		t.Fatalf("unauthorised client scheduled: %v", err)
	}
}

func TestClientPolicyRefusesMaster(t *testing.T) {
	// The client's own policy only allows the master to schedule "safe"
	// operations — the client-side check of Figure 3.
	env := newTestEnv(t, "X")
	ck, _ := env.ks.ByName("KX")
	mk, _ := env.ks.ByName("Kmaster")
	chk, err := keynote.NewChecker([]*keynote.Assertion{
		keynote.MustNew("POLICY", fmt.Sprintf("%q", mk.PublicID()),
			`app_domain=="WebCom" && operation=="safe";`),
	}, keynote.WithResolver(env.ks))
	if err != nil {
		t.Fatal(err)
	}
	cl := &Client{Name: "X", Key: ck, Checker: chk,
		Local: map[string]func([]string) (string, error){
			"safe":   echoOp,
			"unsafe": echoOp,
		}}
	if err := cl.Connect(env.master.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	waitClients(t, env.master, 1)

	run := func(op string) error {
		g := cg.NewGraph("app")
		g.MustAddNode("n", &cg.Opaque{OpName: op, OpArity: 1})
		if err := g.SetConst("n", 0, "v"); err != nil {
			t.Fatal(err)
		}
		if err := g.SetExit("n"); err != nil {
			t.Fatal(err)
		}
		_, _, err := env.master.Run(context.Background(), &cg.Engine{}, g, nil)
		return err
	}
	if err := run("safe"); err != nil {
		t.Fatalf("safe op refused: %v", err)
	}
	err = run("unsafe")
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("unsafe op not refused by client policy: %v", err)
	}
}

func TestImpersonatingClientRejected(t *testing.T) {
	// A client claiming X's key without possessing it must fail the
	// challenge.
	env := newTestEnv(t, "X")
	realKey, _ := env.ks.ByName("KX")
	wrong := keys.Deterministic("Kmallory", "webcom-test")

	// Hand-roll a broken handshake: sign with the wrong key.
	raw, err := netDial(env.master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.close()
	ch, err := raw.recv()
	if err != nil || ch.Type != msgChallenge {
		t.Fatal("no challenge")
	}
	err = raw.send(&msg{
		Type:      msgHello,
		Name:      "X",
		Principal: realKey.PublicID(), // claimed
		Sig:       wrong.Sign(handshakePayload("client", ch.Nonce, realKey.PublicID())),
		Nonce:     "00",
	})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := raw.recv()
	if err == nil && reply.Type != msgReject {
		t.Fatalf("impersonation accepted: %+v", reply)
	}
}

func netDial(addr string) (*conn, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newConn(raw, 0), nil
}

func TestFaultToleranceReschedules(t *testing.T) {
	// Two authorised clients; the first dies mid-task; the master must
	// reschedule onto the second.
	env := newTestEnv(t, "A", "B")

	var clA *Client
	block := make(chan struct{})
	clA = env.attach("A", map[string]func([]string) (string, error){
		"work": func(args []string) (string, error) {
			// Simulate a crash: drop the connection and never answer.
			clA.Close()
			<-block
			return "", nil
		},
	})
	env.attach("B", map[string]func([]string) (string, error){
		"work": func(args []string) (string, error) { return "done-by-B", nil },
	})
	waitClients(t, env.master, 2)
	defer close(block)

	g := cg.NewGraph("app")
	g.MustAddNode("n", &cg.Opaque{OpName: "work", OpArity: 0})
	if err := g.SetExit("n"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, _, err := env.master.Run(ctx, &cg.Engine{}, g, nil)
	if err != nil {
		t.Fatalf("rescheduling failed: %v", err)
	}
	if got != "done-by-B" {
		t.Fatalf("result = %q, want done-by-B", got)
	}
}

func TestMiddlewareBackedExecution(t *testing.T) {
	// A client hosting an EJB server executes a middleware op under the
	// container's native security (L1), selected by annotations.
	env := newTestEnv(t, "X")

	srv := ejb.NewServer("ejbX", "hostX", "srv")
	c := srv.CreateContainer("finance")
	c.DeployBean("Salaries", map[string]middleware.Handler{
		"read": func(args []string) (string, error) { return "42000", nil },
	}, "read")
	c.AddMethodPermission("Manager", "Salaries", "read")
	srv.AddUser("Bob")
	srv.AddUser("Dave")
	if err := srv.AssignRole("finance", "Bob", "Manager"); err != nil {
		t.Fatal(err)
	}
	reg := middleware.NewRegistry()
	if err := reg.Register(srv); err != nil {
		t.Fatal(err)
	}

	ck, _ := env.ks.ByName("KX")
	cl := &Client{Name: "X", Key: ck, Registry: reg}
	if err := cl.Connect(env.master.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	waitClients(t, env.master, 1)

	run := func(user string) (string, error) {
		g := cg.NewGraph("app")
		n := g.MustAddNode("read", &cg.Opaque{OpName: "Salaries.read", OpArity: 1})
		n.Annotations["Domain"] = "hostX/srv/finance"
		n.Annotations["User"] = user
		if err := g.SetConst("read", 0, "Bob"); err != nil {
			t.Fatal(err)
		}
		if err := g.SetExit("read"); err != nil {
			t.Fatal(err)
		}
		got, _, err := env.master.Run(context.Background(), &cg.Engine{}, g, nil)
		return got, err
	}

	got, err := run("Bob")
	if err != nil || got != "42000" {
		t.Fatalf("Bob's read: %q %v", got, err)
	}
	// Dave holds no role: the EJB container denies, and the denial
	// propagates to the master as a policy decision (no retry).
	if _, err := run("Dave"); err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("Dave's read not denied: %v", err)
	}
}

func TestPartialSpecificationPicksAuthorisedUser(t *testing.T) {
	// No User annotation: the client must pick an authorised user for
	// (domain, role) — Section 6's partial specification.
	env := newTestEnv(t, "X")

	srv := ejb.NewServer("ejbX", "hostX", "srv")
	c := srv.CreateContainer("finance")
	c.DeployBean("Salaries", map[string]middleware.Handler{
		"read": func(args []string) (string, error) { return "ok", nil },
	}, "read")
	c.AddMethodPermission("Manager", "Salaries", "read")
	srv.AddUser("Bob")
	if err := srv.AssignRole("finance", "Bob", "Manager"); err != nil {
		t.Fatal(err)
	}
	reg := middleware.NewRegistry()
	reg.Register(srv)

	ck, _ := env.ks.ByName("KX")
	cl := &Client{Name: "X", Key: ck, Registry: reg}
	if err := cl.Connect(env.master.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	waitClients(t, env.master, 1)

	g := cg.NewGraph("app")
	n := g.MustAddNode("read", &cg.Opaque{OpName: "Salaries.read", OpArity: 0})
	n.Annotations["Domain"] = "hostX/srv/finance"
	n.Annotations["Role"] = "Manager"
	if err := g.SetExit("read"); err != nil {
		t.Fatal(err)
	}
	got, _, err := env.master.Run(context.Background(), &cg.Engine{}, g, nil)
	if err != nil || got != "ok" {
		t.Fatalf("partial specification: %q %v", got, err)
	}

	// A role with no authorised user is denied.
	g2 := cg.NewGraph("app2")
	n2 := g2.MustAddNode("read", &cg.Opaque{OpName: "Salaries.read", OpArity: 0})
	n2.Annotations["Domain"] = "hostX/srv/finance"
	n2.Annotations["Role"] = "Intern"
	if err := g2.SetExit("read"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := env.master.Run(context.Background(), &cg.Engine{}, g2, nil); err == nil {
		t.Fatal("empty role executed")
	}
}

func TestDuplicateNameDifferentPrincipalRejected(t *testing.T) {
	// Same name + same principal is a reconnect and supersedes the stale
	// entry (TestReconnectSupersedesStaleConnection); same name under a
	// DIFFERENT key is an impersonation attempt and must be rejected.
	env := newTestEnv(t, "X")
	env.attach("X", nil)
	waitClients(t, env.master, 1)

	evil := keys.Deterministic("Kevil", "webcom-test-evil")
	dup := &Client{Name: "X", Key: evil}
	err := dup.Connect(env.master.Addr())
	if err == nil {
		dup.Close()
		t.Fatal("impersonator with a different key was admitted")
	}
	if !strings.Contains(err.Error(), "another principal") {
		t.Fatalf("wrong rejection: %v", err)
	}
	if n := len(env.master.Clients()); n != 1 {
		t.Fatalf("client count = %d, want 1", n)
	}
}

func TestMixedLocalAndRemoteGraph(t *testing.T) {
	// Func nodes run on the master; Opaque nodes go to clients.
	env := newTestEnv(t, "X")
	env.attach("X", map[string]func([]string) (string, error){
		"fetch": func(args []string) (string, error) { return "20", nil },
	})
	waitClients(t, env.master, 1)

	g := cg.NewGraph("mixed")
	g.MustAddNode("fetch", &cg.Opaque{OpName: "fetch", OpArity: 0})
	g.MustAddNode("double", cg.Mul())
	if err := g.Connect("fetch", "double", 0); err != nil {
		t.Fatal(err)
	}
	if err := g.SetConst("double", 1, "2"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetExit("double"); err != nil {
		t.Fatal(err)
	}
	got, stats, err := env.master.Run(context.Background(), &cg.Engine{}, g, nil)
	if err != nil || got != "40" {
		t.Fatalf("mixed graph: %q %v", got, err)
	}
	if stats.Fired != 2 {
		t.Fatalf("fired = %d", stats.Fired)
	}
}

// TestClientTrustsDelegatedMaster: the client's policy names only a root
// key; the master is authorised because it presents a credential chain
// from that root — decentralised master authorisation.
func TestClientTrustsDelegatedMaster(t *testing.T) {
	ks := keys.NewKeyStore()
	root := keys.Deterministic("Kroot", "webcom-deleg")
	mk := keys.Deterministic("Kmaster", "webcom-deleg")
	ck := keys.Deterministic("KX", "webcom-deleg")
	ks.Add(root)
	ks.Add(mk)
	ks.Add(ck)

	// Root delegates WebCom scheduling to the master.
	deleg := keynote.MustNew(
		fmt.Sprintf("%q", root.PublicID()), fmt.Sprintf("%q", mk.PublicID()),
		`app_domain=="WebCom";`)
	if err := deleg.Sign(root); err != nil {
		t.Fatal(err)
	}

	masterChk, err := keynote.NewChecker([]*keynote.Assertion{keynote.MustNew(
		"POLICY", fmt.Sprintf("%q", ck.PublicID()), `app_domain=="WebCom";`)},
		keynote.WithResolver(ks))
	if err != nil {
		t.Fatal(err)
	}
	master := NewMaster(mk, masterChk, []*keynote.Assertion{deleg}, ks)
	if err := master.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })

	// Client policy trusts ONLY the root key.
	clientChk, err := keynote.NewChecker([]*keynote.Assertion{keynote.MustNew(
		"POLICY", fmt.Sprintf("%q", root.PublicID()), `app_domain=="WebCom";`)},
		keynote.WithResolver(ks))
	if err != nil {
		t.Fatal(err)
	}
	cl := &Client{Name: "X", Key: ck, Checker: clientChk,
		Local: map[string]func([]string) (string, error){"echo": echoOp}}
	if err := cl.Connect(master.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	waitClients(t, master, 1)

	g := cg.NewGraph("app")
	g.MustAddNode("n", &cg.Opaque{OpName: "echo", OpArity: 1})
	if err := g.SetConst("n", 0, "via-delegation"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetExit("n"); err != nil {
		t.Fatal(err)
	}
	got, _, err := master.Run(context.Background(), &cg.Engine{}, g, nil)
	if err != nil {
		t.Fatalf("delegated master refused: %v", err)
	}
	if got != "via-delegation" {
		t.Fatalf("result %q", got)
	}

	// A master WITHOUT the delegation credential is refused by the client.
	master2 := NewMaster(mk, masterChk, nil, ks)
	if err := master2.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master2.Close() })
	cl2 := &Client{Name: "X2", Key: ck, Checker: clientChk,
		Local: map[string]func([]string) (string, error){"echo": echoOp}}
	if err := cl2.Connect(master2.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl2.Close() })
	waitClients(t, master2, 1)
	if _, _, err := master2.Run(context.Background(), &cg.Engine{}, g, nil); err == nil {
		t.Fatal("client obeyed a master with no chain from the trusted root")
	}
}

// TestInputSensitiveMediation exercises the Section 7 extension: the
// master's policy conditions on the operation's actual arguments
// (arg0..argN), not just the component identifier.
func TestInputSensitiveMediation(t *testing.T) {
	ks := keys.NewKeyStore()
	mk := keys.Deterministic("Kmaster", "webcom-args")
	ck := keys.Deterministic("KX", "webcom-args")
	ks.Add(mk)
	ks.Add(ck)

	// The client may run salaries.read ONLY for employee Bob.
	chk, err := keynote.NewChecker([]*keynote.Assertion{keynote.MustNew(
		"POLICY", fmt.Sprintf("%q", ck.PublicID()),
		`app_domain=="WebCom" && operation=="salaries.read" && arg0=="Bob";`)},
		keynote.WithResolver(ks))
	if err != nil {
		t.Fatal(err)
	}
	master := NewMaster(mk, chk, nil, ks)
	if err := master.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })

	cl := &Client{Name: "X", Key: ck,
		Local: map[string]func([]string) (string, error){
			"salaries.read": func(args []string) (string, error) { return "52000", nil },
		}}
	if err := cl.Connect(master.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	waitClients(t, master, 1)

	run := func(arg string) error {
		g := cg.NewGraph("app")
		g.MustAddNode("n", &cg.Opaque{OpName: "salaries.read", OpArity: 1})
		if err := g.SetConst("n", 0, arg); err != nil {
			t.Fatal(err)
		}
		if err := g.SetExit("n"); err != nil {
			t.Fatal(err)
		}
		_, _, err := master.Run(context.Background(), &cg.Engine{}, g, nil)
		return err
	}
	if err := run("Bob"); err != nil {
		t.Fatalf("authorised argument refused: %v", err)
	}
	if err := run("Claire"); err == nil {
		t.Fatal("policy conditioned on arg0 did not block a different argument")
	}
}

// TestClientConnectErrors covers the failure paths of Connect.
func TestClientConnectErrors(t *testing.T) {
	ck := keys.Deterministic("K", "webcom-ce")
	cl := &Client{Name: "X", Key: ck}
	if err := cl.Connect("127.0.0.1:1"); err == nil {
		t.Fatal("connect to dead port succeeded")
	}
	// A "master" that speaks garbage.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Write([]byte("{\"type\":\"nonsense\"}\n"))
			c.Close()
		}
	}()
	if err := cl.Connect(ln.Addr().String()); err == nil {
		t.Fatal("garbage handshake accepted")
	}
}

// TestMasterWithNoClients: opaque task with nobody connected.
func TestMasterWithNoClients(t *testing.T) {
	env := newTestEnv(t, "X")
	g := cg.NewGraph("app")
	g.MustAddNode("n", &cg.Opaque{OpName: "echo", OpArity: 0})
	if err := g.SetExit("n"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := env.master.Run(context.Background(), &cg.Engine{}, g, nil); err == nil {
		t.Fatal("scheduled with no clients")
	}
}

// TestMasterRejectsMalformedClientCredential.
func TestMasterRejectsMalformedClientCredential(t *testing.T) {
	env := newTestEnv(t, "X")
	raw, err := netDial(env.master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.close()
	ch, err := raw.recv()
	if err != nil {
		t.Fatal(err)
	}
	ck, _ := env.ks.ByName("KX")
	err = raw.send(&msg{
		Type:        msgHello,
		Name:        "X",
		Principal:   ck.PublicID(),
		Sig:         ck.Sign(handshakePayload("client", ch.Nonce, ck.PublicID())),
		Nonce:       "00",
		Credentials: []string{"this is not a credential"},
	})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := raw.recv()
	if err == nil && reply.Type != msgReject {
		t.Fatalf("malformed credential accepted: %+v", reply)
	}
}

// TestClientAccessorsAndWait covers Master(), Wait() and disconnect.
func TestClientAccessorsAndWait(t *testing.T) {
	env := newTestEnv(t, "X")
	cl := env.attach("X", nil)
	mk, _ := env.ks.ByName("Kmaster")
	if cl.Master() != mk.PublicID() {
		t.Fatalf("Master() = %s", cl.Master())
	}
	done := make(chan struct{})
	go func() {
		cl.Wait()
		close(done)
	}()
	cl.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not return after Close")
	}
}

// TestSystemForDomainAcrossMultipleSystems: a client hosting two
// middleware systems routes by domain; an op naming neither errors.
func TestSystemForDomainAcrossMultipleSystems(t *testing.T) {
	env := newTestEnv(t, "X")

	srvA := ejb.NewServer("ejbA", "hA", "srv")
	ca := srvA.CreateContainer("fin")
	ca.DeployBean("A", map[string]middleware.Handler{
		"m": func([]string) (string, error) { return "from-A", nil }}, "m")
	ca.AddMethodPermission("R", "A", "m")
	srvA.AddUser("u")
	srvA.AssignRole("fin", "u", "R")

	srvB := ejb.NewServer("ejbB", "hB", "srv")
	cb := srvB.CreateContainer("fin")
	cb.DeployBean("B", map[string]middleware.Handler{
		"m": func([]string) (string, error) { return "from-B", nil }}, "m")
	cb.AddMethodPermission("R", "B", "m")
	srvB.AddUser("u")
	srvB.AssignRole("fin", "u", "R")

	reg := middleware.NewRegistry()
	reg.Register(srvA)
	reg.Register(srvB)
	ck, _ := env.ks.ByName("KX")
	cl := &Client{Name: "X", Key: ck, Registry: reg}
	if err := cl.Connect(env.master.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	waitClients(t, env.master, 1)

	run := func(op, domain string) (string, error) {
		g := cg.NewGraph("app")
		n := g.MustAddNode("n", &cg.Opaque{OpName: op, OpArity: 0})
		n.Annotations["Domain"] = domain
		n.Annotations["User"] = "u"
		if err := g.SetExit("n"); err != nil {
			t.Fatal(err)
		}
		got, _, err := env.master.Run(context.Background(), &cg.Engine{}, g, nil)
		return got, err
	}
	if got, err := run("A.m", "hA/srv/fin"); err != nil || got != "from-A" {
		t.Fatalf("A: %q %v", got, err)
	}
	if got, err := run("B.m", "hB/srv/fin"); err != nil || got != "from-B" {
		t.Fatalf("B: %q %v", got, err)
	}
	if _, err := run("C.m", "nowhere/at/all"); err == nil {
		t.Fatal("op for unhosted domain executed")
	}
	// Op without a dot and not in Local errors.
	if _, err := run("nodot", "hA/srv/fin"); err == nil {
		t.Fatal("non-middleware op without Local executed")
	}
}

// TestDispatchContextCancellation: a task outstanding when the context
// dies returns the context error rather than hanging.
func TestDispatchContextCancellation(t *testing.T) {
	env := newTestEnv(t, "X")
	block := make(chan struct{})
	env.attach("X", map[string]func([]string) (string, error){
		"slow": func([]string) (string, error) {
			<-block
			return "late", nil
		},
	})
	waitClients(t, env.master, 1)
	defer close(block)

	g := cg.NewGraph("app")
	g.MustAddNode("n", &cg.Opaque{OpName: "slow", OpArity: 0})
	if err := g.SetExit("n"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, _, err := env.master.Run(ctx, &cg.Engine{}, g, nil)
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
}

// TestRoundRobinSpreadsLoad: with two equally authorised clients,
// successive independent tasks land on both.
func TestRoundRobinSpreadsLoad(t *testing.T) {
	env := newTestEnv(t, "A", "B")
	var hitA, hitB atomic.Int64
	env.attach("A", map[string]func([]string) (string, error){
		"work": func([]string) (string, error) { hitA.Add(1); return "a", nil },
	})
	env.attach("B", map[string]func([]string) (string, error){
		"work": func([]string) (string, error) { hitB.Add(1); return "b", nil },
	})
	waitClients(t, env.master, 2)

	exec := env.master.Executor()
	op := &cg.Opaque{OpName: "work", OpArity: 0}
	for i := 0; i < 10; i++ {
		if _, err := exec(context.Background(), cg.Task{OpName: "work"}, op); err != nil {
			t.Fatal(err)
		}
	}
	if hitA.Load() == 0 || hitB.Load() == 0 {
		t.Fatalf("load not spread: A=%d B=%d", hitA.Load(), hitB.Load())
	}
}

// TestDeniedTaskTrace asserts the end-to-end trace of a denied task: the
// master's audit log records the denial with the deciding layer, the
// session fingerprint, and the client's name — and the session was
// admitted once, so dispatch attempts did not re-verify signatures.
func TestDeniedTaskTrace(t *testing.T) {
	env := newTestEnv(t, "X")
	env.attach("Z", map[string]func([]string) (string, error){"echo": echoOp})
	waitClients(t, env.master, 1)

	g := cg.NewGraph("app")
	g.MustAddNode("remote", &cg.Opaque{OpName: "echo", OpArity: 1})
	if err := g.SetConst("remote", 0, "x"); err != nil {
		t.Fatal(err)
	}
	if err := g.SetExit("remote"); err != nil {
		t.Fatal(err)
	}
	_, _, err := env.master.Run(context.Background(), &cg.Engine{}, g, nil)
	if err == nil {
		t.Fatal("unauthorised client was scheduled")
	}

	entry, ok := env.master.Audit().Last()
	if !ok {
		t.Fatal("denial not recorded in the master's audit log")
	}
	if entry.Peer != "Z" || entry.Op != "echo" {
		t.Fatalf("audit entry = peer %q op %q", entry.Peer, entry.Op)
	}
	d := entry.Decision
	if d.Allowed {
		t.Fatal("audited decision claims the task was allowed")
	}
	if got := d.Trace.DeniedBy(); got != "L2:keynote" {
		t.Fatalf("DeniedBy = %q", got)
	}
	if d.Trace.Fingerprint == "" {
		t.Fatal("trace carries no session fingerprint")
	}
	if len(d.Trace.Layers) != 1 || d.Trace.Layers[0].Verdict != "deny" {
		t.Fatalf("layer trace = %+v", d.Trace.Layers)
	}
	if !strings.Contains(entry.String(), "DENY") {
		t.Fatalf("audit entry renders %q", entry.String())
	}

	// The authz engine admitted Z's (empty) credential set exactly once,
	// and the denial was computed exactly once (denials are not retried).
	st := env.master.Engine().Stats()
	if st.Sessions != 1 {
		t.Fatalf("engine admitted %d sessions, want 1", st.Sessions)
	}
	if st.Misses != 1 {
		t.Fatalf("engine stats = %+v (want exactly one computed decision)", st)
	}
}

// TestWarmDispatchUsesDecisionCache runs the same task twice and asserts
// the second authorisation recomputed nothing — the no-per-request-
// verification guarantee of the session design. With the admission-time
// verdict bitmap the warm path is even cheaper than a cache hit: the
// repeat decision produces no cache traffic at all.
func TestWarmDispatchUsesDecisionCache(t *testing.T) {
	env := newTestEnv(t, "X")
	env.attach("X", map[string]func([]string) (string, error){"echo": echoOp})
	waitClients(t, env.master, 1)

	run := func() {
		g := cg.NewGraph("app")
		g.MustAddNode("remote", &cg.Opaque{OpName: "echo", OpArity: 1})
		if err := g.SetConst("remote", 0, "x"); err != nil {
			t.Fatal(err)
		}
		if err := g.SetExit("remote"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := env.master.Run(context.Background(), &cg.Engine{}, g, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	before := env.master.Engine().Stats()
	run()
	after := env.master.Engine().Stats()
	if after.Misses != before.Misses {
		t.Fatalf("repeat task recomputed its decision: %+v -> %+v", before, after)
	}
	if after.Hits != before.Hits {
		// The bitmap answers eligible repeats without touching the
		// shared cache; a hit here would mean the fast path regressed
		// to the slow one.
		t.Fatalf("repeat task fell back to the decision cache: %+v -> %+v", before, after)
	}
}
