package corba

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"securewebcom/internal/middleware"
	"securewebcom/internal/rbac"
)

// newSalariesORB builds an ORB hosting the paper's SalariesDB as a CORBA
// interface, with the Figure 1 policy for the Finance department.
func newSalariesORB() *ORB {
	o := NewORB("Y", "hostY", "SalariesORB")
	o.DefineInterface("SalariesDB", "read", "write")
	var mu sync.Mutex
	store := map[string]string{"Bob": "50000"}
	o.BindObject("salaries-1", "SalariesDB", map[string]middleware.Handler{
		"read": func(args []string) (string, error) {
			mu.Lock()
			defer mu.Unlock()
			if len(args) != 1 {
				return "", errors.New("read: want employee name")
			}
			return store[args[0]], nil
		},
		"write": func(args []string) (string, error) {
			mu.Lock()
			defer mu.Unlock()
			if len(args) != 2 {
				return "", errors.New("write: want name, salary")
			}
			store[args[0]] = args[1]
			return "ok", nil
		},
	})
	o.GrantRole("Clerk", "SalariesDB", "write")
	o.GrantRole("Manager", "SalariesDB", "read")
	o.GrantRole("Manager", "SalariesDB", "write")
	o.AddPrincipalToRole("Alice", "Clerk")
	o.AddPrincipalToRole("Bob", "Manager")
	return o
}

func TestORBIdentity(t *testing.T) {
	o := newSalariesORB()
	if o.Name() != "Y" || o.Kind() != middleware.KindCORBA {
		t.Fatal("identity accessors")
	}
	if o.Domain() != "hostY/SalariesORB" {
		t.Fatalf("Domain = %s", o.Domain())
	}
}

func TestORBComponents(t *testing.T) {
	o := newSalariesORB()
	comps := o.Components()
	if len(comps) != 1 || comps[0].ObjectType != "SalariesDB" {
		t.Fatalf("Components = %v", comps)
	}
	if len(comps[0].Operations) != 2 {
		t.Fatalf("operations = %v", comps[0].Operations)
	}
}

func TestORBLocalInvokeEnforcement(t *testing.T) {
	o := newSalariesORB()
	d := o.Domain()

	if _, err := o.Invoke(context.Background(), "Alice", d, "SalariesDB", "write", []string{"Eve", "42000"}); err != nil {
		t.Fatalf("clerk write: %v", err)
	}
	_, err := o.Invoke(context.Background(), "Alice", d, "SalariesDB", "read", []string{"Bob"})
	var denied *middleware.ErrDenied
	if !errors.As(err, &denied) {
		t.Fatalf("clerk read should be denied, got %v", err)
	}
	out, err := o.Invoke(context.Background(), "Bob", d, "SalariesDB", "read", []string{"Eve"})
	if err != nil || out != "42000" {
		t.Fatalf("manager read: %q, %v", out, err)
	}
	// Wrong domain.
	if _, err := o.Invoke(context.Background(), "Bob", "other/orb", "SalariesDB", "read", nil); err == nil {
		t.Fatal("foreign domain accepted")
	}
	// Unknown interface.
	if _, err := o.Invoke(context.Background(), "Bob", d, "Nothing", "read", nil); err == nil {
		t.Fatal("missing servant accepted")
	}
	// Declared but unimplemented op surfaces BAD_OPERATION only for
	// authorised callers.
	o.GrantRole("Manager", "SalariesDB", "audit")
	if _, err := o.Invoke(context.Background(), "Bob", d, "SalariesDB", "audit", nil); err == nil ||
		!strings.Contains(err.Error(), "BAD_OPERATION") {
		t.Fatalf("expected BAD_OPERATION, got %v", err)
	}
}

func TestORBCheckAccess(t *testing.T) {
	o := newSalariesORB()
	d := o.Domain()
	cases := []struct {
		user rbac.User
		perm rbac.Permission
		want bool
	}{
		{"Alice", "write", true},
		{"Alice", "read", false},
		{"Bob", "read", true},
		{"Mallory", "read", false},
	}
	for _, c := range cases {
		got, err := o.CheckAccess(context.Background(), c.user, d, "SalariesDB", c.perm)
		if err != nil || got != c.want {
			t.Errorf("CheckAccess(%s, %s) = %v, %v; want %v", c.user, c.perm, got, err, c.want)
		}
	}
	if _, err := o.CheckAccess(context.Background(), "Bob", "elsewhere", "SalariesDB", "read"); err == nil {
		t.Fatal("foreign domain did not error")
	}
}

func TestORBExtractApplyRoundTrip(t *testing.T) {
	o := newSalariesORB()
	p, err := o.ExtractPolicy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasRolePerm(o.Domain(), "Clerk", "SalariesDB", "write") {
		t.Fatal("extract lost Clerk write")
	}
	if !p.HasUserRole("Bob", o.Domain(), "Manager") {
		t.Fatal("extract lost Bob's role")
	}

	// Wipe and re-apply: decisions must be identical.
	o2 := NewORB("Y2", "hostY", "SalariesORB") // same domain
	o2.DefineInterface("SalariesDB", "read", "write")
	n, err := o2.ApplyPolicy(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if n != p.Len() {
		t.Fatalf("applied %d rows, policy has %d", n, p.Len())
	}
	p2, _ := o2.ExtractPolicy(context.Background())
	if !p.Equal(p2) {
		t.Fatalf("extract∘apply not identity:\n%s\nvs\n%s", p, p2)
	}
}

func TestORBApplyPolicyIgnoresForeignDomains(t *testing.T) {
	o := NewORB("Y", "h", "orb")
	p := rbac.NewPolicy()
	p.AddRolePerm("other/domain", "R", "O", "x")
	p.AddUserRole("u", "other/domain", "R")
	n, err := o.ApplyPolicy(context.Background(), p)
	if err != nil || n != 0 {
		t.Fatalf("foreign rows applied: n=%d err=%v", n, err)
	}
}

func TestORBApplyDiff(t *testing.T) {
	o := newSalariesORB()
	d := o.Domain()
	diff := rbac.Diff{
		AddedUserRole:   []rbac.UserRoleEntry{{User: "Fred", Domain: d, Role: "Manager"}},
		RemovedUserRole: []rbac.UserRoleEntry{{User: "Alice", Domain: d, Role: "Clerk"}},
	}
	if err := o.ApplyDiff(context.Background(), diff); err != nil {
		t.Fatal(err)
	}
	if ok, _ := o.CheckAccess(context.Background(), "Fred", d, "SalariesDB", "read"); !ok {
		t.Fatal("diff add not applied")
	}
	if ok, _ := o.CheckAccess(context.Background(), "Alice", d, "SalariesDB", "write"); ok {
		t.Fatal("diff removal not applied")
	}
	// Foreign rows ignored.
	if err := o.ApplyDiff(context.Background(), rbac.Diff{AddedRolePerm: []rbac.RolePermEntry{
		{Domain: "x/y", Role: "R", ObjectType: "O", Permission: "p"}}}); err != nil {
		t.Fatal(err)
	}
}

func TestBindObjectRequiresInterface(t *testing.T) {
	o := NewORB("Y", "h", "orb")
	if err := o.BindObject("k", "Undeclared", nil); err == nil {
		t.Fatal("bound object with undeclared interface")
	}
}

func TestGIOPRemoteInvocation(t *testing.T) {
	o := newSalariesORB()
	srv, err := Serve(o, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	obj, err := Dial(srv.IOR("salaries-1"))
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()

	out, err := obj.Invoke("Bob", "read", "Bob")
	if err != nil || out != "50000" {
		t.Fatalf("remote read: %q, %v", out, err)
	}
	if _, err := obj.Invoke("Alice", "read", "Bob"); err == nil ||
		!strings.Contains(err.Error(), "NO_PERMISSION") {
		t.Fatalf("remote denial: %v", err)
	}
	// An authorised call whose servant fails surfaces as a remote
	// exception (read with no argument).
	if _, err := obj.Invoke("Bob", "read"); err == nil ||
		!strings.Contains(err.Error(), "remote exception") {
		t.Fatalf("remote exception: %v", err)
	}
	// Multiple sequential calls on one connection.
	for i := 0; i < 10; i++ {
		if _, err := obj.Invoke("Alice", "write", fmt.Sprintf("emp%d", i), "1"); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestGIOPBadObjectKey(t *testing.T) {
	o := newSalariesORB()
	srv, err := Serve(o, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	obj, err := Dial(srv.IOR("no-such-object"))
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	if _, err := obj.Invoke("Bob", "read", "x"); err == nil ||
		!strings.Contains(err.Error(), "OBJECT_NOT_EXIST") {
		t.Fatalf("missing object: %v", err)
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial("not-an-ior"); err == nil {
		t.Fatal("malformed IOR accepted")
	}
	if _, err := Dial("IOR:nohost"); err == nil {
		t.Fatal("IOR without key accepted")
	}
	if _, err := Dial("IOR:127.0.0.1:1/obj"); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

func TestGIOPConcurrentClients(t *testing.T) {
	o := newSalariesORB()
	srv, err := Serve(o, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			obj, err := Dial(srv.IOR("salaries-1"))
			if err != nil {
				errs <- err
				return
			}
			defer obj.Close()
			for j := 0; j < 20; j++ {
				if _, err := obj.Invoke("Bob", "write", fmt.Sprintf("e%d-%d", i, j), "9"); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestGIOPCloseSeversConnections: Close severs a connection that is
// already open, so no invocation reaches the ORB once it has returned.
func TestGIOPCloseSeversConnections(t *testing.T) {
	srv, err := Serve(newSalariesORB(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	obj, err := Dial(srv.IOR("salaries-1"))
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	if _, err := obj.Invoke("Bob", "read", "Bob"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if out, err := obj.Invoke("Bob", "read", "Bob"); err == nil {
		t.Fatalf("invocation served after Close: %q", out)
	}
}

// TestInvokeSilentServerTimesOut: an ORB that accepts and then stays
// silent fails Invoke after the call deadline instead of hanging it.
func TestInvokeSilentServerTimesOut(t *testing.T) {
	defer func(d time.Duration) { invokeTimeout = d }(invokeTimeout)
	invokeTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	defer func() {
		ln.Close()
		select {
		case c := <-accepted:
			c.Close()
		default:
		}
	}()
	obj, err := Dial("IOR:" + ln.Addr().String() + "/salaries-1")
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	done := make(chan error, 1)
	go func() {
		_, err := obj.Invoke("Bob", "read", "Bob")
		done <- err
	}()
	select {
	case err := <-done:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("Invoke on a silent ORB: %v, want a timeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Invoke hung on a silent ORB")
	}
}
