package keycom

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
	"securewebcom/internal/middleware"
	"securewebcom/internal/middleware/complus"
	"securewebcom/internal/ossec"
	"securewebcom/internal/policylint"
	"securewebcom/internal/rbac"
	"securewebcom/internal/telemetry"
)

// figure8 builds the paper's Figure 8 setting: a COM+ catalogue in
// Windows Server Domain A, administered by a KeyCOM service whose policy
// trusts the WebCom administration key; the admin key delegates narrow
// authority to a manager in Domain B.
type figure8 struct {
	ks       *keys.KeyStore
	admin    *keys.KeyPair
	manager  *keys.KeyPair
	outsider *keys.KeyPair
	cat      *complus.Catalogue
	svc      *Service
	// managerCred lets the manager add users to Clerk in DOMA.
	managerCred *keynote.Assertion
}

func newFigure8(t *testing.T) *figure8 {
	t.Helper()
	f := &figure8{ks: keys.NewKeyStore()}
	f.admin = keys.Deterministic("KWebCom", "keycom")
	f.manager = keys.Deterministic("Kclaire", "keycom")
	f.outsider = keys.Deterministic("Kmallory", "keycom")
	f.ks.Add(f.admin)
	f.ks.Add(f.manager)
	f.ks.Add(f.outsider)

	nt := ossec.NewNTDomain("DOMA")
	f.cat = complus.NewCatalogue("W", nt)
	f.cat.RegisterClass("SalariesDB.Component", map[string]middleware.Handler{})
	f.cat.DefineRole("Clerk")
	f.cat.Grant("Clerk", "SalariesDB.Component", complus.PermAccess)

	policy := []*keynote.Assertion{keynote.MustNew(
		"POLICY", fmt.Sprintf("%q", f.admin.PublicID()), `app_domain=="KeyCOM";`)}
	chk, err := keynote.NewChecker(policy, keynote.WithResolver(f.ks))
	if err != nil {
		t.Fatal(err)
	}
	f.svc = NewService(f.cat, chk)

	f.managerCred = keynote.MustNew(
		fmt.Sprintf("%q", f.admin.PublicID()),
		fmt.Sprintf("%q", f.manager.PublicID()),
		`app_domain=="KeyCOM" && action=="add-user-role" && Domain=="DOMA" && Role=="Clerk";`)
	if err := f.managerCred.Sign(f.admin); err != nil {
		t.Fatal(err)
	}
	return f
}

func addUserDiff(user string) rbac.Diff {
	return rbac.Diff{AddedUserRole: []rbac.UserRoleEntry{
		{User: rbac.User(user), Domain: "DOMA", Role: "Clerk"}}}
}

func TestAdminCanUpdateDirectly(t *testing.T) {
	f := newFigure8(t)
	req := &UpdateRequest{Requester: f.admin.PublicID(), Diff: addUserDiff("Alice")}
	if err := req.Sign(f.admin); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.Apply(context.Background(), req); err != nil {
		t.Fatalf("admin update refused: %v", err)
	}
	if got, _ := f.cat.CheckAccess(context.Background(), "Alice", "DOMA", "SalariesDB.Component", complus.PermAccess); !got {
		t.Fatal("catalogue not updated")
	}
}

func TestDelegatedManagerCanAddClerks(t *testing.T) {
	f := newFigure8(t)
	req := &UpdateRequest{
		Requester:   f.manager.PublicID(),
		Diff:        addUserDiff("Bob"),
		Credentials: []string{f.managerCred.Text()},
	}
	if err := req.Sign(f.manager); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.Apply(context.Background(), req); err != nil {
		t.Fatalf("delegated update refused: %v", err)
	}
	if members := f.cat.RoleMembers("Clerk"); len(members) != 1 || members[0] != "Bob" {
		t.Fatalf("RoleMembers = %v", members)
	}
}

// TestApplyTelemetry checks that commits and refusals land in the
// service's telemetry registry and that Apply runs under a keycom.apply
// span carrying the refusal marker.
func TestApplyTelemetry(t *testing.T) {
	f := newFigure8(t)
	f.svc.Tel = telemetry.NewRegistry()
	tr := telemetry.NewTracer(0)
	ctx := telemetry.WithTracer(context.Background(), tr)

	ok := &UpdateRequest{Requester: f.admin.PublicID(), Diff: addUserDiff("Alice")}
	if err := ok.Sign(f.admin); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.Apply(ctx, ok); err != nil {
		t.Fatalf("admin update refused: %v", err)
	}
	bad := &UpdateRequest{Requester: f.outsider.PublicID(), Diff: addUserDiff("Eve")}
	if err := bad.Sign(f.outsider); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.Apply(ctx, bad); err == nil {
		t.Fatal("outsider update committed")
	}

	snap := f.svc.Tel.Snapshot()
	if snap.Counters["keycom.commits"] != 1 || snap.Counters["keycom.refusals"] != 1 {
		t.Fatalf("commits/refusals = %d/%d, want 1/1",
			snap.Counters["keycom.commits"], snap.Counters["keycom.refusals"])
	}
	if h, ok := snap.Histograms["keycom.commit.latency"]; !ok || h.Count != 1 {
		t.Fatalf("keycom.commit.latency = %+v", snap.Histograms)
	}
	var applies, refused int
	for _, sp := range tr.Spans() {
		if sp.Name != "keycom.apply" {
			continue
		}
		applies++
		if sp.Attrs["refused"] == "true" {
			refused++
		}
	}
	if applies != 2 || refused != 1 {
		t.Fatalf("keycom.apply spans = %d (refused %d), want 2 (1)", applies, refused)
	}
}

func TestManagerCannotExceedDelegation(t *testing.T) {
	f := newFigure8(t)
	// Removing users was not delegated.
	req := &UpdateRequest{
		Requester: f.manager.PublicID(),
		Diff: rbac.Diff{RemovedUserRole: []rbac.UserRoleEntry{
			{User: "Alice", Domain: "DOMA", Role: "Clerk"}}},
		Credentials: []string{f.managerCred.Text()},
	}
	if err := req.Sign(f.manager); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.Apply(context.Background(), req); err == nil {
		t.Fatal("manager removed a user beyond their delegation")
	}
	// Nor adding to another role.
	f.cat.DefineRole("Admins")
	req2 := &UpdateRequest{
		Requester: f.manager.PublicID(),
		Diff: rbac.Diff{AddedUserRole: []rbac.UserRoleEntry{
			{User: "Eve", Domain: "DOMA", Role: "Admins"}}},
		Credentials: []string{f.managerCred.Text()},
	}
	if err := req2.Sign(f.manager); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.Apply(context.Background(), req2); err == nil {
		t.Fatal("manager added to a role beyond their delegation")
	}
}

func TestOutsiderRejected(t *testing.T) {
	f := newFigure8(t)
	req := &UpdateRequest{Requester: f.outsider.PublicID(), Diff: addUserDiff("Eve")}
	if err := req.Sign(f.outsider); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.Apply(context.Background(), req); err == nil {
		t.Fatal("outsider update accepted")
	}
}

func TestSignatureRequiredAndBinding(t *testing.T) {
	f := newFigure8(t)
	// Unsigned.
	req := &UpdateRequest{Requester: f.admin.PublicID(), Diff: addUserDiff("Alice")}
	if err := f.svc.Apply(context.Background(), req); err == nil {
		t.Fatal("unsigned request accepted")
	}
	// Signed, then tampered.
	if err := req.Sign(f.admin); err != nil {
		t.Fatal(err)
	}
	req.Diff = addUserDiff("Mallory")
	if err := f.svc.Apply(context.Background(), req); err == nil {
		t.Fatal("tampered request accepted")
	}
	// Signed by a key other than the claimed requester.
	req2 := &UpdateRequest{Requester: f.admin.PublicID(), Diff: addUserDiff("Alice")}
	if err := req2.Sign(f.outsider); err == nil {
		t.Fatal("Sign accepted mismatched key")
	}
}

func TestAtomicity(t *testing.T) {
	f := newFigure8(t)
	// A diff mixing an authorised and an unauthorised change must apply
	// nothing.
	req := &UpdateRequest{
		Requester: f.manager.PublicID(),
		Diff: rbac.Diff{
			AddedUserRole: []rbac.UserRoleEntry{
				{User: "Bob", Domain: "DOMA", Role: "Clerk"},  // allowed
				{User: "Eve", Domain: "DOMA", Role: "Admins"}, // not allowed
			},
		},
		Credentials: []string{f.managerCred.Text()},
	}
	f.cat.DefineRole("Admins")
	if err := req.Sign(f.manager); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.Apply(context.Background(), req); err == nil {
		t.Fatal("partially authorised diff accepted")
	}
	if members := f.cat.RoleMembers("Clerk"); len(members) != 0 {
		t.Fatalf("partial application happened: %v", members)
	}
}

func TestMalformedCredentialRejected(t *testing.T) {
	f := newFigure8(t)
	req := &UpdateRequest{
		Requester:   f.manager.PublicID(),
		Diff:        addUserDiff("Bob"),
		Credentials: []string{"not a credential"},
	}
	if err := req.Sign(f.manager); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.Apply(context.Background(), req); err == nil || !strings.Contains(err.Error(), "malformed") {
		t.Fatalf("malformed credential: %v", err)
	}
}

func TestNetworkRoundTrip(t *testing.T) {
	f := newFigure8(t)
	srv, err := ListenAndServe(f.svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Delegated manager submits over the wire (the Figure 8 flow).
	req := &UpdateRequest{
		Requester:   f.manager.PublicID(),
		Diff:        addUserDiff("Bob"),
		Credentials: []string{f.managerCred.Text()},
	}
	if err := req.Sign(f.manager); err != nil {
		t.Fatal(err)
	}
	if err := Submit(srv.Addr(), req); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if got, _ := f.cat.CheckAccess(context.Background(), "Bob", "DOMA", "SalariesDB.Component", complus.PermAccess); !got {
		t.Fatal("remote update not applied")
	}

	// An unauthorised remote request surfaces the error.
	bad := &UpdateRequest{Requester: f.outsider.PublicID(), Diff: addUserDiff("Eve")}
	if err := bad.Sign(f.outsider); err != nil {
		t.Fatal(err)
	}
	if err := Submit(srv.Addr(), bad); err == nil {
		t.Fatal("unauthorised remote update accepted")
	}
}

func TestExtractLocalAndRemote(t *testing.T) {
	f := newFigure8(t)
	// Seed the catalogue with one member.
	req := &UpdateRequest{Requester: f.admin.PublicID(), Diff: addUserDiff("Alice")}
	if err := req.Sign(f.admin); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.Apply(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	// Admin extracts locally.
	ext := &ExtractRequest{Requester: f.admin.PublicID()}
	if err := ext.Sign(f.admin); err != nil {
		t.Fatal(err)
	}
	p, err := f.svc.Extract(context.Background(), ext)
	if err != nil {
		t.Fatal(err)
	}
	if !p.HasUserRole("Alice", "DOMA", "Clerk") {
		t.Fatalf("extracted policy missing row:\n%s", p)
	}

	// Remote extraction over the wire.
	srv, err := ListenAndServe(f.svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ext2 := &ExtractRequest{Requester: f.admin.PublicID()}
	if err := ext2.Sign(f.admin); err != nil {
		t.Fatal(err)
	}
	remote, err := SubmitExtract(srv.Addr(), ext2)
	if err != nil {
		t.Fatal(err)
	}
	if !remote.Equal(p) {
		t.Fatal("remote extraction differs from local")
	}
}

func TestExtractRequiresAuthorisation(t *testing.T) {
	f := newFigure8(t)
	// The manager's delegation covers add-user-role only, not extract.
	ext := &ExtractRequest{
		Requester:   f.manager.PublicID(),
		Credentials: []string{f.managerCred.Text()},
	}
	if err := ext.Sign(f.manager); err != nil {
		t.Fatal(err)
	}
	if _, err := f.svc.Extract(context.Background(), ext); err == nil {
		t.Fatal("extract authorised beyond delegation")
	}
	// Unsigned request refused.
	bad := &ExtractRequest{Requester: f.admin.PublicID(), Nonce: "n"}
	if _, err := f.svc.Extract(context.Background(), bad); err == nil {
		t.Fatal("unsigned extract accepted")
	}
	// A delegated extract right works.
	cred := keynote.MustNew(
		fmt.Sprintf("%q", f.admin.PublicID()), fmt.Sprintf("%q", f.manager.PublicID()),
		`app_domain=="KeyCOM" && action=="extract";`)
	if err := cred.Sign(f.admin); err != nil {
		t.Fatal(err)
	}
	ok := &ExtractRequest{
		Requester:   f.manager.PublicID(),
		Credentials: []string{cred.Text()},
	}
	if err := ok.Sign(f.manager); err != nil {
		t.Fatal(err)
	}
	if _, err := f.svc.Extract(context.Background(), ok); err != nil {
		t.Fatalf("delegated extract refused: %v", err)
	}
}

func TestLegacyFlatUpdateFrameStillWorks(t *testing.T) {
	f := newFigure8(t)
	srv, err := ListenAndServe(f.svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Submit uses the flat frame (no envelope).
	req := &UpdateRequest{Requester: f.admin.PublicID(), Diff: addUserDiff("Flat")}
	if err := req.Sign(f.admin); err != nil {
		t.Fatal(err)
	}
	if err := Submit(srv.Addr(), req); err != nil {
		t.Fatalf("legacy flat update refused: %v", err)
	}
	if got, _ := f.cat.CheckAccess(context.Background(), "Flat", "DOMA", "SalariesDB.Component", complus.PermAccess); !got {
		t.Fatal("flat update not applied")
	}
}

// TestLintGateRefusesErrorUpdateAtomically: with the pre-commit lint
// gate enabled, an authorised update that would leave the catalogue
// referencing vocabulary outside the service's catalogue is refused, and
// the pre-update catalogue is untouched. In-vocabulary updates still go
// through the same gate.
func TestLintGateRefusesErrorUpdateAtomically(t *testing.T) {
	f := newFigure8(t)
	cur, err := f.cat.ExtractPolicy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	f.svc.LintVocab = policylint.FromPolicy(cur)
	before := cur.Clone()

	// The admin is fully authorised for this change at the KeyNote layer;
	// only the lint gate stands in the way: "Ops" is not a domain of this
	// catalogue.
	req := &UpdateRequest{
		Requester: f.admin.PublicID(),
		Diff: rbac.Diff{AddedUserRole: []rbac.UserRoleEntry{
			{User: "Eve", Domain: "Ops", Role: "Clerk"}}},
	}
	if err := req.Sign(f.admin); err != nil {
		t.Fatal(err)
	}
	err = f.svc.Apply(context.Background(), req)
	if err == nil {
		t.Fatal("lint-error update accepted")
	}
	if !strings.Contains(err.Error(), "lints with") {
		t.Fatalf("refusal error does not come from the lint gate: %v", err)
	}
	after, err := f.cat.ExtractPolicy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !after.Equal(before) {
		t.Fatalf("catalogue changed by a refused update:\nbefore:\n%safter:\n%s", before, after)
	}

	// A well-formed update passes the same gate.
	ok := &UpdateRequest{Requester: f.admin.PublicID(), Diff: addUserDiff("Alice")}
	if err := ok.Sign(f.admin); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.Apply(context.Background(), ok); err != nil {
		t.Fatalf("in-vocabulary update refused by the gate: %v", err)
	}
	if got, _ := f.cat.CheckAccess(context.Background(), "Alice", "DOMA", "SalariesDB.Component", complus.PermAccess); !got {
		t.Fatal("accepted update not applied")
	}
}

// silentListener accepts one connection and never answers on it.
func silentListener(t *testing.T) string {
	t.Helper()
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
	t.Cleanup(func() {
		ln.Close()
		select {
		case c := <-accepted:
			c.Close()
		default:
		}
	})
	return ln.Addr().String()
}

// TestSubmitSilentServerTimesOut: a service that accepts and then stays
// silent fails Submit after the round-trip deadline instead of hanging it.
func TestSubmitSilentServerTimesOut(t *testing.T) {
	defer func(d time.Duration) { roundTripTimeout = d }(roundTripTimeout)
	roundTripTimeout = 100 * time.Millisecond
	addr := silentListener(t)
	done := make(chan error, 1)
	go func() { done <- Submit(addr, &UpdateRequest{Requester: "K"}) }()
	select {
	case err := <-done:
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("Submit to a silent server: %v, want a timeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Submit hung on a silent server")
	}
}
