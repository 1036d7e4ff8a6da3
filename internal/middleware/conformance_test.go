package middleware_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"securewebcom/internal/middleware"
	"securewebcom/internal/middleware/complus"
	"securewebcom/internal/middleware/corba"
	"securewebcom/internal/middleware/ejb"
	"securewebcom/internal/ossec"
	"securewebcom/internal/rbac"
)

// subject is one middleware adapter under the conformance test: the
// system, the RBAC domains it owns, its object and permission
// vocabulary, and its native calls for adding one row.
type subject struct {
	sys     middleware.System
	domains []rbac.Domain
	objects []rbac.ObjectType
	perms   []rbac.Permission
	grant   func(d rbac.Domain, r rbac.Role, ot rbac.ObjectType, p rbac.Permission) error
	assign  func(u rbac.User, d rbac.Domain, r rbac.Role) error
}

var (
	confUsers = []rbac.User{"ann", "bob", "cyd"}
	confRoles = []rbac.Role{"R0", "R1", "R2"}
	// foreign is a domain no adapter owns; its rows must be ignored.
	foreign = rbac.Domain("elsewhere/orb")
)

func corbaSubject() subject {
	orb := corba.NewORB("Y", "hostY", "orb1")
	return subject{
		sys:     orb,
		domains: []rbac.Domain{orb.Domain()},
		objects: []rbac.ObjectType{"Account", "Ledger"},
		perms:   []rbac.Permission{"read", "write", "close"},
		grant: func(_ rbac.Domain, r rbac.Role, ot rbac.ObjectType, p rbac.Permission) error {
			orb.GrantRole(string(r), string(ot), string(p))
			return nil
		},
		assign: func(u rbac.User, _ rbac.Domain, r rbac.Role) error {
			orb.AddPrincipalToRole(string(u), string(r))
			return nil
		},
	}
}

// ejbSubject has two bean containers, so two domains on one server.
func ejbSubject() subject {
	srv := ejb.NewServer("Z", "hostZ", "ejbsrv")
	jndi := map[rbac.Domain]string{}
	var domains []rbac.Domain
	for _, name := range []string{"ejb/A", "ejb/B"} {
		srv.CreateContainer(name)
		d := rbac.Domain("hostZ/ejbsrv/" + name)
		jndi[d] = name
		domains = append(domains, d)
	}
	return subject{
		sys:     srv,
		domains: domains,
		objects: []rbac.ObjectType{"Payroll", "Orders"},
		perms:   []rbac.Permission{"get", "put", "list"},
		grant: func(d rbac.Domain, r rbac.Role, ot rbac.ObjectType, p rbac.Permission) error {
			c, err := srv.Lookup(jndi[d])
			if err != nil {
				return err
			}
			c.AddMethodPermission(string(r), string(ot), string(p))
			return nil
		},
		assign: func(u rbac.User, d rbac.Domain, r rbac.Role) error {
			c, err := srv.Lookup(jndi[d])
			if err != nil {
				return err
			}
			srv.AddUser(string(u))
			c.DeclareRole(string(r))
			return srv.AssignRole(jndi[d], string(u), string(r))
		},
	}
}

func complusSubject() subject {
	nt := ossec.NewNTDomain("FINANCE")
	cat := complus.NewCatalogue("W", nt)
	return subject{
		sys:     cat,
		domains: []rbac.Domain{cat.Domain()},
		objects: []rbac.ObjectType{"Salaries.Component", "Audit.Component"},
		perms:   []rbac.Permission{complus.PermLaunch, complus.PermAccess, complus.PermRunAs},
		grant: func(_ rbac.Domain, r rbac.Role, ot rbac.ObjectType, p rbac.Permission) error {
			return cat.Grant(string(r), string(ot), string(p))
		},
		assign: func(u rbac.User, _ rbac.Domain, r rbac.Role) error {
			nt.AddAccount(string(u))
			return cat.AddRoleMember(string(r), string(u))
		},
	}
}

// TestRoleTableConformance drives each adapter with random native
// grants and assignments, ApplyPolicy and ApplyDiff calls, including
// rows for domains the adapter does not own, and compares it after
// every step with an rbac.Policy reference: extraction returns the
// reference restricted to the adapter's domains, every native access
// decision over the vocabulary equals UserHoldsInDomain, and
// ApplyPolicy reports the number of rows it kept.
func TestRoleTableConformance(t *testing.T) {
	for _, mk := range []func() subject{corbaSubject, ejbSubject, complusSubject} {
		t.Run(string(mk().sys.Kind()), func(t *testing.T) {
			for seed := int64(1); seed <= 25; seed++ {
				runConformance(t, mk(), rand.New(rand.NewSource(seed)))
				if t.Failed() {
					t.Fatalf("seed %d", seed)
				}
			}
		})
	}
}

func runConformance(t *testing.T, s subject, rng *rand.Rand) {
	t.Helper()
	ctx := context.Background()
	own := func() rbac.Domain { return s.domains[rng.Intn(len(s.domains))] }
	anyDomain := func() rbac.Domain {
		if rng.Intn(3) == 0 {
			return foreign
		}
		return own()
	}
	rolePerm := func(d rbac.Domain) rbac.RolePermEntry {
		perm := s.perms[rng.Intn(len(s.perms))]
		if d == foreign && rng.Intn(2) == 0 {
			perm = "not-in-any-vocabulary" // foreign rows are never validated
		}
		return rbac.RolePermEntry{Domain: d, Role: confRoles[rng.Intn(len(confRoles))],
			ObjectType: s.objects[rng.Intn(len(s.objects))], Permission: perm}
	}
	userRole := func(d rbac.Domain) rbac.UserRoleEntry {
		return rbac.UserRoleEntry{User: confUsers[rng.Intn(len(confUsers))], Domain: d,
			Role: confRoles[rng.Intn(len(confRoles))]}
	}

	ref := rbac.NewPolicy()
	for step := 0; step < 60; step++ {
		var what string
		switch rng.Intn(4) {
		case 0:
			e := rolePerm(own())
			what = "grant " + e.String()
			if err := s.grant(e.Domain, e.Role, e.ObjectType, e.Permission); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			ref.AddRolePerm(e.Domain, e.Role, e.ObjectType, e.Permission)
		case 1:
			e := userRole(own())
			what = "assign " + e.String()
			if err := s.assign(e.User, e.Domain, e.Role); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			ref.AddUserRole(e.User, e.Domain, e.Role)
		case 2:
			p := rbac.NewPolicy()
			for i := rng.Intn(12); i > 0; i-- {
				e := rolePerm(anyDomain())
				p.AddRolePerm(e.Domain, e.Role, e.ObjectType, e.Permission)
			}
			for i := rng.Intn(8); i > 0; i-- {
				e := userRole(anyDomain())
				p.AddUserRole(e.User, e.Domain, e.Role)
			}
			what = "ApplyPolicy\n" + p.String()
			n, err := s.sys.ApplyPolicy(ctx, p)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if want := restrict(p, s.domains).Len(); n != want {
				t.Errorf("%s: applied %d rows, want %d", what, n, want)
			}
			ref = p.Clone()
		default:
			// Removals draw half their rows from the reference, so they
			// hit rows that are present, including foreign ones.
			var d rbac.Diff
			present := ref.RolePerms()
			for i := rng.Intn(4); i > 0; i-- {
				d.AddedRolePerm = append(d.AddedRolePerm, rolePerm(anyDomain()))
				if len(present) > 0 && rng.Intn(2) == 0 {
					d.RemovedRolePerm = append(d.RemovedRolePerm, present[rng.Intn(len(present))])
				} else {
					d.RemovedRolePerm = append(d.RemovedRolePerm, rolePerm(anyDomain()))
				}
			}
			members := ref.UserRoles()
			for i := rng.Intn(4); i > 0; i-- {
				d.AddedUserRole = append(d.AddedUserRole, userRole(anyDomain()))
				if len(members) > 0 && rng.Intn(2) == 0 {
					d.RemovedUserRole = append(d.RemovedUserRole, members[rng.Intn(len(members))])
				} else {
					d.RemovedUserRole = append(d.RemovedUserRole, userRole(anyDomain()))
				}
			}
			what = "ApplyDiff\n" + d.String()
			if err := s.sys.ApplyDiff(ctx, d); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			ref.Apply(d)
		}
		checkConforms(t, s, ref, fmt.Sprintf("step %d, after %s", step, what))
	}
}

// checkConforms compares the adapter's extraction and access decisions
// with the reference policy.
func checkConforms(t *testing.T, s subject, ref *rbac.Policy, at string) {
	t.Helper()
	ctx := context.Background()
	got, err := s.sys.ExtractPolicy(ctx)
	if err != nil {
		t.Fatalf("%s: ExtractPolicy: %v", at, err)
	}
	if want := restrict(ref, s.domains); !got.Equal(want) {
		t.Fatalf("%s: ExtractPolicy\n got %s\nwant %s", at, got, want)
	}
	for _, d := range s.domains {
		for _, u := range confUsers {
			for _, ot := range s.objects {
				for _, p := range s.perms {
					ok, err := s.sys.CheckAccess(ctx, u, d, ot, p)
					if err != nil {
						t.Fatalf("%s: CheckAccess: %v", at, err)
					}
					if want := ref.UserHoldsInDomain(u, d, ot, p); ok != want {
						t.Fatalf("%s: CheckAccess(%s, %s, %s, %s) = %v, want %v", at, u, d, ot, p, ok, want)
					}
				}
			}
		}
	}
}

// restrict returns the rows of p that belong to the given domains.
func restrict(p *rbac.Policy, domains []rbac.Domain) *rbac.Policy {
	keep := map[rbac.Domain]bool{}
	for _, d := range domains {
		keep[d] = true
	}
	out := rbac.NewPolicy()
	for _, e := range p.RolePerms() {
		if keep[e.Domain] {
			out.AddRolePerm(e.Domain, e.Role, e.ObjectType, e.Permission)
		}
	}
	for _, e := range p.UserRoles() {
		if keep[e.Domain] {
			out.AddUserRole(e.User, e.Domain, e.Role)
		}
	}
	return out
}

// TestEJBUncheckedExcludedPrecedence: <exclude-list> dominates every
// grant and <unchecked/>, <unchecked/> admits any caller, and neither is
// a row of the shared relations: both survive ApplyPolicy and neither
// shows in ExtractPolicy.
func TestEJBUncheckedExcludedPrecedence(t *testing.T) {
	ctx := context.Background()
	srv := ejb.NewServer("Z", "hostZ", "ejbsrv")
	c := srv.CreateContainer("ejb/A")
	d := rbac.Domain("hostZ/ejbsrv/ejb/A")
	for _, m := range []string{"granted", "grantedOpen", "grantedShut", "openShut"} {
		c.AddMethodPermission("Clerk", "Bean", m)
	}
	srv.AddUser("ann")
	srv.AddUser("bob")
	if err := srv.AssignRole("ejb/A", "ann", "Clerk"); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"open", "grantedOpen", "openShut"} {
		c.MarkUnchecked("Bean", m)
	}
	for _, m := range []string{"shut", "grantedShut", "openShut"} {
		c.Exclude("Bean", m)
	}
	rows, err := srv.ExtractPolicy(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 5 { // four grants and one assignment
		t.Fatalf("extracted %d rows, want 5:\n%s", rows.Len(), rows)
	}

	// want[method] = {ann (holds Clerk), bob (no role)}.
	check := func(when string, want map[string][2]bool) {
		t.Helper()
		for m, w := range want {
			for i, u := range []rbac.User{"ann", "bob"} {
				ok, err := srv.CheckAccess(ctx, u, d, "Bean", rbac.Permission(m))
				if err != nil {
					t.Fatal(err)
				}
				if ok != w[i] {
					t.Errorf("%s: CheckAccess(%s, %s) = %v, want %v", when, u, m, ok, w[i])
				}
			}
		}
	}
	check("native", map[string][2]bool{
		"granted": {true, false}, "open": {true, true}, "grantedOpen": {true, true},
		"shut": {false, false}, "grantedShut": {false, false}, "openShut": {false, false},
		"none": {false, false},
	})
	if _, err := srv.ApplyPolicy(ctx, rbac.NewPolicy()); err != nil {
		t.Fatal(err)
	}
	check("after an empty ApplyPolicy", map[string][2]bool{
		"granted": {false, false}, "open": {true, true}, "grantedOpen": {true, true},
		"shut": {false, false}, "grantedShut": {false, false}, "openShut": {false, false},
	})
	if _, err := srv.ApplyPolicy(ctx, rows); err != nil {
		t.Fatal(err)
	}
	check("after re-applying the extracted rows", map[string][2]bool{
		"granted": {true, false}, "grantedShut": {false, false}, "openShut": {false, false},
	})
}
