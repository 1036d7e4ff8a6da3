package rbac

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestFigure1Decisions(t *testing.T) {
	p := Figure1()
	const db = ObjectType("SalariesDB")
	cases := []struct {
		user User
		perm Permission
		want bool
	}{
		{"Alice", "write", true},
		{"Alice", "read", false},
		{"Bob", "read", true},
		{"Bob", "write", true},
		{"Claire", "read", true},
		{"Claire", "write", false},
		{"Dave", "read", false}, // Assistant: no access
		{"Dave", "write", false},
		{"Elaine", "read", true},
		{"Elaine", "write", false},
		{"Mallory", "read", false}, // unknown user
	}
	for _, c := range cases {
		if got := p.UserHolds(c.user, db, c.perm); got != c.want {
			t.Errorf("UserHolds(%s, %s) = %v, want %v", c.user, c.perm, got, c.want)
		}
	}
}

func TestUserHoldsInDomain(t *testing.T) {
	p := Figure1()
	const db = ObjectType("SalariesDB")
	if !p.UserHoldsInDomain("Bob", "Finance", db, "read") {
		t.Fatal("Bob reads in Finance")
	}
	if p.UserHoldsInDomain("Bob", "Sales", db, "read") {
		t.Fatal("Bob has no Sales role")
	}
	// Claire is Sales Manager (read only); the same role name in Finance
	// has more rights, but domains isolate roles.
	if p.UserHoldsInDomain("Claire", "Finance", db, "write") {
		t.Fatal("role names must not leak across domains")
	}
}

func TestAddRemoveIdempotent(t *testing.T) {
	p := NewPolicy()
	p.AddRolePerm("D", "R", "O", "x")
	p.AddRolePerm("D", "R", "O", "x")
	if len(p.RolePerms()) != 1 {
		t.Fatal("duplicate RolePerm row stored")
	}
	p.RemoveRolePerm("D", "R", "O", "x")
	p.RemoveRolePerm("D", "R", "O", "x") // second remove is a no-op
	if len(p.RolePerms()) != 0 {
		t.Fatal("RolePerm row not removed")
	}
	p.AddUserRole("u", "D", "R")
	p.AddUserRole("u", "D", "R")
	if len(p.UserRoles()) != 1 {
		t.Fatal("duplicate UserRole row stored")
	}
	p.RemoveUserRole("u", "D", "R")
	if len(p.UserRoles()) != 0 {
		t.Fatal("UserRole row not removed")
	}
}

func TestRemoveUserRevokesEverything(t *testing.T) {
	p := Figure1()
	p.AddUserRole("Elaine", "Finance", "Clerk")
	n := p.RemoveUser("Elaine")
	if n != 2 {
		t.Fatalf("RemoveUser removed %d rows, want 2", n)
	}
	if p.UserHolds("Elaine", "SalariesDB", "read") {
		t.Fatal("Elaine retains access after revocation")
	}
	// Other users unaffected.
	if !p.UserHolds("Claire", "SalariesDB", "read") {
		t.Fatal("revocation of Elaine disturbed Claire")
	}
}

func TestEnumerations(t *testing.T) {
	p := Figure1()
	if got := p.Domains(); len(got) != 2 || got[0] != "Finance" || got[1] != "Sales" {
		t.Fatalf("Domains = %v", got)
	}
	if got := p.Users(); len(got) != 5 {
		t.Fatalf("Users = %v", got)
	}
	if got := p.ObjectTypes(); len(got) != 1 || got[0] != "SalariesDB" {
		t.Fatalf("ObjectTypes = %v", got)
	}
	if got := p.RolesIn("Sales"); len(got) != 2 || got[0] != "Assistant" || got[1] != "Manager" {
		t.Fatalf("RolesIn(Sales) = %v", got)
	}
	if got := p.RolesOf("Bob"); len(got) != 1 || got[0] != (DomainRole{"Finance", "Manager"}) {
		t.Fatalf("RolesOf(Bob) = %v", got)
	}
	if got := p.UsersIn("Sales", "Manager"); len(got) != 2 || got[0] != "Claire" || got[1] != "Elaine" {
		t.Fatalf("UsersIn = %v", got)
	}
	if got := p.PermsOf("Finance", "Manager"); len(got) != 2 {
		t.Fatalf("PermsOf = %v", got)
	}
}

func TestCloneEqualIndependence(t *testing.T) {
	p := Figure1()
	q := p.Clone()
	if !p.Equal(q) || !q.Equal(p) {
		t.Fatal("clone not equal")
	}
	q.AddRolePerm("Sales", "Assistant", "SalariesDB", "read")
	if p.Equal(q) {
		t.Fatal("mutating clone affected original comparison")
	}
	if p.HasRolePerm("Sales", "Assistant", "SalariesDB", "read") {
		t.Fatal("clone shares storage with original")
	}
}

func TestMerge(t *testing.T) {
	p := Figure1()
	q := NewPolicy()
	q.AddRolePerm("HR", "Manager", "PersonnelDB", "read")
	q.AddUserRole("Fred", "HR", "Manager")
	p.Merge(q)
	if !p.UserHolds("Fred", "PersonnelDB", "read") {
		t.Fatal("merge lost rows")
	}
	if !p.UserHolds("Bob", "SalariesDB", "read") {
		t.Fatal("merge destroyed existing rows")
	}
}

func TestDiffApply(t *testing.T) {
	old := Figure1()
	cur := old.Clone()
	cur.AddUserRole("Fred", "Sales", "Manager")
	cur.RemoveRolePerm("Finance", "Clerk", "SalariesDB", "write")

	d := cur.DiffFrom(old)
	if len(d.AddedUserRole) != 1 || len(d.RemovedRolePerm) != 1 ||
		len(d.AddedRolePerm) != 0 || len(d.RemovedUserRole) != 0 {
		t.Fatalf("diff = %+v", d)
	}
	if d.Empty() {
		t.Fatal("non-empty diff reported empty")
	}
	// Applying the diff to old reproduces cur.
	old.Apply(d)
	if !old.Equal(cur) {
		t.Fatal("Apply(DiffFrom) did not reproduce target")
	}
	if !cur.DiffFrom(old).Empty() {
		t.Fatal("diff after apply not empty")
	}
}

func TestValidateWarnings(t *testing.T) {
	p := Figure1()
	w := p.Validate()
	// Dave is assigned to (Sales, Assistant) which holds no permissions.
	found := false
	for _, s := range w {
		if strings.Contains(s, "Dave") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected dangling-assignment warning for Dave, got %v", w)
	}
	// An unused role warning.
	p2 := NewPolicy()
	p2.AddRolePerm("D", "R", "O", "p")
	w2 := p2.Validate()
	if len(w2) != 1 || !strings.Contains(w2[0], "no members") {
		t.Fatalf("expected unused-role warning, got %v", w2)
	}
}

func TestStringRendersTables(t *testing.T) {
	s := Figure1().String()
	for _, frag := range []string{"RolePerm:", "UserRole:", "Finance", "Clerk", "Alice", "SalariesDB"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q", frag)
		}
	}
}

func TestSessionActivation(t *testing.T) {
	p := Figure1()
	p.AddUserRole("Bob", "Sales", "Manager") // Bob gets a second role
	s := p.NewSession("Bob")

	if s.Holds("SalariesDB", "read") {
		t.Fatal("session with no active roles holds permissions")
	}
	if err := s.Activate("Sales", "Manager"); err != nil {
		t.Fatal(err)
	}
	if !s.Holds("SalariesDB", "read") {
		t.Fatal("activated Sales/Manager must read")
	}
	if s.Holds("SalariesDB", "write") {
		t.Fatal("Sales/Manager must not write; Finance role is inactive")
	}
	if err := s.Activate("Finance", "Manager"); err != nil {
		t.Fatal(err)
	}
	if !s.Holds("SalariesDB", "write") {
		t.Fatal("Finance/Manager activated, write must hold")
	}
	s.Deactivate("Finance", "Manager")
	if s.Holds("SalariesDB", "write") {
		t.Fatal("deactivation did not drop permission")
	}
	if err := s.Activate("Finance", "Clerk"); err == nil {
		t.Fatal("activated a role the user is not assigned")
	}
	if got := s.Active(); len(got) != 1 || got[0] != (DomainRole{"Sales", "Manager"}) {
		t.Fatalf("Active = %v", got)
	}
}

func TestSessionActivateAll(t *testing.T) {
	p := Figure1()
	s := p.NewSession("Bob")
	s.ActivateAll()
	if !s.Holds("SalariesDB", "write") {
		t.Fatal("ActivateAll must grant Bob write")
	}
	if s.User() != "Bob" {
		t.Fatal("wrong session user")
	}
}

// Property: UserHolds is exactly the relational join of UserRole and
// RolePerm.
func TestQuickUserHoldsIsJoin(t *testing.T) {
	users := []User{"u1", "u2", "u3"}
	domains := []Domain{"d1", "d2"}
	roles := []Role{"r1", "r2"}
	perms := []Permission{"p1", "p2"}
	const ot = ObjectType("O")

	f := func(urMask, rpMask uint16, ui, pi uint8) bool {
		p, ref := NewPolicy(), newRef()
		i := 0
		for _, u := range users {
			for _, d := range domains {
				for _, r := range roles {
					if urMask&(1<<i) != 0 {
						p.AddUserRole(u, d, r)
						ref.ur[UserRoleEntry{u, d, r}] = true
					}
					i++
				}
			}
		}
		i = 0
		for _, d := range domains {
			for _, r := range roles {
				for _, pm := range perms {
					if rpMask&(1<<i) != 0 {
						p.AddRolePerm(d, r, ot, pm)
						ref.rp[RolePermEntry{d, r, ot, pm}] = true
					}
					i++
				}
			}
		}
		u := users[int(ui)%len(users)]
		pm := perms[int(pi)%len(perms)]
		return p.UserHolds(u, ot, pm) == ref.holds(u, "", ot, pm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Apply(DiffFrom(old→new)) is exactly new, for random policies.
func TestQuickDiffApplyRoundTrip(t *testing.T) {
	build := func(mask uint32) *Policy {
		p := NewPolicy()
		doms := []Domain{"A", "B"}
		rs := []Role{"r1", "r2"}
		i := 0
		for _, d := range doms {
			for _, r := range rs {
				for _, pm := range []Permission{"x", "y"} {
					if mask&(1<<i) != 0 {
						p.AddRolePerm(d, r, "O", pm)
					}
					i++
				}
				for _, u := range []User{"u1", "u2"} {
					if mask&(1<<i) != 0 {
						p.AddUserRole(u, d, r)
					}
					i++
				}
			}
		}
		return p
	}
	f := func(m1, m2 uint32) bool {
		oldP, newP := build(m1), build(m2)
		work := oldP.Clone()
		work.Apply(newP.DiffFrom(oldP))
		return work.Equal(newP)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLenCounts(t *testing.T) {
	p := Figure1()
	if p.Len() != 4+5 {
		t.Fatalf("Len = %d", p.Len())
	}
}
