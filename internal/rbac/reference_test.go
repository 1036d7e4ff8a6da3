package rbac

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refPolicy is the flat reference for Policy: each relation a plain row
// set, and every query a scan or an explicit join over the rows. It
// shares no code with Policy's per-user layout.
type refPolicy struct {
	rp map[RolePermEntry]bool
	ur map[UserRoleEntry]bool
}

func newRef() *refPolicy {
	return &refPolicy{rp: map[RolePermEntry]bool{}, ur: map[UserRoleEntry]bool{}}
}

func (r *refPolicy) apply(d Diff) {
	for _, e := range d.AddedRolePerm {
		r.rp[e] = true
	}
	for _, e := range d.RemovedRolePerm {
		delete(r.rp, e)
	}
	for _, e := range d.AddedUserRole {
		r.ur[e] = true
	}
	for _, e := range d.RemovedUserRole {
		delete(r.ur, e)
	}
}

func (r *refPolicy) removeUser(u User) int {
	n := 0
	for e := range r.ur {
		if e.User == u {
			delete(r.ur, e)
			n++
		}
	}
	return n
}

func (r *refPolicy) clone() *refPolicy {
	q := newRef()
	q.merge(r)
	return q
}

func (r *refPolicy) merge(q *refPolicy) {
	for e := range q.rp {
		r.rp[e] = true
	}
	for e := range q.ur {
		r.ur[e] = true
	}
}

func (r *refPolicy) equal(q *refPolicy) bool { return r.diffFrom(q).Empty() }

// holds is the join ∃ (d, r): UserRole(u, d, r) ∧ RolePerm(d, r, ot, p),
// restricted to domain d unless d is empty.
func (r *refPolicy) holds(u User, d Domain, ot ObjectType, p Permission) bool {
	for ur := range r.ur {
		if ur.User != u || (d != "" && ur.Domain != d) {
			continue
		}
		for rp := range r.rp {
			if rp.Domain == ur.Domain && rp.Role == ur.Role && rp.ObjectType == ot && rp.Permission == p {
				return true
			}
		}
	}
	return false
}

func (r *refPolicy) diffFrom(old *refPolicy) Diff {
	var d Diff
	for e := range r.rp {
		if !old.rp[e] {
			d.AddedRolePerm = append(d.AddedRolePerm, e)
		}
	}
	for e := range old.rp {
		if !r.rp[e] {
			d.RemovedRolePerm = append(d.RemovedRolePerm, e)
		}
	}
	for e := range r.ur {
		if !old.ur[e] {
			d.AddedUserRole = append(d.AddedUserRole, e)
		}
	}
	for e := range old.ur {
		if !r.ur[e] {
			d.RemovedUserRole = append(d.RemovedUserRole, e)
		}
	}
	slices.SortFunc(d.AddedRolePerm, cmpRP)
	slices.SortFunc(d.RemovedRolePerm, cmpRP)
	slices.SortFunc(d.AddedUserRole, cmpUR)
	slices.SortFunc(d.RemovedUserRole, cmpUR)
	return d
}

func (r *refPolicy) rolePerms() []RolePermEntry {
	out := []RolePermEntry{}
	for e := range r.rp {
		out = append(out, e)
	}
	slices.SortFunc(out, cmpRP)
	return out
}

func (r *refPolicy) userRoles() []UserRoleEntry {
	out := []UserRoleEntry{}
	for e := range r.ur {
		out = append(out, e)
	}
	slices.SortFunc(out, cmpUR)
	return out
}

func cmpRP(a, b RolePermEntry) int {
	return cmp.Or(cmp.Compare(a.Domain, b.Domain), cmp.Compare(a.Role, b.Role),
		cmp.Compare(a.ObjectType, b.ObjectType), cmp.Compare(a.Permission, b.Permission))
}

func cmpUR(a, b UserRoleEntry) int {
	return cmp.Or(cmp.Compare(a.User, b.User), cmp.Compare(a.Domain, b.Domain), cmp.Compare(a.Role, b.Role))
}

// The universe of the differential test: two domains and three roles,
// users that come and go, and one user that is never assigned.
var (
	refUsers   = []User{"u0", "u1", "u2", "u3", "u4", "u5", "nobody"}
	refDomains = []Domain{"D1", "D2"}
	refRoles   = []Role{"R1", "R2", "R3"}
	refTypes   = []ObjectType{"O1", "O2"}
	refPerms   = []Permission{"p1", "p2"}
)

// refGen draws rows of the universe. Most assignments go to (D1, R1),
// so several users often hold that one role and share its set.
type refGen struct{ rng *rand.Rand }

func (g refGen) rolePerm() RolePermEntry {
	return RolePermEntry{refDomains[g.rng.Intn(2)], refRoles[g.rng.Intn(3)],
		refTypes[g.rng.Intn(2)], refPerms[g.rng.Intn(2)]}
}

func (g refGen) userRole() UserRoleEntry {
	u := refUsers[g.rng.Intn(len(refUsers)-1)]
	if g.rng.Intn(3) == 0 {
		return UserRoleEntry{u, "D1", "R1"}
	}
	return UserRoleEntry{u, refDomains[g.rng.Intn(2)], refRoles[g.rng.Intn(3)]}
}

// diff draws up to three rows per part; a part may repeat or cancel a
// row, as a diff read off the wire may.
func (g refGen) diff() Diff {
	var d Diff
	for i := g.rng.Intn(3); i > 0; i-- {
		d.AddedRolePerm = append(d.AddedRolePerm, g.rolePerm())
	}
	for i := g.rng.Intn(3); i > 0; i-- {
		d.RemovedRolePerm = append(d.RemovedRolePerm, g.rolePerm())
	}
	for i := g.rng.Intn(4); i > 0; i-- {
		d.AddedUserRole = append(d.AddedUserRole, g.userRole())
	}
	for i := g.rng.Intn(4); i > 0; i-- {
		d.RemovedUserRole = append(d.RemovedUserRole, g.userRole())
	}
	return d
}

// checkAgainstRef compares every query of p with the reference r.
func checkAgainstRef(t *testing.T, at string, p *Policy, r *refPolicy) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", at, fmt.Sprintf(format, args...))
	}
	for _, u := range refUsers {
		for _, ot := range refTypes {
			for _, pm := range refPerms {
				if got, want := p.UserHolds(u, ot, pm), r.holds(u, "", ot, pm); got != want {
					fail("UserHolds(%s, %s, %s) = %v, want %v", u, ot, pm, got, want)
				}
				for _, d := range refDomains {
					if got, want := p.UserHoldsInDomain(u, d, ot, pm), r.holds(u, d, ot, pm); got != want {
						fail("UserHoldsInDomain(%s, %s, %s, %s) = %v, want %v", u, d, ot, pm, got, want)
					}
				}
			}
		}
		var roles []DomainRole
		for _, d := range refDomains {
			for _, ro := range refRoles {
				want := r.ur[UserRoleEntry{u, d, ro}]
				if got := p.HasUserRole(u, d, ro); got != want {
					fail("HasUserRole(%s, %s, %s) = %v, want %v", u, d, ro, got, want)
				}
				if want {
					roles = append(roles, DomainRole{d, ro})
				}
			}
		}
		if got := p.RolesOf(u); !slices.Equal(got, roles) {
			fail("RolesOf(%s) = %v, want %v", u, got, roles)
		}
	}
	users := map[User]bool{}
	for _, d := range refDomains {
		for _, ro := range refRoles {
			var want []User
			for _, u := range refUsers {
				if r.ur[UserRoleEntry{u, d, ro}] {
					want = append(want, u)
					users[u] = true
				}
			}
			if got := p.UsersIn(d, ro); !slices.Equal(got, want) {
				fail("UsersIn(%s, %s) = %v, want %v", d, ro, got, want)
			}
		}
	}
	wantUsers := []User{}
	for _, u := range refUsers {
		if users[u] {
			wantUsers = append(wantUsers, u)
		}
	}
	if got := p.Users(); !slices.Equal(got, wantUsers) {
		fail("Users = %v, want %v", got, wantUsers)
	}
	if got, want := p.UserRoles(), r.userRoles(); !slices.Equal(got, want) {
		fail("UserRoles = %v, want %v", got, want)
	}
	if got, want := p.RolePerms(), r.rolePerms(); !slices.Equal(got, want) {
		fail("RolePerms = %v, want %v", got, want)
	}
	if got, want := p.Len(), len(r.rp)+len(r.ur); got != want {
		fail("Len = %d, want %d", got, want)
	}
	data, err := json.Marshal(p)
	if err != nil {
		fail("marshal: %v", err)
	}
	q := NewPolicy()
	if err := json.Unmarshal(data, q); err != nil {
		fail("unmarshal: %v", err)
	}
	if !q.Equal(p) || !p.Equal(q) || !slices.Equal(q.UserRoles(), r.userRoles()) {
		fail("JSON round trip changed the rows")
	}
}

// TestPolicyMatchesFlatReference drives Policy and the flat reference
// with the same random stream of every mutating operation and checks
// every query after each step. A second policy, held by the stream as a
// clone, a diff base or a merge source, checks that no role set leaks
// between users or policies.
func TestPolicyMatchesFlatReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := refGen{rand.New(rand.NewSource(seed))}
		p, r := NewPolicy(), newRef()
		other, otherRef := NewPolicy(), newRef()
		shared, many := false, false
		for step := 0; step < 1000; step++ {
			var op string
			switch g.rng.Intn(10) {
			case 0, 1:
				op = "AddUserRole"
				e := g.userRole()
				p.AddUserRole(e.User, e.Domain, e.Role)
				r.ur[e] = true
			case 2:
				op = "RemoveUserRole"
				e := g.userRole()
				p.RemoveUserRole(e.User, e.Domain, e.Role)
				delete(r.ur, e)
			case 3:
				op = "AddRolePerm/RemoveRolePerm"
				e := g.rolePerm()
				if g.rng.Intn(2) == 0 {
					p.AddRolePerm(e.Domain, e.Role, e.ObjectType, e.Permission)
					r.rp[e] = true
				} else {
					p.RemoveRolePerm(e.Domain, e.Role, e.ObjectType, e.Permission)
					delete(r.rp, e)
				}
			case 4:
				op = "RemoveUser"
				u := refUsers[g.rng.Intn(len(refUsers))]
				if got, want := p.RemoveUser(u), r.removeUser(u); got != want {
					t.Fatalf("seed %d step %d: RemoveUser(%s) = %d, want %d", seed, step, u, got, want)
				}
			case 5:
				op = "Apply"
				d := g.diff()
				p.Apply(d)
				r.apply(d)
			case 6:
				op = "Clone"
				// Keep mutating the clone; the original lives on as the
				// second policy and must not see later steps.
				other, otherRef = p, r.clone()
				p = p.Clone()
			case 7:
				op = "Merge"
				d := g.diff()
				other.Apply(d)
				otherRef.apply(d)
				p.Merge(other)
				r.merge(otherRef)
			case 8:
				op = "DiffFrom"
				d := p.DiffFrom(other)
				if want := r.diffFrom(otherRef); d.String() != want.String() {
					t.Fatalf("seed %d step %d: DiffFrom = %+v, want %+v", seed, step, d, want)
				}
				other.Apply(d)
				otherRef.apply(d)
			default:
				op = "Equal"
				if got, want := p.Equal(other), r.equal(otherRef); got != want || other.Equal(p) != want {
					t.Fatalf("seed %d step %d: Equal = %v, want %v", seed, step, got, want)
				}
			}
			at := fmt.Sprintf("seed %d step %d after %s", seed, step, op)
			checkAgainstRef(t, at, p, r)
			checkAgainstRef(t, at+" (second policy)", other, otherRef)

			perUser := map[User]int{}
			for e := range r.ur {
				perUser[e.User]++
			}
			oneRole := map[DomainRole]int{}
			for e := range r.ur {
				if perUser[e.User] == 1 {
					oneRole[DomainRole{e.Domain, e.Role}]++
				}
			}
			for _, n := range oneRole {
				shared = shared || n >= 2
			}
			for _, n := range perUser {
				many = many || n >= 3
			}
		}
		if !shared || !many {
			t.Fatalf("seed %d: stream never reached both a shared one-role set (%v) and a user with three roles (%v)", seed, shared, many)
		}
	}
}
