package middleware

import (
	"slices"

	"securewebcom/internal/rbac"
)

// RoleTable holds one domain's rows of the extended RBAC model: the
// RolePerm relation (role, object type, permission) and the UserRole
// relation (user, role), both within the table's domain. It is the
// mechanism under every adapter: the CORBA ORB holds one, each EJB bean
// container one and the COM+ catalogue one, and each keeps only its
// native vocabulary and constraints at its own edge. Assignments are
// indexed by user, so Holds costs O(the user's roles). Rows enter
// through Grant, Assign, Replace and ApplyDiff, and leave only through
// the last two.
//
// A RoleTable is not safe for concurrent use; its adapter's lock
// guards it.
type RoleTable struct {
	domain  rbac.Domain
	perms   map[rbac.RolePermEntry]struct{}
	members map[rbac.User]*[]rbac.Role // user -> its roles; see setRoles
	single  map[rbac.Role]*[]rbac.Role // the shared one-role sets
	onRole  func(rbac.Role)
	onUser  func(rbac.User)
}

// NewRoleTable returns an empty table for domain d. Replace and
// ApplyDiff pass the role of every row they insert to onRole, and the
// user of every UserRole row they insert to onUser: the native side
// effects of an imported row, such as declaring the role or creating
// the user's account. Neither may be nil.
func NewRoleTable(d rbac.Domain, onRole func(rbac.Role), onUser func(rbac.User)) *RoleTable {
	return &RoleTable{
		domain: d, onRole: onRole, onUser: onUser,
		perms:   make(map[rbac.RolePermEntry]struct{}),
		members: make(map[rbac.User]*[]rbac.Role),
		single:  make(map[rbac.Role]*[]rbac.Role),
	}
}

// Grant adds the row RolePerm(domain, r, ot, p).
func (t *RoleTable) Grant(r rbac.Role, ot rbac.ObjectType, p rbac.Permission) {
	t.perms[rbac.RolePermEntry{Domain: t.domain, Role: r, ObjectType: ot, Permission: p}] = struct{}{}
}

// Assign adds the row UserRole(u, domain, r).
func (t *RoleTable) Assign(u rbac.User, r rbac.Role) {
	if cur := t.rolesOf(u); !slices.Contains(cur, r) {
		t.setRoles(u, append(cur[:len(cur):len(cur)], r)) // copies: sets are shared
	}
}

func (t *RoleTable) rolesOf(u rbac.User) []rbac.Role {
	if s := t.members[u]; s != nil {
		return *s
	}
	return nil
}

// setRoles makes roles u's role set. Users with one role share that
// role's set, so many one-role members cost a pointer each, as a member
// set per role does; a map per user costs several times more.
func (t *RoleTable) setRoles(u rbac.User, roles []rbac.Role) {
	switch len(roles) {
	case 0:
		delete(t.members, u)
	case 1:
		s := t.single[roles[0]]
		if s == nil {
			s = &[]rbac.Role{roles[0]}
			t.single[roles[0]] = s
		}
		t.members[u] = s
	default:
		s := roles // &roles would move the parameter to the heap on every call
		t.members[u] = &s
	}
}

// Holds reports whether u holds permission p on ot through one of its
// roles in the table's domain.
func (t *RoleTable) Holds(u rbac.User, ot rbac.ObjectType, p rbac.Permission) bool {
	for _, r := range t.rolesOf(u) {
		if _, ok := t.perms[rbac.RolePermEntry{Domain: t.domain, Role: r, ObjectType: ot, Permission: p}]; ok {
			return true
		}
	}
	return false
}

// Extract adds the table's rows to p and returns p.
func (t *RoleTable) Extract(p *rbac.Policy) *rbac.Policy {
	for e := range t.perms {
		p.AddRolePerm(e.Domain, e.Role, e.ObjectType, e.Permission)
	}
	for u, roles := range t.members {
		for _, r := range *roles {
			p.AddUserRole(u, t.domain, r)
		}
	}
	return p
}

// Replace makes the table's rows exactly p's rows for the table's
// domain and returns how many rows that is.
func (t *RoleTable) Replace(p *rbac.Policy) int {
	*t = *NewRoleTable(t.domain, t.onRole, t.onUser)
	t.ApplyDiff(rbac.Diff{AddedRolePerm: p.RolePerms(), AddedUserRole: p.UserRoles()})
	n := len(t.perms)
	for _, roles := range t.members {
		n += len(*roles)
	}
	return n
}

// ApplyDiff applies the rows of d that belong to the table's domain, in
// the order rbac.Policy.Apply uses, and ignores the rest.
func (t *RoleTable) ApplyDiff(d rbac.Diff) {
	for _, e := range d.AddedRolePerm {
		t.addRolePerm(e)
	}
	for _, e := range d.RemovedRolePerm {
		delete(t.perms, e) // a row of another domain is never present
	}
	for _, e := range d.AddedUserRole {
		t.addUserRole(e)
	}
	for _, e := range d.RemovedUserRole {
		if e.Domain == t.domain {
			rest := slices.DeleteFunc(slices.Clone(t.rolesOf(e.User)), func(r rbac.Role) bool { return r == e.Role })
			t.setRoles(e.User, rest)
		}
	}
}

// addRolePerm and addUserRole insert a row of the table's domain, with
// its native side effects, and ignore a row of any other.
func (t *RoleTable) addRolePerm(e rbac.RolePermEntry) {
	if e.Domain == t.domain {
		t.onRole(e.Role)
		t.perms[e] = struct{}{}
	}
}

func (t *RoleTable) addUserRole(e rbac.UserRoleEntry) {
	if e.Domain == t.domain {
		t.onRole(e.Role)
		t.onUser(e.User)
		t.Assign(e.User, e.Role)
	}
}
