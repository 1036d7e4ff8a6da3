package middleware

import "securewebcom/internal/rbac"

// RoleTable holds one domain's rows of the extended RBAC model: the
// RolePerm relation (role, object type, permission) and the UserRole
// relation (user, role), both within the table's domain. It is the
// mechanism under every adapter: the CORBA ORB holds one, each EJB bean
// container one and the COM+ catalogue one, and each keeps only its
// native vocabulary and constraints at its own edge. The rows live in
// an rbac.Policy, which indexes assignments by user; the table adds
// only the domain filter and the native side effects of an imported
// row. Rows enter through Grant, Assign, Replace and ApplyDiff, and
// leave only through the last two.
//
// A RoleTable is not safe for concurrent use; its adapter's lock
// guards it.
type RoleTable struct {
	domain rbac.Domain
	rows   *rbac.Policy // only rows of domain
	onRole func(rbac.Role)
	onUser func(rbac.User)
}

// NewRoleTable returns an empty table for domain d. Replace and
// ApplyDiff pass the role of every row they insert to onRole, and the
// user of every UserRole row they insert to onUser: the native side
// effects of an imported row, such as declaring the role or creating
// the user's account. Neither may be nil.
func NewRoleTable(d rbac.Domain, onRole func(rbac.Role), onUser func(rbac.User)) *RoleTable {
	return &RoleTable{domain: d, rows: rbac.NewPolicy(), onRole: onRole, onUser: onUser}
}

// Grant adds the row RolePerm(domain, r, ot, p).
func (t *RoleTable) Grant(r rbac.Role, ot rbac.ObjectType, p rbac.Permission) {
	t.rows.AddRolePerm(t.domain, r, ot, p)
}

// Assign adds the row UserRole(u, domain, r).
func (t *RoleTable) Assign(u rbac.User, r rbac.Role) {
	t.rows.AddUserRole(u, t.domain, r)
}

// Holds reports whether u holds permission p on ot through one of its
// roles in the table's domain.
func (t *RoleTable) Holds(u rbac.User, ot rbac.ObjectType, p rbac.Permission) bool {
	return t.rows.UserHoldsInDomain(u, t.domain, ot, p)
}

// Extract adds the table's rows to p and returns p.
func (t *RoleTable) Extract(p *rbac.Policy) *rbac.Policy {
	p.Merge(t.rows)
	return p
}

// Replace makes the table's rows exactly p's rows for the table's
// domain and returns how many rows that is.
func (t *RoleTable) Replace(p *rbac.Policy) int {
	t.rows = rbac.NewPolicy()
	t.ApplyDiff(rbac.Diff{AddedRolePerm: p.RolePerms(), AddedUserRole: p.UserRoles()})
	return t.rows.Len()
}

// ApplyDiff applies the rows of d that belong to the table's domain, in
// the order rbac.Policy.Apply uses, and ignores the rest. Each inserted
// row first runs its native side effects.
func (t *RoleTable) ApplyDiff(d rbac.Diff) {
	for _, e := range d.AddedRolePerm {
		if e.Domain == t.domain {
			t.onRole(e.Role)
			t.rows.AddRolePerm(e.Domain, e.Role, e.ObjectType, e.Permission)
		}
	}
	// A row of another domain is never present, so removals need no
	// filter.
	for _, e := range d.RemovedRolePerm {
		t.rows.RemoveRolePerm(e.Domain, e.Role, e.ObjectType, e.Permission)
	}
	for _, e := range d.AddedUserRole {
		if e.Domain == t.domain {
			t.onRole(e.Role)
			t.onUser(e.User)
			t.rows.AddUserRole(e.User, e.Domain, e.Role)
		}
	}
	for _, e := range d.RemovedUserRole {
		t.rows.RemoveUserRole(e.User, e.Domain, e.Role)
	}
}
