// Package rbac implements the extended Role Based Access Control model of
// Section 2 of the paper: standard RBAC (Users, Roles, Permissions)
// extended with Domains (logical groupings of roles, such as departments
// or middleware servers) and ObjectTypes (the kinds of objects permissions
// apply to).
//
// A policy is a pair of relations:
//
//	RolePerm ⊆ Domain × Role × ObjectType × Permission
//	UserRole ⊆ User × Domain × Role
//
// RolePerm(d, r, ot, p) means role r in domain d holds permission p on
// objects of type ot; UserRole(u, d, r) means user u is assigned to the
// domain-role pair (d, r). The model is the common interpretation of
// CORBA, EJB and COM+ security configurations and the pivot format for
// every policy translation in this repository.
//
// Policy is also the one in-memory layout of the relation: the KeyCOM
// store keeps its catalogue in one, and every middleware adapter keeps
// its domain's rows in one through middleware.RoleTable. RolePerm is a
// row set. UserRole is indexed by user, and a user's role set is never
// changed in place once stored: users with one role share one set per
// (domain, role) pair, so a one-role member costs a pointer, and a user
// with several roles gets a fresh slice on every change
// (copy-on-write), so a clone shares every set with its original.
package rbac

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Core vocabulary. Distinct string types prevent positional mix-ups in the
// four- and three-column relations.
type (
	// User identifies a principal (an operating-system account, an EJB
	// server user, or — after translation — a public key).
	User string
	// Domain is a logical grouping of roles: a department, a Windows NT
	// domain, host+ORB name (CORBA), or host+server+JNDI name (EJB).
	Domain string
	// Role is a named job function, unique within its domain.
	Role string
	// ObjectType is the kind of object a permission ranges over
	// (e.g. "SalariesDB", a bean name, a COM class).
	ObjectType string
	// Permission is an access right in the context of an object type
	// (e.g. "read", "write", a method name, or COM's Launch/Access/RunAs).
	Permission string
)

// RolePermEntry is one row of the RolePerm relation.
type RolePermEntry struct {
	Domain     Domain
	Role       Role
	ObjectType ObjectType
	Permission Permission
}

// UserRoleEntry is one row of the UserRole relation.
type UserRoleEntry struct {
	User   User
	Domain Domain
	Role   Role
}

// DomainRole is a (domain, role) pair, the unit of role assignment.
type DomainRole struct {
	Domain Domain
	Role   Role
}

func (e RolePermEntry) String() string {
	return fmt.Sprintf("(%s, %s, %s, %s)", e.Domain, e.Role, e.ObjectType, e.Permission)
}

func (e UserRoleEntry) String() string {
	return fmt.Sprintf("(%s, %s, %s)", e.User, e.Domain, e.Role)
}

// Policy is a mutable RBAC policy: the two relations of the extended
// model. The zero value is not ready for use; call NewPolicy.
//
// UserRole is indexed by user (see the package doc for the layout), so
// UserHolds, HasUserRole, RolesOf and RemoveUser cost O(the user's
// roles), not O(the relation).
//
// Policy is not safe for concurrent mutation; adapters that share a
// policy synchronise externally.
type Policy struct {
	rolePerm map[RolePermEntry]struct{}
	userRole map[User]*[]DomainRole       // user -> its roles; never changed in place
	single   map[DomainRole]*[]DomainRole // the shared one-role sets
	nUR      int                          // UserRole rows
}

// NewPolicy returns an empty policy.
func NewPolicy() *Policy {
	return &Policy{
		rolePerm: make(map[RolePermEntry]struct{}),
		userRole: make(map[User]*[]DomainRole),
		single:   make(map[DomainRole]*[]DomainRole),
	}
}

// rolesOf returns u's role set. It is shared: never modify it.
func (p *Policy) rolesOf(u User) []DomainRole {
	if s := p.userRole[u]; s != nil {
		return *s
	}
	return nil
}

// one returns dr's one-role set, which every user holding only dr
// shares; a set per user would cost several times more.
func (p *Policy) one(dr DomainRole) *[]DomainRole {
	s := p.single[dr]
	if s == nil {
		s = &[]DomainRole{dr}
		p.single[dr] = s
	}
	return s
}

// AddRolePerm inserts RolePerm(d, r, ot, p). Inserting an existing row is
// a no-op.
func (p *Policy) AddRolePerm(d Domain, r Role, ot ObjectType, perm Permission) {
	p.rolePerm[RolePermEntry{d, r, ot, perm}] = struct{}{}
}

// AddUserRole inserts UserRole(u, d, r).
func (p *Policy) AddUserRole(u User, d Domain, r Role) {
	dr := DomainRole{d, r}
	cur := p.rolesOf(u)
	switch {
	case slices.Contains(cur, dr):
		return
	case len(cur) == 0:
		p.userRole[u] = p.one(dr)
	default:
		s := append(cur[:len(cur):len(cur)], dr) // copies: sets are shared
		p.userRole[u] = &s
	}
	p.nUR++
}

// RemoveRolePerm deletes a RolePerm row; absent rows are a no-op.
func (p *Policy) RemoveRolePerm(d Domain, r Role, ot ObjectType, perm Permission) {
	delete(p.rolePerm, RolePermEntry{d, r, ot, perm})
}

// RemoveUserRole deletes a UserRole row.
func (p *Policy) RemoveUserRole(u User, d Domain, r Role) {
	cur := p.rolesOf(u)
	i := slices.Index(cur, DomainRole{d, r})
	switch {
	case i < 0:
		return
	case len(cur) == 1:
		delete(p.userRole, u)
	case len(cur) == 2:
		p.userRole[u] = p.one(cur[1-i])
	default:
		s := slices.Delete(slices.Clone(cur), i, i+1)
		p.userRole[u] = &s
	}
	p.nUR--
}

// RemoveUser deletes every role assignment of u (revocation of a user
// without touching role permissions — the administrative operation RBAC
// is praised for in Section 2).
func (p *Policy) RemoveUser(u User) int {
	n := len(p.rolesOf(u))
	delete(p.userRole, u)
	p.nUR -= n
	return n
}

// HasRolePerm reports membership of the RolePerm relation.
func (p *Policy) HasRolePerm(d Domain, r Role, ot ObjectType, perm Permission) bool {
	_, ok := p.rolePerm[RolePermEntry{d, r, ot, perm}]
	return ok
}

// HasUserRole reports membership of the UserRole relation.
func (p *Policy) HasUserRole(u User, d Domain, r Role) bool {
	return slices.Contains(p.rolesOf(u), DomainRole{d, r})
}

// UserHolds reports whether user u holds permission perm on object type ot
// through any of u's roles: the composed access-control decision
//
//	∃ (d, r): UserRole(u, d, r) ∧ RolePerm(d, r, ot, perm).
func (p *Policy) UserHolds(u User, ot ObjectType, perm Permission) bool {
	for _, dr := range p.rolesOf(u) {
		if p.HasRolePerm(dr.Domain, dr.Role, ot, perm) {
			return true
		}
	}
	return false
}

// UserHoldsInDomain is UserHolds restricted to roles of one domain.
func (p *Policy) UserHoldsInDomain(u User, d Domain, ot ObjectType, perm Permission) bool {
	for _, dr := range p.rolesOf(u) {
		if dr.Domain == d && p.HasRolePerm(d, dr.Role, ot, perm) {
			return true
		}
	}
	return false
}

// RolePerms returns the RolePerm relation sorted by (domain, role,
// object type, permission).
func (p *Policy) RolePerms() []RolePermEntry {
	out := make([]RolePermEntry, 0, len(p.rolePerm))
	for e := range p.rolePerm {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return lessRP(out[i], out[j]) })
	return out
}

// UserRoles returns the UserRole relation sorted by (user, domain, role).
func (p *Policy) UserRoles() []UserRoleEntry {
	out := make([]UserRoleEntry, 0, p.nUR)
	for u, s := range p.userRole {
		for _, dr := range *s {
			out = append(out, UserRoleEntry{u, dr.Domain, dr.Role})
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessUR(out[i], out[j]) })
	return out
}

func lessRP(a, b RolePermEntry) bool {
	if a.Domain != b.Domain {
		return a.Domain < b.Domain
	}
	if a.Role != b.Role {
		return a.Role < b.Role
	}
	if a.ObjectType != b.ObjectType {
		return a.ObjectType < b.ObjectType
	}
	return a.Permission < b.Permission
}

func lessUR(a, b UserRoleEntry) bool {
	if a.User != b.User {
		return a.User < b.User
	}
	if a.Domain != b.Domain {
		return a.Domain < b.Domain
	}
	return a.Role < b.Role
}

func lessDR(a, b DomainRole) bool {
	if a.Domain != b.Domain {
		return a.Domain < b.Domain
	}
	return a.Role < b.Role
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[K ~string, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Domains returns every domain mentioned in either relation, sorted.
func (p *Policy) Domains() []Domain {
	set := map[Domain]struct{}{}
	for e := range p.rolePerm {
		set[e.Domain] = struct{}{}
	}
	for _, s := range p.userRole {
		for _, dr := range *s {
			set[dr.Domain] = struct{}{}
		}
	}
	return sortedKeys(set)
}

// Users returns every user in the UserRole relation, sorted.
func (p *Policy) Users() []User { return sortedKeys(p.userRole) }

// ObjectTypes returns every object type in the RolePerm relation, sorted.
func (p *Policy) ObjectTypes() []ObjectType {
	set := map[ObjectType]struct{}{}
	for e := range p.rolePerm {
		set[e.ObjectType] = struct{}{}
	}
	return sortedKeys(set)
}

// RolesIn returns the roles of domain d mentioned in either relation,
// sorted.
func (p *Policy) RolesIn(d Domain) []Role {
	set := map[Role]struct{}{}
	for e := range p.rolePerm {
		if e.Domain == d {
			set[e.Role] = struct{}{}
		}
	}
	for _, s := range p.userRole {
		for _, dr := range *s {
			if dr.Domain == d {
				set[dr.Role] = struct{}{}
			}
		}
	}
	return sortedKeys(set)
}

// RolesOf returns the (domain, role) pairs user u is assigned to, sorted.
func (p *Policy) RolesOf(u User) []DomainRole {
	out := slices.Clone(p.rolesOf(u))
	sort.Slice(out, func(i, j int) bool { return lessDR(out[i], out[j]) })
	return out
}

// UsersIn returns the users assigned to (d, r), sorted.
func (p *Policy) UsersIn(d Domain, r Role) []User {
	var out []User
	for u, s := range p.userRole {
		if slices.Contains(*s, DomainRole{d, r}) {
			out = append(out, u)
		}
	}
	slices.Sort(out)
	return out
}

// PermsOf returns the RolePerm rows for (d, r), sorted.
func (p *Policy) PermsOf(d Domain, r Role) []RolePermEntry {
	var out []RolePermEntry
	for e := range p.rolePerm {
		if e.Domain == d && e.Role == r {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessRP(out[i], out[j]) })
	return out
}

// Clone returns an independent copy. The role sets are shared, which is
// safe because neither policy changes a set in place.
func (p *Policy) Clone() *Policy {
	return &Policy{
		rolePerm: maps.Clone(p.rolePerm),
		userRole: maps.Clone(p.userRole),
		single:   maps.Clone(p.single),
		nUR:      p.nUR,
	}
}

// Equal reports whether two policies contain exactly the same rows.
func (p *Policy) Equal(q *Policy) bool {
	if len(p.rolePerm) != len(q.rolePerm) || p.nUR != q.nUR {
		return false
	}
	for e := range p.rolePerm {
		if _, ok := q.rolePerm[e]; !ok {
			return false
		}
	}
	return len(p.userRolesNotIn(q)) == 0
}

// userRolesNotIn returns p's UserRole rows that q lacks, unsorted.
func (p *Policy) userRolesNotIn(q *Policy) []UserRoleEntry {
	var out []UserRoleEntry
	for u, s := range p.userRole {
		for _, dr := range *s {
			if !q.HasUserRole(u, dr.Domain, dr.Role) {
				out = append(out, UserRoleEntry{u, dr.Domain, dr.Role})
			}
		}
	}
	return out
}

// Merge adds every row of q into p (policy union; used when synthesising a
// global policy from per-middleware policies — "Policy Comprehension").
func (p *Policy) Merge(q *Policy) {
	for e := range q.rolePerm {
		p.rolePerm[e] = struct{}{}
	}
	for u, s := range q.userRole {
		for _, dr := range *s {
			p.AddUserRole(u, dr.Domain, dr.Role)
		}
	}
}

// Diff describes the row-level difference between two policies.
type Diff struct {
	AddedRolePerm   []RolePermEntry
	RemovedRolePerm []RolePermEntry
	AddedUserRole   []UserRoleEntry
	RemovedUserRole []UserRoleEntry
}

// Empty reports whether the diff is empty.
func (d Diff) Empty() bool {
	return len(d.AddedRolePerm) == 0 && len(d.RemovedRolePerm) == 0 &&
		len(d.AddedUserRole) == 0 && len(d.RemovedUserRole) == 0
}

func (d Diff) String() string {
	var b strings.Builder
	for _, e := range d.AddedRolePerm {
		fmt.Fprintf(&b, "+RolePerm%s\n", e)
	}
	for _, e := range d.RemovedRolePerm {
		fmt.Fprintf(&b, "-RolePerm%s\n", e)
	}
	for _, e := range d.AddedUserRole {
		fmt.Fprintf(&b, "+UserRole%s\n", e)
	}
	for _, e := range d.RemovedUserRole {
		fmt.Fprintf(&b, "-UserRole%s\n", e)
	}
	return b.String()
}

// DiffFrom computes the change set that turns old into p ("Policy
// Maintenance": the rows to propagate to keep replicas consistent).
func (p *Policy) DiffFrom(old *Policy) Diff {
	var d Diff
	for e := range p.rolePerm {
		if _, ok := old.rolePerm[e]; !ok {
			d.AddedRolePerm = append(d.AddedRolePerm, e)
		}
	}
	for e := range old.rolePerm {
		if _, ok := p.rolePerm[e]; !ok {
			d.RemovedRolePerm = append(d.RemovedRolePerm, e)
		}
	}
	d.AddedUserRole = p.userRolesNotIn(old)
	d.RemovedUserRole = old.userRolesNotIn(p)
	sort.Slice(d.AddedRolePerm, func(i, j int) bool { return lessRP(d.AddedRolePerm[i], d.AddedRolePerm[j]) })
	sort.Slice(d.RemovedRolePerm, func(i, j int) bool { return lessRP(d.RemovedRolePerm[i], d.RemovedRolePerm[j]) })
	sort.Slice(d.AddedUserRole, func(i, j int) bool { return lessUR(d.AddedUserRole[i], d.AddedUserRole[j]) })
	sort.Slice(d.RemovedUserRole, func(i, j int) bool { return lessUR(d.RemovedUserRole[i], d.RemovedUserRole[j]) })
	return d
}

// Apply applies a diff to the policy.
func (p *Policy) Apply(d Diff) {
	for _, e := range d.AddedRolePerm {
		p.AddRolePerm(e.Domain, e.Role, e.ObjectType, e.Permission)
	}
	for _, e := range d.RemovedRolePerm {
		p.RemoveRolePerm(e.Domain, e.Role, e.ObjectType, e.Permission)
	}
	for _, e := range d.AddedUserRole {
		p.AddUserRole(e.User, e.Domain, e.Role)
	}
	for _, e := range d.RemovedUserRole {
		p.RemoveUserRole(e.User, e.Domain, e.Role)
	}
}

// Validate reports structural anomalies: user-role assignments to
// (domain, role) pairs that hold no permissions (dangling assignments) and
// roles granted permissions but having no members (unused roles). These
// are warnings, not errors — the paper's Figure 1 itself contains a
// "no access" marker modelled here as an absent row.
func (p *Policy) Validate() []string {
	var warnings []string
	for _, ur := range p.UserRoles() {
		if len(p.PermsOf(ur.Domain, ur.Role)) == 0 {
			warnings = append(warnings,
				fmt.Sprintf("user %s assigned to (%s, %s) which holds no permissions",
					ur.User, ur.Domain, ur.Role))
		}
	}
	seen := map[DomainRole]bool{}
	for _, rp := range p.RolePerms() {
		dr := DomainRole{rp.Domain, rp.Role}
		if seen[dr] {
			continue
		}
		seen[dr] = true
		if len(p.UsersIn(dr.Domain, dr.Role)) == 0 {
			warnings = append(warnings,
				fmt.Sprintf("role (%s, %s) holds permissions but has no members", dr.Domain, dr.Role))
		}
	}
	return warnings
}

// Len returns the total number of rows across both relations.
func (p *Policy) Len() int { return len(p.rolePerm) + p.nUR }

// String renders the policy in the two-table style of Figure 1.
func (p *Policy) String() string {
	var b strings.Builder
	b.WriteString("RolePerm:\n")
	fmt.Fprintf(&b, "  %-12s %-12s %-14s %s\n", "Domain", "Role", "ObjectType", "Permission")
	for _, e := range p.RolePerms() {
		fmt.Fprintf(&b, "  %-12s %-12s %-14s %s\n", e.Domain, e.Role, e.ObjectType, e.Permission)
	}
	b.WriteString("UserRole:\n")
	fmt.Fprintf(&b, "  %-12s %-12s %s\n", "User", "Domain", "Role")
	for _, e := range p.UserRoles() {
		fmt.Fprintf(&b, "  %-12s %-12s %s\n", e.User, e.Domain, e.Role)
	}
	return b.String()
}
