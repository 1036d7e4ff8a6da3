// Package corba is a miniature CORBA Object Request Broker sufficient to
// stand in for the ORBs the paper's testbed used: an interface repository,
// an object adapter hosting servants, remote invocation over a GIOP-like
// TCP protocol with IOR-style object references, and a CORBASec-style
// access policy.
//
// In the paper's RBAC interpretation (Section 2), a CORBA domain is the
// machine plus ORB server name; roles are unique to the domain; users are
// members of roles; and permissions are the method calls on objects of a
// given object type (IDL interface). The ORB keeps that policy's rows in
// one middleware.RoleTable for its domain, so granted rights per role
// and principal role membership are the shared relations; what stays
// CORBA-specific is the interface repository and the object adapter.
package corba

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"securewebcom/internal/middleware"
	"securewebcom/internal/rbac"
	"securewebcom/internal/telemetry"
)

// ORB is a miniature Object Request Broker. One ORB forms one RBAC
// domain: "<host>/<server name>".
type ORB struct {
	label string // installation label ("Y")
	host  string
	name  string

	mu         sync.RWMutex
	interfaces map[string][]string // interface repository: interface -> operations
	objects    map[string]*servant
	table      *middleware.RoleTable // CORBASec-style grants and memberships
}

type servant struct {
	iface string
	impl  map[string]middleware.Handler
}

// NewORB creates an ORB named name on the given (simulated) host.
func NewORB(label, host, name string) *ORB {
	o := &ORB{
		label:      label,
		host:       host,
		name:       name,
		interfaces: make(map[string][]string),
		objects:    make(map[string]*servant),
	}
	o.table = middleware.NewRoleTable(o.Domain(), func(rbac.Role) {}, func(rbac.User) {})
	return o
}

// Name implements middleware.System.
func (o *ORB) Name() string { return o.label }

// Kind implements middleware.System.
func (o *ORB) Kind() middleware.Kind { return middleware.KindCORBA }

// Domain returns the ORB's RBAC domain, "<host>/<name>".
func (o *ORB) Domain() rbac.Domain {
	return rbac.Domain(o.host + "/" + o.name)
}

// DefineInterface registers an IDL interface and its operations in the
// interface repository.
func (o *ORB) DefineInterface(iface string, operations ...string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.interfaces[iface] = append([]string(nil), operations...)
}

// BindObject activates a servant for an object key, implementing iface.
// Handlers missing for declared operations raise a CORBA-style
// BAD_OPERATION at invocation time.
func (o *ORB) BindObject(key, iface string, impl map[string]middleware.Handler) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.interfaces[iface]; !ok {
		return fmt.Errorf("corba: interface %q not in repository", iface)
	}
	o.objects[key] = &servant{iface: iface, impl: impl}
	return nil
}

// Components implements middleware.System by enumerating bound objects.
func (o *ORB) Components() []middleware.Component {
	o.mu.RLock()
	defer o.mu.RUnlock()
	seen := map[string]bool{}
	var out []middleware.Component
	for _, s := range o.objects {
		if seen[s.iface] {
			continue
		}
		seen[s.iface] = true
		ops := append([]string(nil), o.interfaces[s.iface]...)
		sort.Strings(ops)
		out = append(out, middleware.Component{
			Domain:     o.Domain(),
			ObjectType: rbac.ObjectType(s.iface),
			Operations: ops,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ObjectType < out[j].ObjectType })
	return out
}

// GrantRole grants role the right to call op on iface.
func (o *ORB) GrantRole(role, iface, op string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.table.Grant(rbac.Role(role), rbac.ObjectType(iface), rbac.Permission(op))
}

// AddPrincipalToRole makes principal a member of role.
func (o *ORB) AddPrincipalToRole(principal, role string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.table.Assign(rbac.User(principal), rbac.Role(role))
}

// CheckAccess implements middleware.SecurityAdapter.
func (o *ORB) CheckAccess(ctx context.Context, u rbac.User, d rbac.Domain, ot rbac.ObjectType, perm rbac.Permission) (bool, error) {
	_, span := telemetry.StartSpan(ctx, "corba.check")
	defer span.Finish()
	if d != o.Domain() {
		return false, fmt.Errorf("corba: domain %q is not this ORB's domain %q", d, o.Domain())
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.table.Holds(u, ot, perm), nil
}

// Invoke implements middleware.Invoker: the ORB's security interceptor
// runs before the servant.
func (o *ORB) Invoke(ctx context.Context, u rbac.User, d rbac.Domain, ot rbac.ObjectType, op string, args []string) (string, error) {
	_, span := telemetry.StartSpan(ctx, "corba.invoke")
	defer span.Finish()
	span.SetAttr("user", string(u))
	span.SetAttr("object", string(ot))
	span.SetAttr("op", op)
	if d != o.Domain() {
		return "", fmt.Errorf("corba: domain %q is not this ORB's domain %q", d, o.Domain())
	}
	o.mu.RLock()
	var sv *servant
	for _, s := range o.objects {
		if s.iface == string(ot) {
			sv = s
			break
		}
	}
	allowed := o.table.Holds(u, ot, rbac.Permission(op))
	o.mu.RUnlock()

	if sv == nil {
		return "", fmt.Errorf("corba: OBJECT_NOT_EXIST: no servant for interface %q", ot)
	}
	if !allowed {
		span.SetAttr("denied", "true")
		return "", &middleware.ErrDenied{User: u, Domain: d, ObjectType: ot, Op: op}
	}
	h, ok := sv.impl[op]
	if !ok {
		return "", fmt.Errorf("corba: BAD_OPERATION: %s has no operation %q", ot, op)
	}
	return h(args)
}

// invokeByKey dispatches a wire request addressed by object key.
func (o *ORB) invokeByKey(principal, key, op string, args []string) (string, error) {
	o.mu.RLock()
	sv, ok := o.objects[key]
	var allowed bool
	if ok {
		allowed = o.table.Holds(rbac.User(principal), rbac.ObjectType(sv.iface), rbac.Permission(op))
	}
	o.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("corba: OBJECT_NOT_EXIST: %q", key)
	}
	if !allowed {
		return "", &middleware.ErrDenied{
			User: rbac.User(principal), Domain: o.Domain(),
			ObjectType: rbac.ObjectType(sv.iface), Op: op,
		}
	}
	h, ok := sv.impl[op]
	if !ok {
		return "", fmt.Errorf("corba: BAD_OPERATION: %q", op)
	}
	return h(args)
}

// ExtractPolicy implements middleware.SecurityAdapter.
func (o *ORB) ExtractPolicy(_ context.Context) (*rbac.Policy, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.table.Extract(rbac.NewPolicy()), nil
}

// ApplyPolicy implements middleware.SecurityAdapter: the ORB's security
// configuration is replaced by p's rows for this ORB's domain.
func (o *ORB) ApplyPolicy(_ context.Context, p *rbac.Policy) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.table.Replace(p), nil
}

// ApplyDiff implements middleware.SecurityAdapter.
func (o *ORB) ApplyDiff(_ context.Context, diff rbac.Diff) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.table.ApplyDiff(diff)
	return nil
}

var _ middleware.System = (*ORB)(nil)
