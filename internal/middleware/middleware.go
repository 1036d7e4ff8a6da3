// Package middleware defines the unified view of heterogeneous middleware
// systems that Secure WebCom coordinates: CORBA ORBs, Enterprise JavaBeans
// containers and Microsoft COM+ catalogues.
//
// Each concrete middleware (subpackages corba, ejb and complus) implements
// the System interface: it exposes its components for interrogation
// (Section 6), a live invocation path with native security enforcement,
// and a SecurityAdapter that extracts the system's security configuration
// as an rbac.Policy and applies policies back — the primitive on which
// policy configuration, comprehension and migration (Sections 4.1-4.3)
// are built. Every adapter keeps the model's two relations in RoleTables
// and only its native vocabulary and constraints in its own package.
package middleware

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"securewebcom/internal/rbac"
)

// Kind identifies a middleware technology.
type Kind string

// The middleware technologies of the paper.
const (
	KindCORBA   Kind = "corba"
	KindEJB     Kind = "ejb"
	KindCOMPlus Kind = "com+"
)

// Component describes one invocable middleware component as presented on
// the IDE's component palette: its object type and the operations
// (methods) it offers.
type Component struct {
	// Domain is the component's home domain in the extended RBAC model.
	Domain rbac.Domain
	// ObjectType names the component (CORBA interface, bean, COM class).
	ObjectType rbac.ObjectType
	// Operations are the component's invocable operations. For COM+
	// these are the classic Launch/Access/RunAs permissions.
	Operations []string
}

// System is a middleware installation under Secure WebCom's coordination.
type System interface {
	// Name returns the installation's label (the paper's "X", "Y", "Z").
	Name() string
	// Kind returns the middleware technology.
	Kind() Kind
	// Components enumerates the installation's components (IDE
	// interrogation).
	Components() []Component

	SecurityAdapter
	Invoker
}

// SecurityAdapter is the bidirectional bridge between a middleware's
// native security configuration and the common RBAC model. Every
// method takes a context.Context so request-scoped trace/span chains
// (internal/telemetry) and cancellation follow an operation into the
// native mediation layer.
type SecurityAdapter interface {
	// ExtractPolicy renders the native security configuration as an RBAC
	// policy ("Policy Comprehension").
	ExtractPolicy(ctx context.Context) (*rbac.Policy, error)
	// ApplyPolicy replaces the security configuration with the rows of p
	// that belong to this system's domains ("Policy Configuration" /
	// "Policy Migration"). Rows for foreign domains are ignored and
	// reported in the returned count of applied rows.
	ApplyPolicy(ctx context.Context, p *rbac.Policy) (applied int, err error)
	// ApplyDiff applies an incremental policy change (the KeyCOM service,
	// Figure 8, and "Policy Maintenance", Section 4.4).
	ApplyDiff(ctx context.Context, d rbac.Diff) error
	// CheckAccess is the native access-control decision for user u
	// requesting permission perm on object type ot in domain d.
	CheckAccess(ctx context.Context, u rbac.User, d rbac.Domain, ot rbac.ObjectType, perm rbac.Permission) (bool, error)
}

// Invoker is the live execution path: invoking an operation on a
// component as a user, with the middleware's own security mediation
// applied (stack layer L1).
type Invoker interface {
	// Invoke runs operation op of component ot as user u with the given
	// arguments, returning the component's textual result. ErrDenied is
	// returned when the native policy denies the call. The context
	// carries the request-scoped trace; implementations start an
	// "invoke" span under it.
	Invoke(ctx context.Context, u rbac.User, d rbac.Domain, ot rbac.ObjectType, op string, args []string) (string, error)
}

// ErrDenied is returned by Invoke when native security mediation denies
// the call.
type ErrDenied struct {
	User       rbac.User
	Domain     rbac.Domain
	ObjectType rbac.ObjectType
	Op         string
}

func (e *ErrDenied) Error() string {
	return fmt.Sprintf("middleware: access denied: user %s, domain %s, component %s, operation %s",
		e.User, e.Domain, e.ObjectType, e.Op)
}

// Handler is a component operation implementation.
type Handler func(args []string) (string, error)

// Registry tracks the middleware systems of one WebCom environment, so
// the scheduler and the policy tools can address them by name. It is safe
// for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	systems map[string]System
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{systems: make(map[string]System)}
}

// Register adds a system; registering a duplicate name is an error.
func (r *Registry) Register(s System) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.systems[s.Name()]; dup {
		return fmt.Errorf("middleware: system %q already registered", s.Name())
	}
	r.systems[s.Name()] = s
	return nil
}

// Get returns the system with the given name.
func (r *Registry) Get(name string) (System, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.systems[name]
	if !ok {
		return nil, fmt.Errorf("middleware: no system named %q", name)
	}
	return s, nil
}

// Names returns the sorted names of registered systems.
func (r *Registry) Names() []string {
	all := r.All()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name()
	}
	return out
}

// All returns the registered systems sorted by name.
func (r *Registry) All() []System {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sortedLocked()
}

func (r *Registry) sortedLocked() []System {
	out := make([]System, 0, len(r.systems))
	for _, s := range r.systems {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// GlobalPolicy merges the extracted policies of every registered system
// into one unified RBAC policy — the system-wide synthesis the paper's
// "Policy Comprehension" property calls for. The whole snapshot-and-
// extract runs under one read lock so a concurrent Register cannot
// interleave a half-old, half-new view of the environment into the
// merged policy.
func (r *Registry) GlobalPolicy(ctx context.Context) (*rbac.Policy, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	global := rbac.NewPolicy()
	for _, s := range r.sortedLocked() {
		p, err := s.ExtractPolicy(ctx)
		if err != nil {
			return nil, fmt.Errorf("middleware: extract from %s: %w", s.Name(), err)
		}
		global.Merge(p)
	}
	return global, nil
}
