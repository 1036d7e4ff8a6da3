// Package ejb simulates a J2EE Enterprise JavaBeans server sufficient for
// the paper's security interoperability experiments: bean containers
// addressed by JNDI names, XML deployment descriptors carrying
// security-role and method-permission elements, a per-server user
// registry, and a container-managed invocation path that enforces the
// declarative security policy.
//
// In the paper's RBAC interpretation (Section 2), an EJB domain is the
// combination of host, EJB server and bean-container JNDI name; roles are
// bean-container specific; users exist server-globally (so one user can
// hold roles in several domains of the same server); and permissions are
// the method calls a role may make on a bean. Each container keeps its
// domain's rows in one middleware.RoleTable; the server-global user
// registry, the declared roles, <unchecked/> and <exclude-list>, and
// the deployment descriptor stay EJB-specific.
package ejb

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"securewebcom/internal/middleware"
	"securewebcom/internal/rbac"
	"securewebcom/internal/telemetry"
)

// Server is a simulated EJB server on a host. Its domains are
// "<host>/<server>/<jndiName>", one per bean container.
type Server struct {
	label  string
	host   string
	server string

	mu         sync.RWMutex
	users      map[string]bool // server-global user registry
	containers map[string]*Container
}

// Container is a bean container bound at a JNDI name, holding deployed
// beans and the container's declarative security configuration.
type Container struct {
	jndiName string

	beans map[string]*bean
	roles map[string]bool // declared security roles
	// table holds the role grants (object type = bean, permission =
	// method) and the user assignments of this container's domain.
	table *middleware.RoleTable

	// unchecked methods are callable by any authenticated user, and
	// excluded methods by nobody (J2EE <unchecked/> and <exclude-list>).
	// Both are structural deployment configuration: they survive
	// ApplyPolicy and are not represented in the extracted RBAC relations
	// (which model role-based grants only); exclusion dominates.
	unchecked map[Method]bool
	excluded  map[Method]bool
}

type bean struct {
	name    string
	methods []string
	impl    map[string]middleware.Handler
}

// NewServer creates an EJB server named server on host.
func NewServer(label, host, server string) *Server {
	return &Server{
		label:      label,
		host:       host,
		server:     server,
		users:      make(map[string]bool),
		containers: make(map[string]*Container),
	}
}

// Name implements middleware.System.
func (s *Server) Name() string { return s.label }

// Kind implements middleware.System.
func (s *Server) Kind() middleware.Kind { return middleware.KindEJB }

// AddUser registers a user in the server-global registry. Role
// assignments in any container require the user to exist here first.
func (s *Server) AddUser(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.users[name] = true
}

// HasUser reports whether the user exists on this server.
func (s *Server) HasUser(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.users[name]
}

// CreateContainer creates (or returns) the bean container at jndiName.
func (s *Server) CreateContainer(jndiName string) *Container {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.containers[jndiName]; ok {
		return c
	}
	c := &Container{
		jndiName:  jndiName,
		beans:     make(map[string]*bean),
		roles:     make(map[string]bool),
		unchecked: make(map[Method]bool),
		excluded:  make(map[Method]bool),
	}
	// An imported row declares its role, and a user it names is
	// registered on the server (the automated administrator of Section
	// 4.1 would create them). Both run under s.mu.
	c.table = middleware.NewRoleTable(s.domainOf(jndiName),
		func(r rbac.Role) { c.roles[string(r)] = true },
		func(u rbac.User) { s.users[string(u)] = true })
	s.containers[jndiName] = c
	return c
}

// Lookup resolves a JNDI name to its container (the JNDI naming service
// of reference [28]).
func (s *Server) Lookup(jndiName string) (*Container, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.containers[jndiName]
	if !ok {
		return nil, fmt.Errorf("ejb: NameNotFoundException: %q", jndiName)
	}
	return c, nil
}

// domainOf returns the RBAC domain of a container on this server.
func (s *Server) domainOf(jndiName string) rbac.Domain {
	return rbac.Domain(s.host + "/" + s.server + "/" + jndiName)
}

// containerForDomain maps an RBAC domain back to a container.
func (s *Server) containerForDomain(d rbac.Domain) (*Container, error) {
	for name := range s.containers {
		if s.domainOf(name) == d {
			return s.containers[name], nil
		}
	}
	return nil, fmt.Errorf("ejb: domain %q is not on server %s/%s", d, s.host, s.server)
}

// DeployBean deploys a bean into the container with its business methods.
func (c *Container) DeployBean(name string, impl map[string]middleware.Handler, methods ...string) {
	c.beans[name] = &bean{name: name, methods: methods, impl: impl}
}

// DeclareRole declares a security role in this container.
func (c *Container) DeclareRole(role string) { c.roles[role] = true }

// AddMethodPermission grants role permission to call method on ejbName
// (the <method-permission> element of the deployment descriptor).
func (c *Container) AddMethodPermission(role, ejbName, method string) {
	c.roles[role] = true
	c.table.Grant(rbac.Role(role), rbac.ObjectType(ejbName), rbac.Permission(method))
}

// MarkUnchecked declares a method callable by any user
// (<method-permission><unchecked/>).
func (c *Container) MarkUnchecked(ejbName, method string) {
	c.unchecked[Method{ejbName, method}] = true
}

// Exclude puts a method on the exclude list: no caller may invoke it,
// regardless of roles (<exclude-list>). Exclusion dominates every grant.
func (c *Container) Exclude(ejbName, method string) {
	c.excluded[Method{ejbName, method}] = true
}

// AssignRole assigns a server user to a role in this container. The
// server is needed to validate that the user exists server-globally.
func (s *Server) AssignRole(jndiName, user, role string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.users[user] {
		return fmt.Errorf("ejb: user %q not registered on server %s/%s", user, s.host, s.server)
	}
	c, ok := s.containers[jndiName]
	if !ok {
		return fmt.Errorf("ejb: NameNotFoundException: %q", jndiName)
	}
	if !c.roles[role] {
		return fmt.Errorf("ejb: role %q not declared in container %q", role, jndiName)
	}
	c.table.Assign(rbac.User(user), rbac.Role(role))
	return nil
}

// Components implements middleware.System.
func (s *Server) Components() []middleware.Component {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []middleware.Component
	for jndi, c := range s.containers {
		for _, b := range c.beans {
			ops := append([]string(nil), b.methods...)
			sort.Strings(ops)
			out = append(out, middleware.Component{
				Domain:     s.domainOf(jndi),
				ObjectType: rbac.ObjectType(b.name),
				Operations: ops,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Domain != out[j].Domain {
			return out[i].Domain < out[j].Domain
		}
		return out[i].ObjectType < out[j].ObjectType
	})
	return out
}

// CheckAccess implements middleware.SecurityAdapter.
func (s *Server) CheckAccess(ctx context.Context, u rbac.User, d rbac.Domain, ot rbac.ObjectType, perm rbac.Permission) (bool, error) {
	_, span := telemetry.StartSpan(ctx, "ejb.check")
	defer span.Finish()
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, err := s.containerForDomain(d)
	if err != nil {
		return false, err
	}
	return c.check(u, ot, string(perm)), nil
}

// check applies the J2EE precedence: an excluded method is denied, an
// unchecked one allowed, and any other needs a role grant.
func (c *Container) check(u rbac.User, ot rbac.ObjectType, method string) bool {
	ref := Method{string(ot), method}
	if c.excluded[ref] {
		return false
	}
	return c.unchecked[ref] || c.table.Holds(u, ot, rbac.Permission(method))
}

// Invoke implements middleware.Invoker: container-managed security runs
// before the bean method.
func (s *Server) Invoke(ctx context.Context, u rbac.User, d rbac.Domain, ot rbac.ObjectType, op string, args []string) (string, error) {
	_, span := telemetry.StartSpan(ctx, "ejb.invoke")
	defer span.Finish()
	span.SetAttr("user", string(u))
	span.SetAttr("object", string(ot))
	span.SetAttr("op", op)
	s.mu.RLock()
	c, err := s.containerForDomain(d)
	if err != nil {
		s.mu.RUnlock()
		return "", err
	}
	b, ok := c.beans[string(ot)]
	allowed := c.check(u, ot, op)
	s.mu.RUnlock()

	if !ok {
		return "", fmt.Errorf("ejb: no bean %q in container", ot)
	}
	if !allowed {
		span.SetAttr("denied", "true")
		return "", &middleware.ErrDenied{User: u, Domain: d, ObjectType: ot, Op: op}
	}
	h, ok := b.impl[op]
	if !ok {
		return "", fmt.Errorf("ejb: bean %q has no method %q", ot, op)
	}
	return h(args)
}

// ExtractPolicy implements middleware.SecurityAdapter.
func (s *Server) ExtractPolicy(_ context.Context) (*rbac.Policy, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p := rbac.NewPolicy()
	for _, c := range s.containers {
		c.table.Extract(p)
	}
	return p, nil
}

// ApplyPolicy implements middleware.SecurityAdapter: each container's
// security configuration is rebuilt from p's rows for its domain, and
// its declared roles become the roles those rows name. Users referenced
// by the policy are auto-registered in the server registry.
func (s *Server) ApplyPolicy(_ context.Context, p *rbac.Policy) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	applied := 0
	for _, c := range s.containers {
		c.roles = make(map[string]bool)
		applied += c.table.Replace(p)
	}
	return applied, nil
}

// ApplyDiff implements middleware.SecurityAdapter.
func (s *Server) ApplyDiff(_ context.Context, diff rbac.Diff) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.containers {
		c.table.ApplyDiff(diff)
	}
	return nil
}

var _ middleware.System = (*Server)(nil)
