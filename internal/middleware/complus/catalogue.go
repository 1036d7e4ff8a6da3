// Package complus simulates the Microsoft COM+/.NET side of the paper: a
// COM catalogue of applications and classes, COM roles whose members are
// Windows NT accounts, and the three COM permissions of Section 2 —
// Launch, Access and RunAs. The catalogue sits on top of a simulated NT
// domain (internal/ossec), exactly as COM's RBAC model extends the
// Windows security model.
//
// In the paper's RBAC interpretation, a COM+ domain is the Windows NT
// domain; roles are unique to each domain; object types are COM classes;
// and permissions are Launch/Access/RunAs. The catalogue keeps its
// domain's rows in one middleware.RoleTable; what stays COM-specific is
// the class registry, the Launch/Access/RunAs vocabulary check and the
// NT account behind every role member. The KeyCOM service of Figure 8
// updates this catalogue with authorisations carried by KeyNote
// credentials.
package complus

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"securewebcom/internal/middleware"
	"securewebcom/internal/ossec"
	"securewebcom/internal/rbac"
	"securewebcom/internal/telemetry"
)

// The COM permissions of the paper.
const (
	PermLaunch = "Launch"
	PermAccess = "Access"
	PermRunAs  = "RunAs"
)

// Permissions lists the COM permission vocabulary in canonical order.
var Permissions = []string{PermAccess, PermLaunch, PermRunAs}

// Catalogue is a simulated COM+ catalogue bound to one NT domain.
type Catalogue struct {
	label string
	nt    *ossec.NTDomain

	mu      sync.RWMutex
	classes map[string]*comClass // by ProgID
	// table holds the role grants (object type = ProgID, permission =
	// Launch/Access/RunAs) and the role members (NT account names).
	table *middleware.RoleTable
}

type comClass struct {
	clsid string
	impl  map[string]middleware.Handler // keyed by permission/operation
}

// NewCatalogue creates an empty catalogue for the given NT domain.
func NewCatalogue(label string, nt *ossec.NTDomain) *Catalogue {
	c := &Catalogue{label: label, nt: nt, classes: make(map[string]*comClass)}
	// The automated administrator creates the NT account of every
	// member a policy names.
	c.table = middleware.NewRoleTable(c.Domain(), func(rbac.Role) {},
		func(u rbac.User) { nt.AddAccount(string(u)) })
	return c
}

// Name implements middleware.System.
func (c *Catalogue) Name() string { return c.label }

// Kind implements middleware.System.
func (c *Catalogue) Kind() middleware.Kind { return middleware.KindCOMPlus }

// Domain returns the catalogue's RBAC domain — the NT domain name.
func (c *Catalogue) Domain() rbac.Domain { return rbac.Domain(c.nt.Name()) }

// NTDomain exposes the underlying Windows domain (used by the stacked
// authoriser's L0 and by KeyCOM to create accounts).
func (c *Catalogue) NTDomain() *ossec.NTDomain { return c.nt }

// RegisterClass registers a COM class by ProgID with its operation
// implementations (keyed by permission: Launch, Access, RunAs). The CLSID
// is derived deterministically from the ProgID.
func (c *Catalogue) RegisterClass(progID string, impl map[string]middleware.Handler) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	clsid := clsidFor(progID)
	c.classes[progID] = &comClass{clsid: clsid, impl: impl}
	return clsid
}

// clsidFor derives a stable GUID-shaped CLSID from a ProgID.
func clsidFor(progID string) string {
	sum := sha256.Sum256([]byte("clsid/" + progID))
	h := hex.EncodeToString(sum[:16])
	return fmt.Sprintf("{%s-%s-%s-%s-%s}", h[0:8], h[8:12], h[12:16], h[16:20], h[20:32])
}

// CLSID returns the CLSID for a registered ProgID.
func (c *Catalogue) CLSID(progID string) (string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.classes[progID]
	if !ok {
		return "", fmt.Errorf("complus: class %q not registered", progID)
	}
	return cl.clsid, nil
}

// DefineRole declares a COM role (idempotent). A role is observable
// only through its grants and members (ExtractPolicy, CheckAccess,
// RoleMembers), so declaring an empty one records nothing.
func (c *Catalogue) DefineRole(role string) {}

// AddRoleMember adds an NT account to a COM role. The account must exist
// in the catalogue's NT domain (or be resolvable via trust).
func (c *Catalogue) AddRoleMember(role, account string) error {
	if _, err := c.nt.SID(account); err != nil {
		return fmt.Errorf("complus: role member: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.table.Assign(rbac.User(account), rbac.Role(role))
	return nil
}

// Grant gives role the given COM permission on the class.
func (c *Catalogue) Grant(role, progID, perm string) error {
	if !validPerm(perm) {
		return fmt.Errorf("complus: unknown COM permission %q", perm)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.table.Grant(rbac.Role(role), rbac.ObjectType(progID), rbac.Permission(perm))
	return nil
}

func validPerm(p string) bool {
	return p == PermLaunch || p == PermAccess || p == PermRunAs
}

// Components implements middleware.System.
func (c *Catalogue) Components() []middleware.Component {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []middleware.Component
	for progID := range c.classes {
		out = append(out, middleware.Component{
			Domain:     c.Domain(),
			ObjectType: rbac.ObjectType(progID),
			Operations: append([]string(nil), Permissions...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ObjectType < out[j].ObjectType })
	return out
}

// CheckAccess implements middleware.SecurityAdapter.
func (c *Catalogue) CheckAccess(ctx context.Context, u rbac.User, d rbac.Domain, ot rbac.ObjectType, perm rbac.Permission) (bool, error) {
	_, span := telemetry.StartSpan(ctx, "complus.check")
	defer span.Finish()
	if d != c.Domain() {
		return false, fmt.Errorf("complus: domain %q is not catalogue domain %q", d, c.Domain())
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.table.Holds(u, ot, perm), nil
}

// Invoke implements middleware.Invoker. The operation is a COM
// permission: Launch starts the component, Access calls into it, RunAs
// re-identifies it; each is mediated by the catalogue's role grants.
func (c *Catalogue) Invoke(ctx context.Context, u rbac.User, d rbac.Domain, ot rbac.ObjectType, op string, args []string) (string, error) {
	_, span := telemetry.StartSpan(ctx, "complus.invoke")
	defer span.Finish()
	span.SetAttr("user", string(u))
	span.SetAttr("object", string(ot))
	span.SetAttr("op", op)
	if d != c.Domain() {
		return "", fmt.Errorf("complus: domain %q is not catalogue domain %q", d, c.Domain())
	}
	if !validPerm(op) {
		return "", fmt.Errorf("complus: unknown COM operation %q", op)
	}
	c.mu.RLock()
	cl, ok := c.classes[string(ot)]
	allowed := c.table.Holds(u, ot, rbac.Permission(op))
	c.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("complus: class %q not registered", ot)
	}
	if !allowed {
		span.SetAttr("denied", "true")
		return "", &middleware.ErrDenied{User: u, Domain: d, ObjectType: ot, Op: op}
	}
	h, ok := cl.impl[op]
	if !ok {
		return "", fmt.Errorf("complus: class %q does not implement %q", ot, op)
	}
	return h(args)
}

// ExtractPolicy implements middleware.SecurityAdapter.
func (c *Catalogue) ExtractPolicy(_ context.Context) (*rbac.Policy, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.table.Extract(rbac.NewPolicy()), nil
}

// ApplyPolicy implements middleware.SecurityAdapter. Policy rows carrying
// permissions outside the COM vocabulary are rejected: migration into
// COM+ must map permissions first (see internal/translate's similarity
// mapping).
func (c *Catalogue) ApplyPolicy(_ context.Context, p *rbac.Policy) (int, error) {
	if err := c.ValidateDiff(rbac.Diff{AddedRolePerm: p.RolePerms()}); err != nil {
		return 0, fmt.Errorf("%w (map it before migration)", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.table.Replace(p), nil
}

// ValidateDiff reports, without changing anything, whether ApplyDiff
// would refuse diff. KeyCOM's durable store calls it before writing a
// commit to the write-ahead log, so an acknowledged WAL frame can never
// fail to apply to the catalogue during recovery replay.
func (c *Catalogue) ValidateDiff(diff rbac.Diff) error {
	d := c.Domain()
	for _, e := range diff.AddedRolePerm {
		if e.Domain == d && !validPerm(string(e.Permission)) {
			return fmt.Errorf("complus: permission %q is not a COM permission", e.Permission)
		}
	}
	return nil
}

// ApplyDiff implements middleware.SecurityAdapter.
func (c *Catalogue) ApplyDiff(_ context.Context, diff rbac.Diff) error {
	if err := c.ValidateDiff(diff); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.table.ApplyDiff(diff)
	return nil
}

// RoleMembers returns the sorted member accounts of a role.
func (c *Catalogue) RoleMembers(role string) []string {
	c.mu.RLock()
	p := c.table.Extract(rbac.NewPolicy())
	c.mu.RUnlock()
	var out []string
	for _, u := range p.UsersIn(c.Domain(), rbac.Role(role)) {
		out = append(out, string(u))
	}
	return out
}

var _ middleware.System = (*Catalogue)(nil)
