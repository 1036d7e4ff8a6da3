package rbac

import (
	"encoding/json"
	"fmt"
)

// JSON serialisation of policies, used by cmd/policytool and the
// examples. The format is the two relations, row by row:
//
//	{
//	  "role_perm": [{"domain": "Finance", "role": "Clerk",
//	                 "object_type": "SalariesDB", "permission": "write"}],
//	  "user_role": [{"user": "Alice", "domain": "Finance", "role": "Clerk"}]
//	}

type policyJSON struct {
	RolePerm []rolePermJSON `json:"role_perm"`
	UserRole []userRoleJSON `json:"user_role"`
}

type rolePermJSON struct {
	Domain     string `json:"domain"`
	Role       string `json:"role"`
	ObjectType string `json:"object_type"`
	Permission string `json:"permission"`
}

type userRoleJSON struct {
	User   string `json:"user"`
	Domain string `json:"domain"`
	Role   string `json:"role"`
}

// MarshalJSON implements json.Marshaler with deterministic row order.
func (p *Policy) MarshalJSON() ([]byte, error) {
	out := policyJSON{
		RolePerm: make([]rolePermJSON, 0, len(p.rolePerm)),
		UserRole: make([]userRoleJSON, 0, p.nUR),
	}
	for _, e := range p.RolePerms() {
		out.RolePerm = append(out.RolePerm, rolePermJSON{
			Domain: string(e.Domain), Role: string(e.Role),
			ObjectType: string(e.ObjectType), Permission: string(e.Permission),
		})
	}
	for _, e := range p.UserRoles() {
		out.UserRole = append(out.UserRole, userRoleJSON{
			User: string(e.User), Domain: string(e.Domain), Role: string(e.Role),
		})
	}
	return json.MarshalIndent(&out, "", "  ")
}

// UnmarshalJSON implements json.Unmarshaler. Rows with empty required
// fields are rejected.
func (p *Policy) UnmarshalJSON(data []byte) error {
	var in policyJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("rbac: parse policy: %w", err)
	}
	if p.rolePerm == nil {
		*p = *NewPolicy()
	}
	for _, e := range in.RolePerm {
		if e.Domain == "" || e.Role == "" || e.ObjectType == "" || e.Permission == "" {
			return fmt.Errorf("rbac: role_perm row with empty field: %+v", e)
		}
		p.AddRolePerm(Domain(e.Domain), Role(e.Role), ObjectType(e.ObjectType), Permission(e.Permission))
	}
	for _, e := range in.UserRole {
		if e.User == "" || e.Domain == "" || e.Role == "" {
			return fmt.Errorf("rbac: user_role row with empty field: %+v", e)
		}
		p.AddUserRole(User(e.User), Domain(e.Domain), Role(e.Role))
	}
	return nil
}
