package ejb

import (
	"encoding/xml"
	"fmt"
	"sort"

	"securewebcom/internal/rbac"
)

// Deployment descriptors. The assembly-descriptor fragment of a J2EE
// ejb-jar.xml carries the declarative security configuration:
//
//	<ejb-jar>
//	  <assembly-descriptor>
//	    <security-role><role-name>Manager</role-name></security-role>
//	    <method-permission>
//	      <role-name>Manager</role-name>
//	      <method><ejb-name>Salaries</ejb-name><method-name>read</method-name></method>
//	    </method-permission>
//	  </assembly-descriptor>
//	</ejb-jar>
//
// LoadDescriptor installs such a descriptor into a container;
// ExportDescriptor regenerates one from the container's live
// configuration. Round-tripping through XML is how the automated
// administration service (Section 4.1) rewrites an EJB server's policy.

// EJBJar is the root <ejb-jar> element.
type EJBJar struct {
	XMLName            xml.Name            `xml:"ejb-jar"`
	AssemblyDescriptor *AssemblyDescriptor `xml:"assembly-descriptor"`
}

// AssemblyDescriptor carries roles, method permissions and the exclude
// list.
type AssemblyDescriptor struct {
	SecurityRoles     []SecurityRole     `xml:"security-role"`
	MethodPermissions []MethodPermission `xml:"method-permission"`
	ExcludeList       *ExcludeList       `xml:"exclude-list"`
}

// SecurityRole declares a role.
type SecurityRole struct {
	RoleName string `xml:"role-name"`
}

// MethodPermission grants one or more roles — or, with <unchecked/>, any
// caller — access to one or more methods.
type MethodPermission struct {
	RoleNames []string  `xml:"role-name"`
	Unchecked *struct{} `xml:"unchecked"`
	Methods   []Method  `xml:"method"`
}

// ExcludeList names methods no caller may invoke.
type ExcludeList struct {
	Methods []Method `xml:"method"`
}

// Method identifies a bean method.
type Method struct {
	EJBName    string `xml:"ejb-name"`
	MethodName string `xml:"method-name"`
}

// ParseDescriptor parses an ejb-jar.xml document.
func ParseDescriptor(data []byte) (*EJBJar, error) {
	var jar EJBJar
	if err := xml.Unmarshal(data, &jar); err != nil {
		return nil, fmt.Errorf("ejb: parse descriptor: %w", err)
	}
	return &jar, nil
}

// LoadDescriptor installs the descriptor's security configuration into
// the container (additively).
func (c *Container) LoadDescriptor(jar *EJBJar) error {
	if jar.AssemblyDescriptor == nil {
		return fmt.Errorf("ejb: descriptor has no assembly-descriptor")
	}
	ad := jar.AssemblyDescriptor
	for _, r := range ad.SecurityRoles {
		if r.RoleName == "" {
			return fmt.Errorf("ejb: security-role with empty role-name")
		}
		c.DeclareRole(r.RoleName)
	}
	for _, mp := range ad.MethodPermissions {
		if len(mp.Methods) == 0 {
			return fmt.Errorf("ejb: method-permission without method elements")
		}
		if len(mp.RoleNames) == 0 && mp.Unchecked == nil {
			return fmt.Errorf("ejb: method-permission needs role-name elements or <unchecked/>")
		}
		for _, m := range mp.Methods {
			if m.EJBName == "" || m.MethodName == "" {
				return fmt.Errorf("ejb: method element missing ejb-name or method-name")
			}
			if mp.Unchecked != nil {
				c.MarkUnchecked(m.EJBName, m.MethodName)
				continue
			}
			for _, role := range mp.RoleNames {
				c.AddMethodPermission(role, m.EJBName, m.MethodName)
			}
		}
	}
	if ad.ExcludeList != nil {
		for _, m := range ad.ExcludeList.Methods {
			if m.EJBName == "" || m.MethodName == "" {
				return fmt.Errorf("ejb: exclude-list method missing ejb-name or method-name")
			}
			c.Exclude(m.EJBName, m.MethodName)
		}
	}
	return nil
}

// ExportDescriptor renders the container's security configuration as an
// ejb-jar.xml document with one method-permission element per role,
// deterministically ordered.
func (c *Container) ExportDescriptor() ([]byte, error) {
	grants := c.table.Extract(rbac.NewPolicy())
	methods := make(map[string][]Method) // role -> granted methods, sorted
	for _, e := range grants.RolePerms() {
		r := string(e.Role)
		methods[r] = append(methods[r], Method{EJBName: string(e.ObjectType), MethodName: string(e.Permission)})
	}
	ad := &AssemblyDescriptor{}
	var roles []string
	for r := range c.roles {
		roles = append(roles, r)
	}
	sort.Strings(roles)
	for _, r := range roles {
		ad.SecurityRoles = append(ad.SecurityRoles, SecurityRole{RoleName: r})
		if ms := methods[r]; len(ms) > 0 {
			ad.MethodPermissions = append(ad.MethodPermissions, MethodPermission{RoleNames: []string{r}, Methods: ms})
		}
	}
	if len(c.unchecked) > 0 {
		ad.MethodPermissions = append(ad.MethodPermissions, MethodPermission{Unchecked: &struct{}{}, Methods: sorted(c.unchecked)})
	}
	if len(c.excluded) > 0 {
		ad.ExcludeList = &ExcludeList{Methods: sorted(c.excluded)}
	}
	out, err := xml.MarshalIndent(&EJBJar{AssemblyDescriptor: ad}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("ejb: export descriptor: %w", err)
	}
	return append([]byte(xml.Header), out...), nil
}

// sorted returns the methods of a set ordered by bean, then method.
func sorted(set map[Method]bool) []Method {
	out := make([]Method, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EJBName != out[j].EJBName {
			return out[i].EJBName < out[j].EJBName
		}
		return out[i].MethodName < out[j].MethodName
	})
	return out
}
