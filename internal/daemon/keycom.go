package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"

	"securewebcom/internal/keycom"
	"securewebcom/internal/keys"
	"securewebcom/internal/middleware"
	"securewebcom/internal/middleware/complus"
	"securewebcom/internal/ossec"
)

// KeyCOMConfig configures the KeyCOM credential plane (Figure 8).
type KeyCOMConfig struct {
	Name     string // catalogue name
	Domain   string // Windows NT domain of the catalogue
	Admin    string // administrator public-key file
	Class    string // demo COM class ProgID
	Role     string // demo COM role granted Access on the class
	StoreDir string // durable store directory; empty keeps the catalogue in memory
}

// KeyCOM is the credential plane keycomd serves and authzd embeds: a
// COM+ catalogue with one demo class and role, administered under a
// policy that trusts the administrator for every KeyCOM action.
type KeyCOM struct {
	Service *keycom.Service
	store   *keycom.Store
}

// OpenKeyCOM builds the plane, adding the administrator's key to ks,
// and announces it on out, with what recovery found when the plane
// replays a durable store.
func OpenKeyCOM(cfg KeyCOMConfig, ks *keys.KeyStore, out io.Writer) (*KeyCOM, error) {
	if cfg.Admin == "" {
		return nil, errors.New("pass -admin with the administrator's public-key file")
	}
	admin, err := keys.Load(cfg.Admin)
	if err != nil {
		return nil, err
	}
	cat := complus.NewCatalogue(cfg.Name, ossec.NewNTDomain(cfg.Domain))
	clsid := cat.RegisterClass(cfg.Class, map[string]middleware.Handler{})
	cat.DefineRole(cfg.Role)
	if err := cat.Grant(cfg.Role, cfg.Class, complus.PermAccess); err != nil {
		return nil, err
	}
	chk, err := Trust(ks, KeyCOMActions, admin)
	if err != nil {
		return nil, err
	}
	p := &KeyCOM{Service: keycom.NewService(cat, chk)}

	if cfg.StoreDir != "" {
		st, err := keycom.OpenStore(cfg.StoreDir, keycom.StoreOptions{})
		if err != nil {
			return nil, err
		}
		info := st.RecoveryInfo()
		fmt.Fprintf(out, "store: %s at seq %d (snapshot seq %d, %d wal frames replayed)\n",
			cfg.StoreDir, st.Seq(), info.SnapshotSeq, info.Replayed)
		if info.TornWALBytes > 0 || info.TornAuditBytes > 0 || info.AuditRepaired > 0 {
			fmt.Fprintf(out, "store: crash repair: %d torn wal bytes discarded, %d torn audit bytes discarded, %d audit lines rebuilt from the wal\n",
				info.TornWALBytes, info.TornAuditBytes, info.AuditRepaired)
		}
		if err := p.Service.AttachStore(context.Background(), st); err != nil {
			st.Close()
			return nil, err
		}
		p.store = st
	}
	fmt.Fprintf(out, "catalogue: class %s %s, role %s (Access)\n", cfg.Class, clsid, cfg.Role)
	fmt.Fprintf(out, "administrator: %s\n", admin.PublicID())
	return p, nil
}

// Close flushes and closes the store, if the plane has one.
func (p *KeyCOM) Close() error {
	if p == nil || p.store == nil {
		return nil
	}
	if err := p.store.Close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	return nil
}
