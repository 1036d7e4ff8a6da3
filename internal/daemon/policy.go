package daemon

import (
	"fmt"
	"os"

	"securewebcom/internal/keynote"
	"securewebcom/internal/keys"
)

// Conditions of the daemons' trust policies.
const (
	WebComActions = `app_domain=="WebCom";`
	KeyCOMActions = `app_domain=="KeyCOM";`
)

// trust returns the POLICY assertion authorising kp for the actions
// conditions admits, with a comment (empty for none).
func trust(kp *keys.KeyPair, conditions, comment string) (*keynote.Assertion, error) {
	a, err := keynote.New("POLICY", fmt.Sprintf("%q", kp.PublicID()), conditions)
	if err != nil {
		return nil, err
	}
	return a.WithComment(comment), nil
}

// Trust returns a checker over ks whose policy authorises each key, added
// to ks, for the actions conditions admits.
func Trust(ks *keys.KeyStore, conditions string, kps ...*keys.KeyPair) (*keynote.Checker, error) {
	policy := make([]*keynote.Assertion, len(kps))
	for i, kp := range kps {
		ks.Add(kp)
		a, err := trust(kp, conditions, "")
		if err != nil {
			return nil, err
		}
		policy[i] = a
	}
	return keynote.NewChecker(policy, keynote.WithResolver(ks))
}

// TrustPolicy builds a WebCom peer's checker over ks. Each key file in
// trusted (empty names are skipped) becomes a POLICY assertion
// authorising that key for any WebCom operation, commented as a trusted
// peer ("client", "leaf", "master"); the assertions in policyFile, if
// one is named, follow. It returns the number of policy assertions, and
// a nil checker when there are none.
func TrustPolicy(ks *keys.KeyStore, peer string, trusted []string, policyFile string) (*keynote.Checker, int, error) {
	var policy []*keynote.Assertion
	for _, path := range trusted {
		if path == "" {
			continue
		}
		kp, err := keys.Load(path)
		if err != nil {
			return nil, 0, err
		}
		ks.Add(kp)
		a, err := trust(kp, WebComActions, "trusted "+peer+" "+kp.Name)
		if err != nil {
			return nil, 0, err
		}
		policy = append(policy, a)
	}
	if policyFile != "" {
		data, err := os.ReadFile(policyFile)
		if err != nil {
			return nil, 0, err
		}
		more, err := keynote.ParseAll(string(data))
		if err != nil {
			return nil, 0, err
		}
		policy = append(policy, more...)
	}
	if len(policy) == 0 {
		return nil, 0, nil
	}
	chk, err := keynote.NewChecker(policy, keynote.WithResolver(ks))
	return chk, len(policy), err
}
