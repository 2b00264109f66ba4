package access

import (
	"encoding/json"
	"fmt"
)

// JSON encoding for the policy enums: policies marshal as the paper's
// figure names ("parallel", "seldm+waypred", ...) so serialized configs —
// persisted results, HTTP grid submissions — are self-describing, and
// unmarshal from either a name or the legacy integer enum value.

// MarshalJSON implements json.Marshaler.
func (p DPolicy) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

// UnmarshalJSON implements json.Unmarshaler, accepting a policy name or an
// integer enum value.
func (p *DPolicy) UnmarshalJSON(data []byte) error {
	if cand, ok := dPolicyNamed(string(quotedName(data))); ok {
		*p = cand
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		if cand, ok := dPolicyNamed(s); ok {
			*p = cand
			return nil
		}
		return fmt.Errorf("access: unknown d-cache policy %q", s)
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("access: d-cache policy must be a name or integer, got %s", data)
	}
	if n < int(DParallel) || n > int(DWayPredMRU) {
		return fmt.Errorf("access: d-cache policy %d out of range", n)
	}
	*p = DPolicy(n)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (p IPolicy) MarshalJSON() ([]byte, error) { return json.Marshal(p.String()) }

// UnmarshalJSON implements json.Unmarshaler, accepting a policy name or an
// integer enum value.
func (p *IPolicy) UnmarshalJSON(data []byte) error {
	if cand, ok := iPolicyNamed(string(quotedName(data))); ok {
		*p = cand
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		if cand, ok := iPolicyNamed(s); ok {
			*p = cand
			return nil
		}
		return fmt.Errorf("access: unknown i-cache policy %q", s)
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("access: i-cache policy must be a name or integer, got %s", data)
	}
	if n < int(IParallel) || n > int(IWayPred) {
		return fmt.Errorf("access: i-cache policy %d out of range", n)
	}
	*p = IPolicy(n)
	return nil
}

// quotedName returns what lies between the quotes of a quoted JSON token,
// or nil for any other token. Policy names hold no quote, backslash or
// control character, so when it is a name the token is exactly the
// literal MarshalJSON writes, and matching it needs no decoding (nor the
// allocations decoding costs).
func quotedName(data []byte) []byte {
	if n := len(data); n >= 2 && data[0] == '"' && data[n-1] == '"' {
		return data[1 : n-1]
	}
	return nil
}

func dPolicyNamed(name string) (DPolicy, bool) {
	for cand := DParallel; cand <= DWayPredMRU; cand++ {
		if cand.String() == name {
			return cand, true
		}
	}
	return 0, false
}

func iPolicyNamed(name string) (IPolicy, bool) {
	for _, cand := range []IPolicy{IParallel, IWayPred} {
		if cand.String() == name {
			return cand, true
		}
	}
	return 0, false
}
