package policy

import "fmt"

// ReserveHeadroom holds back a fraction of every server's per-class
// capacity share for protected traffic. An unprotected flow is
// refused when admitting it would push any server on its route past
// (1 - Reserve) of the class's reservation pool; protected names
// (tenant or class) bypass the reserve and can use the full pool.
// A new utilization assignment shrinks or grows the pool, and the
// reserve fraction rides on top of whatever the current assignment is.
//
// The policy declares NeedFill, so the admission controller computes
// DecisionContext.FillAfter — the worst post-admission fill fraction
// along the route, read from the live ledger — before calling Decide.
// That walk is O(path length), the same bound as the utilization test
// itself.
type ReserveHeadroom struct {
	reserve   float64
	protected map[string]bool
}

// NewReserveHeadroom builds the policy: reserve is the held-back
// fraction in (0, 1); protected lists tenant or class names exempt
// from it (nil protects nothing — then only the reserve's refusal
// margin differs from plain capacity rejection).
func NewReserveHeadroom(reserve float64, protected []string) (*ReserveHeadroom, error) {
	if !(reserve > 0 && reserve < 1) {
		return nil, fmt.Errorf("policy: reserve fraction %g out of (0,1)", reserve)
	}
	p := &ReserveHeadroom{reserve: reserve}
	if len(protected) > 0 {
		p.protected = make(map[string]bool, len(protected))
		for _, name := range protected {
			if name == "" {
				return nil, fmt.Errorf("policy: empty protected name")
			}
			p.protected[name] = true
		}
	}
	return p, nil
}

// Decide implements Policy.
func (p *ReserveHeadroom) Decide(ctx DecisionContext) Verdict {
	if p.protected != nil && (p.protected[ctx.Class] || (ctx.Tenant != "" && p.protected[ctx.Tenant])) {
		return Allow
	}
	if ctx.FillAfter > 1-p.reserve {
		return DenyReserve
	}
	return Allow
}

// Needs implements Policy.
func (p *ReserveHeadroom) Needs() Needs { return NeedFill }

// Name implements Policy.
func (p *ReserveHeadroom) Name() string { return "reserve_headroom" }
