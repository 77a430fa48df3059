package core

import (
	"sort"

	"mrx/internal/pathexpr"
)

// recordFUP registers e in the supported-FUP registry; Refine calls it for
// every FUP it materializes resolution for (including MaxK-capped ones,
// which are supported at the capped resolution).
func (ms *MStar) recordFUP(e *pathexpr.Expr) {
	if ms.fups == nil {
		ms.fups = make(map[string]*pathexpr.Expr)
	}
	ms.fups[pathexpr.Canonical(e)] = e
}

// ForgetFUP removes e from the registry and leaves the components alone.
// A writer refining in place calls it after a Refine that moved no
// component version, so a no-op refinement leaves the registry as it was.
func (ms *MStar) ForgetFUP(e *pathexpr.Expr) { delete(ms.fups, pathexpr.Canonical(e)) }

// HasFUP reports whether the index has been refined for e (by canonical
// form). Refinement is monotone — splits are never undone except by Retire —
// so a registered FUP stays supported at its (possibly MaxK-capped)
// resolution until it is retired. The engine uses this as a cheap
// already-supported probe before evaluating and refining.
func (ms *MStar) HasFUP(e *pathexpr.Expr) bool {
	_, ok := ms.fups[pathexpr.Canonical(e)]
	return ok
}

// SupportedFUPs returns the FUPs the index has been refined for, sorted by
// canonical form. The slice is fresh; the expressions are shared (they are
// immutable).
func (ms *MStar) SupportedFUPs() []*pathexpr.Expr {
	if len(ms.fups) == 0 {
		return nil
	}
	keys := make([]string, 0, len(ms.fups))
	for k := range ms.fups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*pathexpr.Expr, len(keys))
	for i, k := range keys {
		out[i] = ms.fups[k]
	}
	return out
}

// Retire removes support for a previously refined FUP by rebuilding: it
// constructs a fresh M*(k)-index over the same data graph and options and
// re-supports every other registered FUP, so the affected components are
// recomputed without the retired expression. It returns the rebuilt index
// and true, or (nil, false) when e is not in the registry.
// The receiver is never mutated — the engine's writer swaps in the
// returned index.
//
// Retire is rebuild-based by design: the paper defines PROMOTE′ (refinement
// only) and has no DEMOTE. Merging split nodes in place cannot work
// locally — a node split is shared evidence for every FUP whose instances
// pass through it, and un-splitting would have to prove no other supported
// FUP (nor Properties 1–5 of the component hierarchy) still needs the
// boundary. Rebuilding from the registry sidesteps that entirely: the result
// is, by construction, a valid M*(k)-index supporting exactly the remaining
// FUPs, with every invariant P1–P5 intact (mstarcheck verifies this in the
// differential tests). The cost is a full re-refinement pass, which is why
// the adaptive tuner retires FUPs rarely and with hysteresis.
func (ms *MStar) Retire(e *pathexpr.Expr) (*MStar, bool) {
	key := pathexpr.Canonical(e)
	if _, ok := ms.fups[key]; !ok {
		return nil, false
	}
	next := NewMStarOpts(ms.data, ms.opts)
	for _, fup := range ms.SupportedFUPs() {
		if pathexpr.Canonical(fup) == key {
			continue
		}
		next.Support(fup)
	}
	return next, true
}
