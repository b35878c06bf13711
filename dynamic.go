package fast

import (
	"errors"
	"fmt"

	"fastmatch/graph"
)

// ErrGraphSwapped reports that a graph mutation (ApplyDelta) lost the race
// against a concurrent SwapGraph: the delta was computed over the pre-swap
// snapshot, so committing it would resurrect the replaced graph's lineage.
// The delta is dropped — re-apply it against the swapped-in graph if it
// still makes sense there. Errors returned by the Router wrap it, so
// errors.Is(err, ErrGraphSwapped) identifies the condition.
var ErrGraphSwapped = errors.New("graph swapped during delta")

// DeltaResult summarises one committed ApplyDelta batch.
type DeltaResult struct {
	// Epoch is the new snapshot's epoch (pre-delta epoch + 1).
	Epoch uint64
	// Vertices is the live (non-tombstoned) vertex count and Edges the edge
	// count after the batch.
	Vertices int
	Edges    int
	// Touched is the number of data vertices whose adjacency or existence
	// the batch changed: the endpoints of inserted and deleted edges, the
	// added and deleted vertices, and the deleted vertices' neighbours.
	Touched int
	// PlanSeeded reports whether the new epoch's engine was seeded with the
	// previous epoch's planning decisions. True when the batch kept the
	// label set (so cached roots/trees/orders stay sound and only CSTs are
	// rebuilt, lazily); false when the label set changed — then the plan
	// cache is invalidated outright — or when no plans were cached yet.
	PlanSeeded bool
	// Notified is the number of standing queries that received a MatchDelta
	// for this batch.
	Notified int
}

// applyDeltaCommitHook, when non-nil, runs between delta computation and
// commit, with the tenant's mutation lock held. It is a test seam: the
// swap-interleave regression test injects a SwapGraph here to prove the
// commit-time snapshot check drops the stale delta.
var applyDeltaCommitHook func()

// ApplyDelta applies one mutation batch to the named graph and installs the
// resulting snapshot as the tenant's new serving state. The MVCC contract:
//
//   - In-flight matches keep the epoch they resolved at admission — the old
//     snapshot and its engine serve them to completion, unchanged.
//   - Calls resolving after ApplyDelta returns see the new epoch.
//   - The plan cache carries over as seeds when the batch preserves the
//     label set (only CSTs rebuild, lazily, reusing cached planning
//     decisions); a label-set change invalidates it outright.
//   - Standing queries (Subscribe) receive this batch's MatchDelta before
//     ApplyDelta returns — delivery into each subscription's buffer is part
//     of the commit, so subscribers observe every epoch exactly once, in
//     order.
//
// Batches for one graph serialize with each other and with Subscribe; a
// concurrent SwapGraph wins over a delta computed against the pre-swap
// snapshot (the commit fails with ErrGraphSwapped and the delta is
// dropped). An invalid batch fails with the graph package's validation
// error and no new epoch.
func (r *Router) ApplyDelta(name string, d graph.Delta) (*DeltaResult, error) {
	r.mu.RLock()
	ent, ok := r.graphs[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("fast: Router.ApplyDelta %q: %w", name, ErrUnknownGraph)
	}
	ent.mutMu.Lock()
	defer ent.mutMu.Unlock()

	r.mu.RLock()
	st := ent.state
	registered := r.graphs[name] == ent
	r.mu.RUnlock()
	if !registered {
		return nil, fmt.Errorf("fast: Router.ApplyDelta %q: %w", name, ErrUnknownGraph)
	}

	g2, touched, err := st.g.ApplyDelta(d)
	if err != nil {
		return nil, fmt.Errorf("fast: Router.ApplyDelta %q: %w", name, err)
	}
	newState := &graphState{g: g2}
	seeded := false
	if eng := st.eng.Load(); eng != nil && sameLabelSet(st.g, g2) {
		if seeds := eng.planSeeds(); len(seeds) > 0 {
			newState.carry = seeds
			seeded = true
		}
	}

	if applyDeltaCommitHook != nil {
		applyDeltaCommitHook()
	}

	// Commit: install the new epoch only if the serving state is still the
	// snapshot the delta was computed from. A SwapGraph (or remove) that
	// landed since invalidates the whole lineage — committing over it would
	// serve a graph derived from the one the operator just replaced.
	r.mu.Lock()
	if r.graphs[name] != ent || ent.state != st {
		r.mu.Unlock()
		return nil, fmt.Errorf("fast: Router.ApplyDelta %q: %w", name, ErrGraphSwapped)
	}
	ent.state = newState
	r.mu.Unlock()
	ent.counters.deltas.Add(1)

	// Notify standing queries, still under mutMu: the next batch cannot
	// overtake this one's notifications, so every subscriber sees epochs
	// strictly in order. Delivery blocks on a full subscription buffer
	// (backpressure onto the mutator) unless the subscription has
	// terminated.
	ent.subMu.Lock()
	subs := make([]*Subscription, 0, len(ent.subs))
	for _, s := range ent.subs {
		subs = append(subs, s)
	}
	ent.subMu.Unlock()
	notified := 0
	for _, s := range subs {
		if s.notify(st.g, g2, d) {
			notified++
		}
	}
	ent.counters.notifications.Add(int64(notified))

	return &DeltaResult{
		Epoch:      g2.Epoch(),
		Vertices:   g2.LiveVertices(),
		Edges:      g2.NumEdges(),
		Touched:    len(touched),
		PlanSeeded: seeded,
		Notified:   notified,
	}, nil
}
