package fast

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"fastmatch/graph"
	"fastmatch/internal/cst"
	"fastmatch/internal/order"
)

// ErrSubscriptionClosed is the terminal error of a standing query ended by
// its own Close call (as opposed to context cancellation, an emit error, or
// the graph being swapped or removed).
var ErrSubscriptionClosed = errors.New("subscription closed")

// MatchDelta is one standing query's incremental result for one committed
// delta batch: the embeddings that appeared and vanished between Epoch-1
// and Epoch. A batch that does not affect the query yields a MatchDelta
// with empty Added/Removed — an epoch heartbeat subscribers can use to
// track how current their view is.
type MatchDelta struct {
	Epoch   uint64
	Added   []graph.Embedding
	Removed []graph.Embedding
}

// Subscription is a registered standing query. Its emit callback receives
// one MatchDelta per committed ApplyDelta batch, strictly in epoch order,
// on a dedicated drain goroutine (calls never overlap). It terminates when
// its context fires, emit returns an error, Close is called, or the graph
// is swapped or removed; Wait blocks until the drain goroutine has exited
// and returns the terminal error.
type Subscription struct {
	ent   *routerGraph
	id    int64
	graph string
	query *graph.Query
	epoch uint64 // registration epoch; written once in Subscribe, so Epoch reads it unlocked

	// Matching state owned by the mutation path (Subscribe and notify both
	// run under ent.mutMu): the plan is fixed at registration, the CST
	// tracks the current epoch.
	tree *order.Tree
	ord  order.Order
	cst  *cst.CST

	ch        chan MatchDelta
	done      chan struct{} // closed once, with closeErr set first
	closeOnce sync.Once
	closeErr  error
	drained   chan struct{} // closed when the drain goroutine exits
}

// subscriptionBuffer is each subscription's MatchDelta channel capacity: a
// slow consumer absorbs this many batches before ApplyDelta blocks on it.
const subscriptionBuffer = 16

// Subscribe registers a standing query against the named graph. From the
// epoch current at registration onward, every committed ApplyDelta batch
// produces one MatchDelta — computed from the affected region of the
// candidate space, verified-equivalent to diffing full re-matches — and
// emit receives them in epoch order on a dedicated goroutine. emit errors,
// ctx cancellation, Close, SwapGraph and RemoveGraph all terminate the
// subscription; Wait returns the terminal cause.
//
// Registration builds the query's plan and baseline CST against the
// current epoch (cost comparable to one cold match), serialized with
// ApplyDelta so the subscription joins the epoch sequence at a well-defined
// point: a batch either precedes the subscription (not delivered) or
// follows it (delivered), never half of each.
func (r *Router) Subscribe(ctx context.Context, graphName string, q *graph.Query, emit func(MatchDelta) error) (*Subscription, error) {
	if q == nil {
		return nil, fmt.Errorf("fast: Router.Subscribe %q: nil query", graphName)
	}
	if emit == nil {
		return nil, fmt.Errorf("fast: Router.Subscribe %q: nil emit callback", graphName)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r.mu.RLock()
	ent, ok := r.graphs[graphName]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("fast: Router.Subscribe %q: %w", graphName, ErrUnknownGraph)
	}
	ent.mutMu.Lock()
	defer ent.mutMu.Unlock()

	r.mu.RLock()
	st := ent.state
	registered := r.graphs[graphName] == ent
	r.mu.RUnlock()
	if !registered {
		return nil, fmt.Errorf("fast: Router.Subscribe %q: %w", graphName, ErrUnknownGraph)
	}
	g := st.g

	root := order.SelectRoot(q, g)
	tree := order.BuildBFSTree(q, root)
	c := cst.BuildWorkers(q, g, tree, r.workers)
	o := order.PathBased(tree, c)
	if err := o.Validate(tree); err != nil {
		return nil, fmt.Errorf("fast: Router.Subscribe %q: %v", graphName, err)
	}

	s := &Subscription{
		ent:     ent,
		graph:   graphName,
		query:   q,
		epoch:   g.Epoch(),
		tree:    tree,
		ord:     o,
		cst:     c,
		ch:      make(chan MatchDelta, subscriptionBuffer),
		done:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	ent.subMu.Lock()
	if ent.subs == nil {
		ent.subs = make(map[int64]*Subscription)
	}
	ent.nextSub++
	s.id = ent.nextSub
	ent.subs[s.id] = s
	ent.subMu.Unlock()

	go s.drain(ctx, emit)
	return s, nil
}

// notify computes and enqueues this subscription's MatchDelta for a freshly
// committed epoch. It runs under ent.mutMu (ApplyDelta's notification
// loop). The affected region — embeddings mapping at least one query vertex
// to a touched data vertex — is enumerated on both the old and new epochs'
// CSTs; everything outside it is shared by both epochs, so the set
// difference of the two affected sets is exactly the match delta. Returns
// false when the subscription has already terminated.
func (s *Subscription) notify(g2 *graph.Graph, touched []graph.VertexID, workers int) bool {
	select {
	case <-s.done:
		return false
	default:
	}
	dirtySet := make(map[graph.VertexID]bool, len(touched))
	for _, v := range touched {
		dirtySet[v] = true
	}
	dirty := func(v graph.VertexID) bool { return dirtySet[v] }

	newCST := cst.BuildWorkers(s.query, g2, s.tree, workers)
	affOld := cst.CollectAffected(s.cst, s.ord, dirty)
	affNew := cst.CollectAffected(newCST, s.ord, dirty)
	s.cst = newCST

	oldKeys := make(map[string]bool, len(affOld))
	for _, em := range affOld {
		oldKeys[em.Key()] = true
	}
	newKeys := make(map[string]bool, len(affNew))
	for _, em := range affNew {
		newKeys[em.Key()] = true
	}
	md := MatchDelta{Epoch: g2.Epoch()}
	for _, em := range affNew {
		if !oldKeys[em.Key()] {
			md.Added = append(md.Added, em)
		}
	}
	for _, em := range affOld {
		if !newKeys[em.Key()] {
			md.Removed = append(md.Removed, em)
		}
	}
	select {
	case s.ch <- md:
		return true
	case <-s.done:
		return false
	}
}

// drain is the delivery goroutine: it hands queued MatchDeltas to emit one
// at a time, and on termination flushes whatever was already queued before
// exiting.
func (s *Subscription) drain(ctx context.Context, emit func(MatchDelta) error) {
	defer close(s.drained)
	defer s.unregister()
	for {
		select {
		case md := <-s.ch:
			if err := emit(md); err != nil {
				s.close(fmt.Errorf("fast: subscription on %q: emit: %w", s.graph, err))
				return
			}
		case <-ctx.Done():
			s.close(ctx.Err())
			return
		case <-s.done:
			// Terminated by Close, a swap or a remove: deliver what was
			// already queued (best effort — an emit error just stops the
			// flush), then exit.
			for {
				select {
				case md := <-s.ch:
					if err := emit(md); err != nil {
						return
					}
				default:
					return
				}
			}
		}
	}
}

// close sets the terminal error and signals termination; first caller wins.
func (s *Subscription) close(err error) {
	s.closeOnce.Do(func() {
		s.closeErr = err
		close(s.done)
	})
}

// unregister removes the subscription from its tenant's registry.
func (s *Subscription) unregister() {
	s.ent.subMu.Lock()
	delete(s.ent.subs, s.id)
	s.ent.subMu.Unlock()
}

// Close terminates the subscription with ErrSubscriptionClosed. Idempotent;
// safe concurrently with delivery. Queued MatchDeltas are still flushed to
// emit before the drain goroutine exits (use Wait to observe that point).
func (s *Subscription) Close() {
	s.close(ErrSubscriptionClosed)
}

// Done is closed when the subscription has terminated (Err is valid from
// then on). Delivery may still be flushing; Wait covers that too.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Wait blocks until delivery has fully stopped — terminal state reached and
// queued notifications flushed — and returns the terminal error:
// ErrSubscriptionClosed after Close, the context's error after
// cancellation, the emit error that stopped delivery, or an error wrapping
// ErrGraphSwapped/ErrUnknownGraph after a swap or remove.
func (s *Subscription) Wait() error {
	<-s.drained
	return s.Err()
}

// Err returns the terminal error once Done is closed; nil while active.
func (s *Subscription) Err() error {
	select {
	case <-s.done:
		return s.closeErr
	default:
		return nil
	}
}

// Graph returns the graph name the subscription watches.
func (s *Subscription) Graph() string { return s.graph }

// Query returns the standing query.
func (s *Subscription) Query() *graph.Query { return s.query }

// Epoch returns the epoch the subscription registered at — MatchDeltas are
// delivered for every later epoch. (Registration-time value; it does not
// advance with deliveries.)
func (s *Subscription) Epoch() uint64 { return s.epoch }
