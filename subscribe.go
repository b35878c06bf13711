package fast

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"fastmatch/graph"
	"fastmatch/internal/cst"
)

// ErrSubscriptionClosed is the terminal error of a standing query ended by
// its own Close call (as opposed to context cancellation, an emit error, or
// the graph being swapped or removed).
var ErrSubscriptionClosed = errors.New("subscription closed")

// MatchDelta is one standing query's incremental result for one committed
// delta batch: the embeddings that appeared and vanished between Epoch-1
// and Epoch. A batch that does not affect the query yields a MatchDelta
// with empty Added/Removed — an epoch heartbeat subscribers can use to
// track how current their view is. Added and Removed are sets: the order of
// embeddings within each is unspecified.
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

	// match finds the embeddings that use a changed edge, on the tenant's
	// shared ent.match scratch. It is owned by the mutation path: notify
	// runs under ent.mutMu.
	match *cst.EdgeMatcher

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
// produces one MatchDelta — computed from the edges the batch changed, and
// equal as sets to diffing full re-matches of the two epochs — and emit
// receives them in epoch order on a dedicated goroutine. emit errors, ctx
// cancellation, Close, SwapGraph and RemoveGraph all terminate the
// subscription; Wait returns the terminal cause.
//
// Registration prepares one seeded plan per query edge (a BFS tree rooted
// at one of its endpoints) and matches nothing, so it costs a few
// allocations whatever the graph's size. It is serialized with ApplyDelta
// so the subscription joins the epoch sequence at a well-defined point: a
// batch either precedes the subscription (not delivered) or follows it
// (delivered), never half of each.
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

	s := &Subscription{
		ent:     ent,
		graph:   graphName,
		query:   q,
		epoch:   st.g.Epoch(),
		match:   cst.NewEdgeMatcher(q),
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

// notify computes and enqueues this subscription's MatchDelta for the
// batch d that took g to g2. It runs under ent.mutMu (ApplyDelta's
// notification loop). Returns false when the subscription has already
// terminated.
func (s *Subscription) notify(g, g2 *graph.Graph, d graph.Delta) bool {
	select {
	case <-s.done:
		return false
	default:
	}
	md := MatchDelta{Epoch: g2.Epoch()}
	md.Added, md.Removed = s.delta(g, g2, d)
	select {
	case s.ch <- md:
		return true
	case <-s.done:
		return false
	}
}

// delta returns the embeddings batch d adds and removes. An embedding
// differs between g and g2 only if it uses a changed edge, so Removed is
// g's embeddings that use a deleted edge (a deleted vertex's edges count as
// deleted) and Added is g2's embeddings that use an inserted edge; no
// embedding can be in both. A one-vertex query has no edges: its
// embeddings are the vertices of its label, so the batch adds and removes
// exactly the ones it adds and deletes. The order within each set is
// unspecified.
func (s *Subscription) delta(g, g2 *graph.Graph, d graph.Delta) (added, removed []graph.Embedding) {
	if s.query.NumVertices() == 1 {
		l := s.query.Label(0)
		for i, vl := range d.AddVertices {
			if vl == l {
				added = append(added, graph.Embedding{graph.VertexID(g.NumVertices() + i)})
			}
		}
		for _, v := range d.DelVertices {
			if g.Label(v) == l {
				removed = append(removed, graph.Embedding{v})
			}
		}
		return added, removed
	}
	deleted := slices.Clip(d.DelEdges)
	for _, v := range d.DelVertices {
		for _, w := range g.Neighbors(v) {
			deleted = append(deleted, [2]graph.VertexID{v, w})
		}
	}
	return s.match.Match(g2, d.AddEdges, &s.ent.match), s.match.Match(g, deleted, &s.ent.match)
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
