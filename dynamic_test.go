package fast

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"fastmatch/graph"
	"fastmatch/ldbc"
)

// deltaOracle applies d to g at the graph layer and returns the post-delta
// snapshot, failing the test on error.
func deltaOracle(t *testing.T, g *graph.Graph, d graph.Delta) *graph.Graph {
	t.Helper()
	g2, _, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatalf("oracle ApplyDelta: %v", err)
	}
	return g2
}

// fullMatchSet streams every embedding of q on the router's current epoch
// of name and returns them keyed by Embedding.Key.
func fullMatchSet(t *testing.T, r *Router, name string, q *graph.Query) map[string]bool {
	t.Helper()
	set := make(map[string]bool)
	_, err := r.MatchStream(context.Background(), name, q, func(em graph.Embedding) error {
		set[em.Key()] = true
		return nil
	})
	if err != nil {
		t.Fatalf("MatchStream: %v", err)
	}
	return set
}

// TestDeltaRouterApply: a committed batch advances the epoch, updates the
// serving counts to the post-delta graph, and shows up in Stats; invalid
// batches and unknown graphs leave everything untouched.
func TestDeltaRouterApply(t *testing.T) {
	gA, _ := routerTestGraphs()
	r := NewRouter(RouterOptions{Workers: 2, Engine: engineTestOptions(2)})
	if err := r.AddGraph("a", gA, nil); err != nil {
		t.Fatal(err)
	}
	q, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}

	// Connect a fresh vertex into the graph and drop one edge.
	n := graph.VertexID(gA.NumVertices())
	d := graph.Delta{
		AddVertices: []graph.Label{gA.Label(0)},
		AddEdges:    [][2]graph.VertexID{{n, 1}, {n, 2}},
		DelEdges:    [][2]graph.VertexID{{0, gA.Neighbors(0)[0]}},
	}
	want := deltaOracle(t, gA, d)

	res, err := r.ApplyDelta("a", d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || res.Vertices != want.LiveVertices() || res.Edges != want.NumEdges() {
		t.Fatalf("DeltaResult = %+v, want epoch 1, %d vertices, %d edges", res, want.LiveVertices(), want.NumEdges())
	}
	if res.Touched == 0 {
		t.Fatal("DeltaResult.Touched = 0 for a non-empty batch")
	}

	got, err := r.MatchContext(context.Background(), "a", q)
	if err != nil {
		t.Fatal(err)
	}
	if wantCount := routerWant(t, q, want); got.Count != wantCount {
		t.Fatalf("post-delta count %d, want %d", got.Count, wantCount)
	}

	st := r.Stats()["a"]
	if st.Epoch != 1 || st.Deltas != 1 {
		t.Fatalf("Stats = epoch %d deltas %d, want 1/1", st.Epoch, st.Deltas)
	}

	// Unknown graph.
	if _, err := r.ApplyDelta("nope", graph.Delta{}); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown graph: err = %v, want ErrUnknownGraph", err)
	}
	// Invalid batch (self loop): no new epoch.
	if _, err := r.ApplyDelta("a", graph.Delta{AddEdges: [][2]graph.VertexID{{3, 3}}}); err == nil {
		t.Fatal("self-loop batch: want error")
	}
	if st := r.Stats()["a"]; st.Epoch != 1 || st.Deltas != 1 {
		t.Fatalf("failed batch moved state: %+v", st)
	}
}

// TestDeltaPlanSeeded: a label-preserving batch carries the warm plan cache
// into the new epoch as seeds (and the seeded plans still count correctly);
// a batch that widens the label alphabet invalidates it instead.
func TestDeltaPlanSeeded(t *testing.T) {
	gA, _ := routerTestGraphs()
	r := NewRouter(RouterOptions{Workers: 2, Engine: engineTestOptions(2)})
	if err := r.AddGraph("a", gA, nil); err != nil {
		t.Fatal(err)
	}
	// Warm the plan cache.
	for _, name := range []string{"q1", "q2"} {
		q, err := ldbc.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.MatchContext(context.Background(), "a", q); err != nil {
			t.Fatal(err)
		}
	}

	d := graph.Delta{AddEdges: [][2]graph.VertexID{{0, 50}}}
	if gA.HasEdge(0, 50) {
		d.AddEdges = [][2]graph.VertexID{{0, 51}}
	}
	want := deltaOracle(t, gA, d)
	res, err := r.ApplyDelta("a", d)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlanSeeded {
		t.Fatal("label-preserving delta over a warm cache: PlanSeeded = false")
	}
	for _, name := range []string{"q1", "q2"} {
		q, err := ldbc.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.MatchContext(context.Background(), "a", q)
		if err != nil {
			t.Fatal(err)
		}
		if wantCount := routerWant(t, q, want); got.Count != wantCount {
			t.Fatalf("%s: seeded-plan count %d, want %d", name, got.Count, wantCount)
		}
	}

	// Widening the label alphabet must not carry plans.
	g2 := r.Stats()["a"]
	_ = g2
	newLabel := graph.Label(want.NumLabels())
	res, err = r.ApplyDelta("a", graph.Delta{AddVertices: []graph.Label{newLabel}})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanSeeded {
		t.Fatal("label-widening delta: PlanSeeded = true, want false")
	}
}

// TestDeltaSwapRace: a SwapGraph interleaving between delta computation and
// commit must win — the delta is dropped with ErrGraphSwapped and the
// swapped-in graph serves, at a reset epoch. Fails without the commit-time
// snapshot check in Router.ApplyDelta.
func TestDeltaSwapRace(t *testing.T) {
	gA, gB := routerTestGraphs()
	r := NewRouter(RouterOptions{Workers: 2, Engine: engineTestOptions(2)})
	if err := r.AddGraph("a", gA, nil); err != nil {
		t.Fatal(err)
	}
	applyDeltaCommitHook = func() {
		if err := r.SwapGraph("a", gB); err != nil {
			t.Errorf("SwapGraph in hook: %v", err)
		}
	}
	defer func() { applyDeltaCommitHook = nil }()

	_, err := r.ApplyDelta("a", graph.Delta{AddVertices: []graph.Label{0}})
	if !errors.Is(err, ErrGraphSwapped) {
		t.Fatalf("ApplyDelta racing SwapGraph: err = %v, want ErrGraphSwapped", err)
	}
	applyDeltaCommitHook = nil

	q, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.MatchContext(context.Background(), "a", q)
	if err != nil {
		t.Fatal(err)
	}
	if want := routerWant(t, q, gB); got.Count != want {
		t.Fatalf("post-swap count %d, want gB's %d — stale delta lineage served", got.Count, want)
	}
	if st := r.Stats()["a"]; st.Epoch != 0 || st.Deltas != 0 {
		t.Fatalf("post-swap Stats = epoch %d deltas %d, want 0/0", st.Epoch, st.Deltas)
	}
}

// TestDeltaRaceInflightMatchStream: a stream admitted before ApplyDelta is
// pinned to its epoch — its final count must be the pre-delta count even
// though the batch commits (and changes the answer) mid-stream.
func TestDeltaRaceInflightMatchStream(t *testing.T) {
	gA, _ := routerTestGraphs()
	r := NewRouter(RouterOptions{Workers: 2, Engine: engineTestOptions(2)})
	if err := r.AddGraph("a", gA, nil); err != nil {
		t.Fatal(err)
	}
	q, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}
	wantOld := routerWant(t, q, gA)

	// Delete a matched vertex so the post-delta answer provably differs.
	var victim graph.VertexID
	found := false
	if _, err := r.MatchStream(context.Background(), "a", q, func(em graph.Embedding) error {
		victim, found = em[0], true
		return errStopEnum
	}); err != nil && !errors.Is(err, errStopEnum) {
		t.Fatal(err)
	}
	if !found {
		t.Skip("q1 has no matches on this graph")
	}
	d := graph.Delta{DelVertices: []graph.VertexID{victim}}
	wantNew := routerWant(t, q, deltaOracle(t, gA, d))
	if wantNew == wantOld {
		t.Fatalf("victim delete did not change the count (%d)", wantOld)
	}

	started := make(chan struct{})
	applied := make(chan struct{})
	var once sync.Once
	var streamed int64
	done := make(chan error, 1)
	go func() {
		res, err := r.MatchStream(context.Background(), "a", q, func(em graph.Embedding) error {
			once.Do(func() { close(started) })
			<-applied // hold the stream open across the delta commit
			return nil
		})
		if res != nil {
			streamed = res.Count
		}
		done <- err
	}()

	<-started
	if _, err := r.ApplyDelta("a", d); err != nil {
		t.Fatal(err)
	}
	close(applied)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if streamed != wantOld {
		t.Fatalf("in-flight stream counted %d, want pinned-epoch %d", streamed, wantOld)
	}
	got, err := r.MatchContext(context.Background(), "a", q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != wantNew {
		t.Fatalf("post-delta count %d, want %d", got.Count, wantNew)
	}
}

var errStopEnum = errors.New("stop")

// randomSingleBatch builds one small valid batch against mirror: connect a
// new vertex, delete a vertex, add an edge, or delete an edge.
func randomSingleBatch(rng *rand.Rand, mirror *graph.Graph) graph.Delta {
	live := make([]graph.VertexID, 0, mirror.NumVertices())
	for v := 0; v < mirror.NumVertices(); v++ {
		if !mirror.Deleted(graph.VertexID(v)) {
			live = append(live, graph.VertexID(v))
		}
	}
	pick := func() graph.VertexID { return live[rng.Intn(len(live))] }
	for {
		switch rng.Intn(4) {
		case 0: // new vertex wired to 1–3 live vertices
			n := graph.VertexID(mirror.NumVertices())
			d := graph.Delta{AddVertices: []graph.Label{graph.Label(rng.Intn(mirror.NumLabels()))}}
			seen := map[graph.VertexID]bool{}
			for i := 0; i < 1+rng.Intn(3); i++ {
				w := pick()
				if !seen[w] {
					seen[w] = true
					d.AddEdges = append(d.AddEdges, [2]graph.VertexID{n, w})
				}
			}
			return d
		case 1: // tombstone a vertex (keep most of the graph alive)
			if len(live) < mirror.NumVertices()/2 {
				continue
			}
			return graph.Delta{DelVertices: []graph.VertexID{pick()}}
		case 2: // add a missing edge
			for tries := 0; tries < 20; tries++ {
				u, w := pick(), pick()
				if u != w && !mirror.HasEdge(u, w) {
					return graph.Delta{AddEdges: [][2]graph.VertexID{{u, w}}}
				}
			}
		case 3: // delete an existing edge
			for tries := 0; tries < 20; tries++ {
				u := pick()
				if nbrs := mirror.Neighbors(u); len(nbrs) > 0 {
					return graph.Delta{DelEdges: [][2]graph.VertexID{{u, nbrs[rng.Intn(len(nbrs))]}}}
				}
			}
		}
	}
}

// TestSubscribeMatchDeltaOracle: over a random mutation sequence, every
// MatchDelta a standing query receives must equal the set difference of
// full re-matches on the two epochs it spans, with epochs delivered
// strictly in order and every batch producing exactly one notification.
func TestSubscribeMatchDeltaOracle(t *testing.T) {
	gA := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 60, Seed: 21})
	r := NewRouter(RouterOptions{Workers: 2, Engine: engineTestOptions(2)})
	if err := r.AddGraph("a", gA, nil); err != nil {
		t.Fatal(err)
	}
	q, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}

	mds := make(chan MatchDelta, 256)
	sub, err := r.Subscribe(context.Background(), "a", q, func(md MatchDelta) error {
		mds <- md
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.Epoch() != 0 || sub.Graph() != "a" || sub.Query() != q {
		t.Fatalf("subscription registration state wrong: epoch %d graph %q", sub.Epoch(), sub.Graph())
	}

	rng := rand.New(rand.NewSource(99))
	mirror := gA
	const steps = 20
	for step := 1; step <= steps; step++ {
		before := fullMatchSet(t, r, "a", q)
		d := randomSingleBatch(rng, mirror)
		mirror = deltaOracle(t, mirror, d)
		res, err := r.ApplyDelta("a", d)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if res.Notified != 1 {
			t.Fatalf("step %d: Notified = %d, want 1", step, res.Notified)
		}
		after := fullMatchSet(t, r, "a", q)

		var md MatchDelta
		select {
		case md = <-mds:
		case <-time.After(10 * time.Second):
			t.Fatalf("step %d: no MatchDelta delivered", step)
		}
		if md.Epoch != uint64(step) {
			t.Fatalf("step %d: MatchDelta.Epoch = %d", step, md.Epoch)
		}
		wantAdd := diffKeys(after, before)
		wantDel := diffKeys(before, after)
		gotAdd := embeddingKeys(md.Added)
		gotDel := embeddingKeys(md.Removed)
		if !sameKeySet(gotAdd, wantAdd) || !sameKeySet(gotDel, wantDel) {
			t.Fatalf("step %d epoch %d: MatchDelta mismatch\n added   %v\n want    %v\n removed %v\n want    %v",
				step, md.Epoch, keys(gotAdd), keys(wantAdd), keys(gotDel), keys(wantDel))
		}
	}

	st := r.Stats()["a"]
	if st.Subscriptions != 1 || st.Notifications != steps || st.Deltas != steps {
		t.Fatalf("Stats = %+v, want 1 subscription, %d notifications/deltas", st, steps)
	}

	sub.Close()
	if err := sub.Wait(); !errors.Is(err, ErrSubscriptionClosed) {
		t.Fatalf("Wait after Close: %v, want ErrSubscriptionClosed", err)
	}
	if st := r.Stats()["a"]; st.Subscriptions != 0 {
		t.Fatalf("closed subscription still registered: %+v", st)
	}
}

func diffKeys(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool)
	for k := range a {
		if !b[k] {
			out[k] = true
		}
	}
	return out
}

func embeddingKeys(ems []graph.Embedding) map[string]bool {
	out := make(map[string]bool, len(ems))
	for _, em := range ems {
		out[em.Key()] = true
	}
	return out
}

func sameKeySet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSubscribeTerminalCauses: swap, remove, context cancellation and emit
// errors each end a standing query with the right terminal error.
func TestSubscribeTerminalCauses(t *testing.T) {
	gA, gB := routerTestGraphs()
	q, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}
	noop := func(MatchDelta) error { return nil }

	t.Run("swap", func(t *testing.T) {
		r := NewRouter(RouterOptions{Workers: 2, Engine: engineTestOptions(2)})
		if err := r.AddGraph("a", gA, nil); err != nil {
			t.Fatal(err)
		}
		sub, err := r.Subscribe(context.Background(), "a", q, noop)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SwapGraph("a", gB); err != nil {
			t.Fatal(err)
		}
		if err := sub.Wait(); !errors.Is(err, ErrGraphSwapped) {
			t.Fatalf("Wait after swap: %v, want ErrGraphSwapped", err)
		}
	})

	t.Run("remove", func(t *testing.T) {
		r := NewRouter(RouterOptions{Workers: 2, Engine: engineTestOptions(2)})
		if err := r.AddGraph("a", gA, nil); err != nil {
			t.Fatal(err)
		}
		sub, err := r.Subscribe(context.Background(), "a", q, noop)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.RemoveGraph("a"); err != nil {
			t.Fatal(err)
		}
		if err := sub.Wait(); !errors.Is(err, ErrUnknownGraph) {
			t.Fatalf("Wait after remove: %v, want ErrUnknownGraph", err)
		}
	})

	t.Run("context", func(t *testing.T) {
		r := NewRouter(RouterOptions{Workers: 2, Engine: engineTestOptions(2)})
		if err := r.AddGraph("a", gA, nil); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		sub, err := r.Subscribe(ctx, "a", q, noop)
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		if err := sub.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait after cancel: %v, want context.Canceled", err)
		}
	})

	t.Run("emit-error", func(t *testing.T) {
		r := NewRouter(RouterOptions{Workers: 2, Engine: engineTestOptions(2)})
		if err := r.AddGraph("a", gA, nil); err != nil {
			t.Fatal(err)
		}
		boom := errors.New("boom")
		sub, err := r.Subscribe(context.Background(), "a", q, func(MatchDelta) error { return boom })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ApplyDelta("a", graph.Delta{AddVertices: []graph.Label{0}}); err != nil {
			t.Fatal(err)
		}
		if err := sub.Wait(); !errors.Is(err, boom) {
			t.Fatalf("Wait after emit error: %v, want boom", err)
		}
	})

	t.Run("unknown-graph", func(t *testing.T) {
		r := NewRouter(RouterOptions{Workers: 2, Engine: engineTestOptions(2)})
		if _, err := r.Subscribe(context.Background(), "nope", q, noop); !errors.Is(err, ErrUnknownGraph) {
			t.Fatalf("Subscribe unknown: %v, want ErrUnknownGraph", err)
		}
	})
}

// TestSubscribeRaceDrains: deltas, in-flight matches, subscribers coming
// and going, and a swap at the end — everything must drain cleanly. Run
// under -race this exercises the mutMu/subMu/commit interleavings.
func TestSubscribeRaceDrains(t *testing.T) {
	gA, gB := routerTestGraphs()
	r := NewRouter(RouterOptions{Workers: 2, Engine: engineTestOptions(2)})
	if err := r.AddGraph("a", gA, nil); err != nil {
		t.Fatal(err)
	}
	q, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Standing queries: one long-lived, one churning.
	sub, err := r.Subscribe(context.Background(), "a", q, func(MatchDelta) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s, err := r.Subscribe(context.Background(), "a", q, func(MatchDelta) error { return nil })
			if err != nil {
				return // graph swapped away
			}
			s.Close()
			if err := s.Wait(); err != nil && !errors.Is(err, ErrSubscriptionClosed) && !errors.Is(err, ErrGraphSwapped) {
				t.Errorf("churn Wait: %v", err)
				return
			}
		}
	}()

	// In-flight matches racing the mutations.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.MatchContext(context.Background(), "a", q); err != nil && !errors.Is(err, ErrUnknownGraph) {
					t.Errorf("MatchContext: %v", err)
					return
				}
			}
		}()
	}

	// Mutator: a run of single-op batches.
	rng := rand.New(rand.NewSource(7))
	mirror := gA
	for i := 0; i < 15; i++ {
		d := randomSingleBatch(rng, mirror)
		mirror = deltaOracle(t, mirror, d)
		if _, err := r.ApplyDelta("a", d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	if err := r.SwapGraph("a", gB); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- sub.Wait() }()
	select {
	case err := <-waited:
		if !errors.Is(err, ErrGraphSwapped) {
			t.Fatalf("long-lived sub after swap: %v, want ErrGraphSwapped", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscription did not drain after swap")
	}
	if st := r.Stats()["a"]; st.Epoch != 0 {
		t.Fatalf("post-swap epoch %d, want 0", st.Epoch)
	}
}

// TestSubscribeEpochIsRegistrationEpoch: Epoch is the epoch the stream
// starts after, so it must not follow the commits that come later — and a
// handler reading it (handleSubscribe's "subscribed" line) must not race
// the mutation path. Run under -race.
func TestSubscribeEpochIsRegistrationEpoch(t *testing.T) {
	gA, _ := routerTestGraphs()
	r := NewRouter(RouterOptions{Workers: 2, Engine: engineTestOptions(2)})
	if err := r.AddGraph("a", gA, nil); err != nil {
		t.Fatal(err)
	}
	q, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := r.Subscribe(context.Background(), "a", q, func(MatchDelta) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	want := sub.Epoch()

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := sub.Epoch(); got != want {
				t.Errorf("Epoch moved to %d during deltas, want registration epoch %d", got, want)
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(11))
	mirror := gA
	for i := 0; i < 10; i++ {
		d := randomSingleBatch(rng, mirror)
		mirror = deltaOracle(t, mirror, d)
		if _, err := r.ApplyDelta("a", d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	close(stop)
	<-readerDone
	if got := sub.Epoch(); got != want {
		t.Fatalf("Epoch = %d after 10 deltas, want registration epoch %d", got, want)
	}
}
