// Dynamic graphs and continuous queries: a served graph mutated in place
// with ApplyDelta epoch snapshots while a standing query streams the match
// deltas each batch causes. In-flight matches keep the epoch they were
// admitted against; each committed batch advances the epoch by one and the
// subscription sees every epoch exactly once, in order — its Added/Removed
// sets are matched from the edges each batch changed, not by re-running the
// query.
package main

import (
	"context"
	"fmt"
	"log"

	fast "fastmatch"
	"fastmatch/graph"
	"fastmatch/ldbc"
)

func main() {
	router := fast.NewRouter(fast.RouterOptions{Workers: 2})
	g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 120, Seed: 7})
	if err := router.AddGraph("social", g, nil); err != nil {
		log.Fatal(err)
	}
	q, err := ldbc.QueryByName("q1")
	if err != nil {
		log.Fatal(err)
	}

	res, err := router.MatchContext(context.Background(), "social", q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("epoch 0: %s has %d matches\n", q.Name(), res.Count)

	// Watch q1 while the graph changes. The emit callback runs on its own
	// goroutine, one MatchDelta per committed batch.
	sub, err := router.Subscribe(context.Background(), "social", q, func(md fast.MatchDelta) error {
		fmt.Printf("epoch %d: %+d added, %-d removed\n", md.Epoch, len(md.Added), len(md.Removed))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Batch 1: wire a brand-new vertex into the neighborhood of vertex 1 —
	// new triangles appear. Vertex ids are stable across epochs: the new
	// vertex's id is the old NumVertices().
	n := graph.VertexID(g.NumVertices())
	dr, err := router.ApplyDelta("social", graph.Delta{
		AddVertices: []graph.Label{g.Label(1)},
		AddEdges:    [][2]graph.VertexID{{n, 1}, {n, 2}, {n, 3}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("committed epoch %d: %d vertices, %d edges, %d touched, plan seeded: %v\n",
		dr.Epoch, dr.Vertices, dr.Edges, dr.Touched, dr.PlanSeeded)

	// Batch 2: tombstone a vertex — everything it participated in vanishes.
	if _, err := router.ApplyDelta("social", graph.Delta{
		DelVertices: []graph.VertexID{1},
	}); err != nil {
		log.Fatal(err)
	}

	// The router serves the newest epoch; the standing query has already
	// been told exactly what changed.
	res, err = router.MatchContext(context.Background(), "social", q)
	if err != nil {
		log.Fatal(err)
	}
	st := router.Stats()["social"]
	fmt.Printf("epoch %d: %d matches now (%d deltas, %d notifications)\n",
		st.Epoch, res.Count, st.Deltas, st.Notifications)

	sub.Close()
	if err := sub.Wait(); err != fast.ErrSubscriptionClosed {
		log.Fatal(err)
	}
}
