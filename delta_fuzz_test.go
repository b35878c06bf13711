package fast

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fastmatch/graph"
	"fastmatch/internal/baseline"
	"fastmatch/ldbc"
)

// FuzzDeltaJSON: arbitrary bytes as a POST /v1/graphs/{name}/delta body,
// against a small random graph with one live subscriber. The server never
// panics; a rejected batch answers 400 and commits no epoch; an accepted
// batch's MatchDelta equals the backtracking oracle's set differences of
// the two epochs' embeddings. The body is what sizes notify's work, so
// every shape of batch a client can send goes through the changed-edge
// matcher here.
func FuzzDeltaJSON(f *testing.F) {
	g := graph.RandomUniform(graph.GenConfig{NumVertices: 40, NumLabels: 2, AvgDegree: 5, Seed: 5})
	q := graph.MustQuery("tri-tail", []graph.Label{0, 1, 1, 0}, [][2]graph.QueryVertex{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	before := embeddingSet(f, q, g)
	// Seeds that change the subscriber's matches: delete an edge and a
	// vertex of one embedding, and hang a new tail vertex off another.
	res, err := baseline.Backtrack(q, g, baseline.Options{Collect: true, Limit: 1})
	if err != nil || len(res.Embeddings) == 0 {
		f.Fatalf("fixture has no embedding: %v", err)
	}
	em := res.Embeddings[0]
	for _, body := range []string{
		`{}`,
		fmt.Sprintf(`{"del_edges":[[%d,%d]]}`, em[0], em[1]),
		fmt.Sprintf(`{"del_vertices":[%d]}`, em[2]),
		fmt.Sprintf(`{"add_vertices":[0,0],"add_edges":[[%d,40],[40,41],[%d,41]],"del_edges":[[%d,%d]]}`, em[2], em[1], em[2], em[3]),
		`{"del_vertices":[0],"del_edges":[[0,1]]}`,
		`{"add_edges":[[5,5]]}`,
		`{"add_edges":[[1,2]],"add_edge_labels":[1]}`,
		`{"del_edges":[[4294967295,0]]}`,
		`{"bogus":1}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r := NewRouter(RouterOptions{Workers: 1, Engine: engineTestOptions(1)})
		if err := r.AddGraph("g", g, nil); err != nil {
			t.Fatal(err)
		}
		s := NewServer(r, ServerOptions{QueryByName: ldbc.QueryByName})
		mds := make(chan MatchDelta, 1)
		sub, err := r.Subscribe(context.Background(), "g", q, func(md MatchDelta) error {
			mds <- md
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			sub.Close()
			_ = sub.Wait()
		}()

		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/graphs/g/delta", bytes.NewReader(body)))
		if p := s.Panics(); p != 0 {
			t.Fatalf("body %q: %d handler panics", body, p)
		}
		if w.Code != http.StatusOK {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("body %q: status %d, want 200 or 400: %s", body, w.Code, w.Body)
			}
			if st := r.Stats()["g"]; st.Epoch != 0 || st.Deltas != 0 {
				t.Fatalf("body %q: rejected batch committed: %+v", body, st)
			}
			return
		}

		// Accepted: decode the batch the way the server did and replay it
		// on the graph layer for the oracle.
		var req deltaRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("body %q accepted but does not decode: %v", body, err)
		}
		g2, _, err := g.ApplyDelta(graph.Delta{
			AddVertices:   req.AddVertices,
			DelVertices:   req.DelVertices,
			AddEdges:      req.AddEdges,
			AddEdgeLabels: req.AddEdgeLabels,
			DelEdges:      req.DelEdges,
		})
		if err != nil {
			t.Fatalf("body %q accepted by the server, rejected on replay: %v", body, err)
		}
		var md MatchDelta
		select {
		case md = <-mds:
		case <-time.After(10 * time.Second):
			t.Fatalf("body %q: no MatchDelta", body)
		}
		after := embeddingSet(t, q, g2)
		added, removed := embeddingKeys(md.Added), embeddingKeys(md.Removed)
		if md.Epoch != 1 || len(added) != len(md.Added) || len(removed) != len(md.Removed) ||
			!sameKeySet(added, diffKeys(after, before)) || !sameKeySet(removed, diffKeys(before, after)) {
			t.Fatalf("body %q: epoch %d, added %d (%d distinct), removed %d (%d distinct); oracle added %d, removed %d",
				body, md.Epoch, len(md.Added), len(added), len(md.Removed), len(removed),
				len(diffKeys(after, before)), len(diffKeys(before, after)))
		}
	})
}
