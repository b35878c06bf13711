package fast

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fastmatch/graph"
	"fastmatch/ldbc"
)

// fakeClock drives a breaker's injectable clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testBreaker(threshold int, cooldown time.Duration) (*breaker, *fakeClock) {
	b := newBreaker(BreakerOptions{Threshold: threshold, Cooldown: cooldown})
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

var errHard = errors.New("engine blew up")

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	b, _ := testBreaker(3, time.Second)
	for i := 0; i < 3; i++ {
		done, err := b.allow()
		if err != nil {
			t.Fatalf("call %d rejected while closed: %v", i, err)
		}
		done(errHard)
	}
	if state, opens, _ := b.snapshot(); state != breakerOpen || opens != 1 {
		t.Fatalf("after threshold failures: state %s, opens %d; want open, 1", state, opens)
	}
	if _, err := b.allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker admitted a call: %v", err)
	}
	if _, _, shed := b.snapshot(); shed != 1 {
		t.Fatalf("shed = %d, want 1", shed)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b, _ := testBreaker(2, time.Second)
	for i := 0; i < 5; i++ {
		done, err := b.allow()
		if err != nil {
			t.Fatalf("call %d rejected: %v", i, err)
		}
		if i%2 == 0 {
			done(errHard) // never two in a row
		} else {
			done(nil)
		}
	}
	if state, opens, _ := b.snapshot(); state != breakerClosed || opens != 0 {
		t.Fatalf("interleaved failures tripped the breaker: state %s, opens %d", state, opens)
	}
}

func TestBreakerNeutralOutcomesDoNotCount(t *testing.T) {
	b, _ := testBreaker(2, time.Second)
	for _, err := range []error{
		context.Canceled, context.DeadlineExceeded, ErrQueryTooLarge,
		ErrQueueFull, ErrDeadlineDoomed, ErrQueueTimeout,
	} {
		done, aerr := b.allow()
		if aerr != nil {
			t.Fatalf("rejected during neutral run: %v", aerr)
		}
		done(err)
	}
	if state, opens, _ := b.snapshot(); state != breakerClosed || opens != 0 {
		t.Fatalf("neutral outcomes moved the breaker: state %s, opens %d", state, opens)
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := testBreaker(1, time.Second)
	done, _ := b.allow()
	done(errHard) // trips
	if _, err := b.allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	clk.advance(time.Second)
	if state, _, _ := b.snapshot(); state != breakerHalfOpen {
		t.Fatalf("lapsed cooldown reports %s, want half_open", state)
	}
	probe, err := b.allow()
	if err != nil {
		t.Fatalf("cooldown lapsed but probe rejected: %v", err)
	}
	// While the probe is in flight every other call is shed.
	if _, err := b.allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("second call admitted while probe in flight")
	}
	probe(nil)
	if state, opens, _ := b.snapshot(); state != breakerClosed || opens != 1 {
		t.Fatalf("successful probe: state %s, opens %d; want closed, 1", state, opens)
	}
	done, err = b.allow()
	if err != nil {
		t.Fatalf("closed breaker rejected: %v", err)
	}
	done(nil)
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b, clk := testBreaker(1, time.Second)
	done, _ := b.allow()
	done(errHard)
	clk.advance(time.Second)
	probe, err := b.allow()
	if err != nil {
		t.Fatal(err)
	}
	probe(errHard)
	if state, opens, _ := b.snapshot(); state != breakerOpen || opens != 2 {
		t.Fatalf("failed probe: state %s, opens %d; want open, 2", state, opens)
	}
	if _, err := b.allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("re-opened breaker admitted a call")
	}
}

func TestBreakerNeutralProbeStaysHalfOpen(t *testing.T) {
	b, clk := testBreaker(1, time.Second)
	done, _ := b.allow()
	done(errHard)
	clk.advance(time.Second)
	probe, err := b.allow()
	if err != nil {
		t.Fatal(err)
	}
	probe(context.Canceled) // probe cut short: no evidence either way
	if state, opens, _ := b.snapshot(); state != breakerHalfOpen || opens != 1 {
		t.Fatalf("neutral probe: state %s, opens %d; want half_open, 1", state, opens)
	}
	// The next call probes again.
	if _, err := b.allow(); err != nil {
		t.Fatalf("follow-up probe rejected: %v", err)
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(BreakerOptions{Threshold: -1})
	if b != nil {
		t.Fatal("negative threshold must disable the breaker")
	}
	done, err := b.allow() // nil receiver
	if err != nil || done != nil {
		t.Fatalf("nil breaker allow: done non-nil %v, err %v; want (nil, nil)", done != nil, err)
	}
	if state, opens, shed := b.snapshot(); state != breakerClosed || opens != 0 || shed != 0 {
		t.Fatalf("nil breaker snapshot = (%s, %d, %d)", state, opens, shed)
	}
}

// chaoticRouter builds a Router whose single tenant "g" panics on every
// kernel launch — each routed call is a hard failure.
func chaoticRouter(t *testing.T, brk BreakerOptions) *Router {
	t.Helper()
	g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 80, Seed: 3})
	r := NewRouter(RouterOptions{Workers: 2, Breaker: brk})
	err := r.AddGraph("g", g, &Options{
		Chaos: &ChaosConfig{Seed: 1, Rules: []FaultRule{
			{Site: FaultSiteKernel, Kind: FaultPanic, EveryNth: 1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRouterBreakerShedsFailingTenant: consecutive hard failures through
// the router trip the tenant's breaker; subsequent calls shed with
// ErrBreakerOpen before any matching work, and Stats reports the trip.
func TestRouterBreakerShedsFailingTenant(t *testing.T) {
	r := chaoticRouter(t, BreakerOptions{Threshold: 2, Cooldown: time.Hour})
	q, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, err := r.MatchContext(context.Background(), "g", q)
		var kp *KernelPanicError
		if !errors.As(err, &kp) {
			t.Fatalf("call %d: err %v, want the injected kernel panic", i, err)
		}
	}
	_, err = r.MatchContext(context.Background(), "g", q)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("tripped tenant's call err = %v, want ErrBreakerOpen", err)
	}
	s := r.Stats()["g"]
	if s.BreakerState != breakerOpen || s.BreakerOpens != 1 || s.ShedBreakerOpen != 1 {
		t.Fatalf("stats after trip: %+v", s)
	}
	if s.Calls != 2 {
		t.Fatalf("shed call counted as served: Calls = %d, want 2", s.Calls)
	}
}

// TestRouterBreakerSurvivesSwap: SwapGraph replaces the graph but not the
// breaker — a tenant that was shedding keeps shedding until the cooldown
// probe, even with a fresh graph behind it.
func TestRouterBreakerSurvivesSwap(t *testing.T) {
	r := chaoticRouter(t, BreakerOptions{Threshold: 1, Cooldown: time.Hour})
	q, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.MatchContext(context.Background(), "g", q); err == nil {
		t.Fatal("chaotic call succeeded")
	}
	g2 := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 60, Seed: 4})
	if err := r.SwapGraph("g", g2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.MatchContext(context.Background(), "g", q); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("post-swap call err = %v, want ErrBreakerOpen", err)
	}
}

// TestServerBreakerOpen503: the HTTP front end maps ErrBreakerOpen to 503
// with reason "breaker_open", and the breaker surfaces in /metrics.
func TestServerBreakerOpen503(t *testing.T) {
	r := chaoticRouter(t, BreakerOptions{Threshold: 1, Cooldown: time.Hour})
	srv := NewServer(r, ServerOptions{QueryByName: ldbc.QueryByName})
	post := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/graphs/g/count", strings.NewReader(`{"query":"q1"}`))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		return w
	}
	post() // trips the breaker (hard failure surfaces as a non-shed error)
	w := post()
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), `"breaker_open"`) {
		t.Fatalf("body %s missing breaker_open reason", w.Body)
	}
	mreq := httptest.NewRequest("GET", "/metrics", nil)
	mw := httptest.NewRecorder()
	srv.ServeHTTP(mw, mreq)
	metrics := mw.Body.String()
	for _, want := range []string{
		`fastmatch_breaker_opens_total{graph="g"} 1`,
		`fastmatch_shed_breaker_open_total{graph="g"} 1`,
		`fastmatch_breaker_state{graph="g"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// pathQuery is an n-vertex path with every vertex labelled 0. At n = 48 its
// partial-results buffer (47·No·196 B) exceeds the default card's BRAM.
func pathQuery(t *testing.T, n int) *graph.Query {
	t.Helper()
	labels := make([]graph.Label, n)
	edges := make([][2]graph.QueryVertex, n-1)
	for i := range edges {
		edges[i] = [2]graph.QueryVertex{i, i + 1}
	}
	q, err := graph.NewQuery(fmt.Sprintf("path%d", n), labels, edges)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestRouterBreakerIgnoresOversizeQuery: a query too large for the card is
// the caller's error. Each call fails fast with ErrQueryTooLarge before any
// CST is built, the tenant's breaker never trips, and the tenant keeps
// serving well-formed queries.
func TestRouterBreakerIgnoresOversizeQuery(t *testing.T) {
	g := ldbc.Generate(ldbc.Config{ScaleFactor: 1, BasePersons: 80, Seed: 3})
	r := NewRouter(RouterOptions{Workers: 2})
	if err := r.AddGraph("g", g, nil); err != nil {
		t.Fatal(err)
	}
	big := pathQuery(t, 48)
	for i := 0; i < 6; i++ {
		start := time.Now()
		_, err := r.MatchContext(context.Background(), "g", big)
		if !errors.Is(err, ErrQueryTooLarge) {
			t.Fatalf("call %d: err = %v, want ErrQueryTooLarge", i, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("call %d took %v to reject, want < 1s", i, d)
		}
	}
	if s := r.Stats()["g"]; s.BreakerOpens != 0 || s.BreakerState != breakerClosed {
		t.Fatalf("oversize queries moved the breaker: %+v", s)
	}
	q1, err := ldbc.QueryByName("q1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.MatchContext(context.Background(), "g", q1); err != nil {
		t.Fatalf("q1 after oversize calls: %v", err)
	}
}
