package fast

import (
	"context"
	"strings"
	"testing"
	"time"

	"fastmatch/internal/host"
	"fastmatch/ldbc"
)

// TestInvalidCallOptionFailsBeforePlanning: an out-of-range per-call δ must
// fail in option resolution — with a fast:-prefixed error, before the
// engine records a plan-cache miss or occupies a cache slot. The regression:
// the value was only validated deep inside host.Match, after a full
// host.Prepare had been burned and cached for a call that could never run.
func TestInvalidCallOptionFailsBeforePlanning(t *testing.T) {
	eng, err := NewEngine(engineTestGraph(), engineTestOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	q, _ := ldbc.QueryByName("q1")
	for _, delta := range []float64{-0.5, 1.0, 1.5} {
		_, err := eng.MatchContext(context.Background(), q, WithDelta(delta))
		if err == nil {
			t.Fatalf("WithDelta(%v) accepted", delta)
		}
		if !strings.HasPrefix(err.Error(), "fast:") {
			t.Errorf("WithDelta(%v): error %q not fast:-prefixed — validated too deep", delta, err)
		}
	}
	hits, misses := eng.PlanCacheStats()
	if hits != 0 || misses != 0 {
		t.Errorf("invalid calls touched the plan cache: hits=%d misses=%d, want 0/0", hits, misses)
	}
	if eng.CachedPlans() != 0 {
		t.Errorf("invalid calls occupied %d plan-cache slots, want 0", eng.CachedPlans())
	}

	// The package-level entry point fails the same way, before planning.
	if _, err := MatchContext(context.Background(), q, engineTestGraph(), nil, WithDelta(1.5)); err == nil ||
		!strings.HasPrefix(err.Error(), "fast:") {
		t.Errorf("MatchContext WithDelta(1.5): err = %v, want fast:-prefixed error", err)
	}
}

// TestWithLimitZeroOverride mirrors the δ=0 regression test: WithLimit(0)
// must be an explicit override. The regression: callOptions.apply copied
// only limit > 0, so once a default limit sat in the host configuration a
// caller could never lift it back to unlimited.
func TestWithLimitZeroOverride(t *testing.T) {
	// Unit: a pre-set limit (a router/tenant default already applied to the
	// config) is lifted by an explicit WithLimit(0)...
	cfg := host.Config{Limit: 100}
	c, err := resolveCall([]MatchOption{WithLimit(0)})
	if err != nil {
		t.Fatal(err)
	}
	c.apply(&cfg)
	if cfg.Limit != 0 {
		t.Errorf("WithLimit(0): cfg.Limit = %d, want 0 (unlimited)", cfg.Limit)
	}
	// ...while a call that never mentions a limit keeps the default.
	cfg = host.Config{Limit: 100}
	c, err = resolveCall(nil)
	if err != nil {
		t.Fatal(err)
	}
	c.apply(&cfg)
	if cfg.Limit != 100 {
		t.Errorf("no WithLimit: cfg.Limit = %d, want the pre-set 100", cfg.Limit)
	}

	// Merge semantics: laid over a tenant default, the explicit zero wins,
	// and silence keeps the default.
	def, err := resolveCall([]MatchOption{WithLimit(5)})
	if err != nil {
		t.Fatal(err)
	}
	over, err := resolveCall([]MatchOption{WithLimit(0)})
	if err != nil {
		t.Fatal(err)
	}
	if m := over.over(def); !m.limitSet || m.limit != 0 {
		t.Errorf("WithLimit(0) over default: limit=%d set=%v, want 0/true", m.limit, m.limitSet)
	}
	var silent callOptions
	if m := silent.over(def); !m.limitSet || m.limit != 5 {
		t.Errorf("silence over default: limit=%d set=%v, want 5/true", m.limit, m.limitSet)
	}
}

// TestNegativeOptionValuesFailFast: resolveCall validates WithDelta up
// front, and the other numeric options must be symmetric. The regression:
// WithLimit(n<0) was silently normalised to "unlimited" and a negative
// WithTimeout was silently ignored by callContext, so a caller computing a
// remaining budget that went negative got an unbounded call instead of an
// error.
func TestNegativeOptionValuesFailFast(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  MatchOption
	}{
		{"WithLimit(-1)", WithLimit(-1)},
		{"WithTimeout(-1ns)", WithTimeout(-1)},
		{"WithWeight(0)", WithWeight(0)},
		{"WithWeight(-3)", WithWeight(-3)},
	} {
		_, err := resolveCall([]MatchOption{tc.opt})
		if err == nil {
			t.Errorf("%s accepted, want fast:-prefixed validation error", tc.name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "fast:") {
			t.Errorf("%s: error %q not fast:-prefixed", tc.name, err)
		}
	}

	// And like WithDelta, the failure happens before planning: no plan-cache
	// miss, no occupied slot, for a call that can never run.
	eng, err := NewEngine(engineTestGraph(), engineTestOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	q, _ := ldbc.QueryByName("q1")
	if _, err := eng.MatchContext(context.Background(), q, WithLimit(-7)); err == nil {
		t.Error("Engine.MatchContext(WithLimit(-7)) accepted")
	}
	if _, err := eng.MatchContext(context.Background(), q, WithTimeout(-time.Second)); err == nil {
		t.Error("Engine.MatchContext(WithTimeout(-1s)) accepted")
	}
	if hits, misses := eng.PlanCacheStats(); hits != 0 || misses != 0 {
		t.Errorf("invalid calls touched the plan cache: hits=%d misses=%d, want 0/0", hits, misses)
	}
	if eng.CachedPlans() != 0 {
		t.Errorf("invalid calls occupied %d plan-cache slots, want 0", eng.CachedPlans())
	}

	// AddGraph rejects invalid defaults the same way, naming the graph.
	r := NewRouter(RouterOptions{Workers: 1})
	if err := r.AddGraph("t", engineTestGraph(), engineTestOptions(1), WithTimeout(-time.Minute)); err == nil ||
		!strings.HasPrefix(err.Error(), "fast:") {
		t.Errorf("AddGraph with negative default timeout: err = %v, want fast:-prefixed error", err)
	}
}

// TestNegativeOptionsDeltaRejected: a negative Options.Delta is rejected at
// every entry point whether or not DeltaSet marks it. The regression: δ was
// range-checked only when DeltaSet was true or δ > 0, so a negative δ
// without DeltaSet was silently replaced by the variant's default.
func TestNegativeOptionsDeltaRejected(t *testing.T) {
	g := engineTestGraph()
	q, _ := ldbc.QueryByName("q1")
	for _, set := range []bool{false, true} {
		opts := &Options{Variant: VariantShare, Delta: -0.5, DeltaSet: set}
		if _, err := NewEngine(g, opts); err == nil || !strings.HasPrefix(err.Error(), "fast:") {
			t.Errorf("DeltaSet=%v: NewEngine err = %v, want fast:-prefixed error", set, err)
		}
		r := NewRouter(RouterOptions{Workers: 1})
		if err := r.AddGraph("t", g, opts); err == nil || !strings.HasPrefix(err.Error(), "fast:") {
			t.Errorf("DeltaSet=%v: Router.AddGraph err = %v, want fast:-prefixed error", set, err)
		}
		if _, err := MatchContext(context.Background(), q, g, opts); err == nil || !strings.HasPrefix(err.Error(), "fast:") {
			t.Errorf("DeltaSet=%v: MatchContext err = %v, want fast:-prefixed error", set, err)
		}
	}
}
