// Package faultinject is a deterministic, seedable fault injector for the
// simulated CPU–FPGA pipeline. Sites — named call points such as one
// device's DRAM staging or the kernel launch — evaluate the injector on
// every call; rules decide, purely from the seed and the per-site call
// sequence, whether that call fails and how: a transient error the caller
// may retry, a one-shot device death, a worker panic, or a latency spike.
//
// Determinism is the point: the same seed and rule set against the same call
// sequence injects the same faults, so a chaos run that trips a bug replays
// byte-identically under -race or a debugger. A nil *Injector is inert and
// evaluates to "no fault" everywhere, which keeps the fault-free pipeline
// free of conditionals at the call sites.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the default error carried by a Transient outcome; injected
// failures wrap it, so errors.Is(err, ErrInjected) identifies synthetic
// faults regardless of the site message.
var ErrInjected = errors.New("faultinject: injected fault")

// Kind classifies what a matched rule does to the call.
type Kind int

const (
	// Transient fails the call with a retryable error; the device or kernel
	// is healthy again on the next attempt.
	Transient Kind = iota
	// Death permanently fails the component behind the site — a device
	// evaluating it marks itself failed and every later call on it fails.
	Death
	// Panic makes the call site panic, modelling a crashed worker; the
	// host's recover barriers must convert it into a typed error.
	Panic
)

// String names the kind for messages and specs.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Death:
		return "death"
	case Panic:
		return "panic"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Well-known sites. Device staging sites are per card (SiteDeviceStage);
// the kernel and CPU-enumeration sites are shared by all workers, so their
// call counters advance in submission order when the host pipeline runs its
// consumers inline (Workers <= 1) and in an interleaved (but still
// seed-deterministic per count) order when it fans them out.
const (
	// SiteKernel is evaluated once per kernel launch, before the kernel
	// does any work — an injected failure there never double-emits on
	// retry, because no embedding was produced yet.
	SiteKernel = "kernel"
	// SiteEnumerate is evaluated once per CPU δ-share partition drain.
	SiteEnumerate = "cpu/enumerate"
)

// SiteDeviceStage names card id's DRAM staging site.
func SiteDeviceStage(id int) string { return fmt.Sprintf("device%d/stage", id) }

// Rule is one fault schedule bound to a site. Trigger conditions (Nth,
// EveryNth, Rate) are OR-ed; a rule with none set never fires. The first
// matching rule per call wins.
type Rule struct {
	// Site this rule applies to (exact match).
	Site string
	// Kind of fault injected on a match.
	Kind Kind
	// Nth fires on these 1-based call numbers at the site.
	Nth []int64
	// EveryNth fires on every multiple of this call number (> 0).
	EveryNth int64
	// Rate fires with this probability per call, drawn from the rule's own
	// seed-derived stream (so two rules at one site stay independent).
	Rate float64
	// Once limits the rule to a single firing — the natural shape for a
	// Death schedule.
	Once bool
	// Delay is added to the modelled call latency on a match (and also on
	// its own, with Kind Transient and Err nil left zero: a pure latency
	// spike is a matched rule whose outcome carries only Delay — callers
	// treat a zero-Err Transient outcome with a Delay as slow, not failed).
	Delay time.Duration
	// Err overrides the transient error returned (default wraps
	// ErrInjected).
	Err error
}

// Outcome is one site evaluation's verdict.
type Outcome struct {
	// Fault is set when a rule matched and carries a failure (Transient
	// with an error, Death, or Panic). A pure latency spike has Fault false
	// and Delay set.
	Fault bool
	Kind  Kind
	// Delay is modelled extra latency, independent of Fault.
	Delay time.Duration
	err   error
	site  string
}

// Error returns the transient error for a faulted outcome.
func (o Outcome) Error() error {
	if !o.Fault {
		return nil
	}
	if o.err != nil {
		return o.err
	}
	return fmt.Errorf("faultinject: site %s: %w", o.site, ErrInjected)
}

// Injector evaluates rules against per-site call counters. Safe for
// concurrent use; a nil Injector is valid and always returns the zero
// Outcome.
type Injector struct {
	mu     sync.Mutex
	counts map[string]int64
	rules  []*ruleState
	// evals counts total evaluations; faults counts matched firings.
	evals, faults int64
}

type ruleState struct {
	Rule
	rng   *rand.Rand
	fired bool
}

// New builds an Injector from a seed and rules. Each rule draws its Rate
// stream from a generator seeded by (seed, rule index), so adding a rule
// never perturbs another rule's schedule.
func New(seed int64, rules ...Rule) *Injector {
	in := &Injector{counts: make(map[string]int64)}
	for i, r := range rules {
		in.rules = append(in.rules, &ruleState{
			Rule: r,
			rng:  rand.New(rand.NewSource(seed ^ (int64(i+1) * 0x517cc1b727220a95))),
		})
	}
	return in
}

// Eval advances site's call counter and returns the first matching rule's
// outcome, or the zero Outcome. A matched DelayOnly rule (Transient kind,
// nil Err, Delay set) is a pure latency spike: the outcome carries the
// Delay with Fault false, so the call runs slow but succeeds. To inject a
// failing transient that is also slow, set Err (ErrInjected works) alongside
// Delay.
func (in *Injector) Eval(site string) Outcome {
	if in == nil {
		return Outcome{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.evals++
	in.counts[site]++
	n := in.counts[site]
	for _, r := range in.rules {
		if r.Site != site || (r.Once && r.fired) {
			continue
		}
		if !r.matches(n) {
			continue
		}
		r.fired = true
		in.faults++
		out := Outcome{Kind: r.Kind, Delay: r.Delay, err: r.Err, site: site}
		if r.DelayOnly() {
			// Latency spike: slow, not failed.
			in.faults--
			return out
		}
		out.Fault = true
		return out
	}
	return Outcome{}
}

// matches applies the rule's trigger conditions to call number n.
func (r *ruleState) matches(n int64) bool {
	for _, k := range r.Nth {
		if k == n {
			return true
		}
	}
	if r.EveryNth > 0 && n%r.EveryNth == 0 {
		return true
	}
	if r.Rate > 0 && r.rng.Float64() < r.Rate {
		return true
	}
	return false
}

// DelayOnly reports whether the rule is a pure latency spike: it carries a
// Delay, injects no error of its own, and asks for the benign Transient
// kind — the call slows down but succeeds.
func (r Rule) DelayOnly() bool {
	return r.Delay > 0 && r.Kind == Transient && r.Err == nil
}

// Stats reports total evaluations and fault firings, for reports and tests.
func (in *Injector) Stats() (evals, faults int64) {
	if in == nil {
		return 0, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.evals, in.faults
}

// Count returns site's current call count (how many Evals it has seen).
func (in *Injector) Count(site string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[site]
}
