package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsEvenlySpacedSeededAndDealt(t *testing.T) {
	const rate, seconds = 100.0, 30.0
	reqs, deltas := schedule(rand.New(rand.NewSource(42)), rate, seconds, fullSweep)
	if len(reqs) != 3000 {
		t.Fatalf("%d arrivals, want rate*seconds = 3000", len(reqs))
	}
	nDelta := 0
	for i, r := range reqs {
		if want := time.Duration(i) * 10 * time.Millisecond; r.due != want {
			t.Fatalf("arrival %d due %v, want %v", i, r.due, want)
		}
		switch r.kind {
		case kindDelta:
			if r.delta != nDelta || r.tenant != hotTenant {
				t.Fatalf("arrival %d: delta %d on %s, want delta %d on hot", i, r.delta, r.tenant, nDelta)
			}
			nDelta++
		case kindMatch:
			if fullSweep[r.query] != subQuery {
				t.Fatalf("arrival %d: /match asks %s", i, fullSweep[r.query])
			}
		}
	}
	if nDelta != deltas {
		t.Errorf("schedule reports %d deltas, holds %d", deltas, nDelta)
	}
	// Every deck holds the same arrivals, whatever the seed: 4% deltas, 10%
	// /match, the /count reads even over the queries, a fifth of the reads
	// of every shape on cold.
	for at := 0; at < len(reqs); at += deckSize {
		var nDelta, nMatch, coldMatch int
		count, cold := make([]int, len(fullSweep)), make([]int, len(fullSweep))
		for _, r := range reqs[at : at+deckSize] {
			switch r.kind {
			case kindDelta:
				nDelta++
			case kindMatch:
				nMatch++
				if r.tenant == coldTenant {
					coldMatch++
				}
			default:
				count[r.query]++
				if r.tenant == coldTenant {
					cold[r.query]++
				}
			}
		}
		if nDelta != 10 || nMatch != 25 || coldMatch != 5 {
			t.Fatalf("deck at %d: %d deltas, %d /match (%d on cold); want 10, 25 (5)", at, nDelta, nMatch, coldMatch)
		}
		for q := range count {
			if count[q] != 43 || cold[q] != 8 {
				t.Fatalf("deck at %d: %s counted %d times, %d on cold; want 43, 8", at, fullSweep[q], count[q], cold[q])
			}
		}
	}

	again, _ := schedule(rand.New(rand.NewSource(42)), rate, seconds, fullSweep)
	if !reflect.DeepEqual(reqs, again) {
		t.Error("the same seed gave another schedule")
	}
	other, _ := schedule(rand.New(rand.NewSource(43)), rate, seconds, fullSweep)
	if reflect.DeepEqual(reqs, other) {
		t.Error("another seed gave the same schedule")
	}
	if short, _ := schedule(rand.New(rand.NewSource(42)), rate, 1, fullSweep); len(short) != 100 {
		t.Errorf("a 1 s schedule holds %d arrivals, want 100", len(short))
	}
}

// A server slower than the arrival rate must show up as latency that grows
// from request to request, because each is timed from when it was due, and
// not as generator lag, because the generator never waits for a reply.
func TestOpenLoopTimesFromDueAndKeepsTheGeneratorOnTime(t *testing.T) {
	const n, spacing, service = 20, 5 * time.Millisecond, 15 * time.Millisecond
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i].due = time.Duration(i) * spacing
	}
	out := openLoop(reqs, 1, func(_, i int) (bool, int64, int) {
		time.Sleep(service)
		return true, int64(i), 0
	})
	last := out[n-1]
	// One connection, 15 ms each: the last request cannot finish before
	// n*service, 200 ms after it was due at the earliest.
	if fromDue := last.done - reqs[n-1].due; fromDue < (n*service - (n-1)*spacing) {
		t.Errorf("last request's latency from due time %v, want at least %v", fromDue, n*service-(n-1)*spacing)
	}
	if fromSent := last.done - last.sent; fromSent > 10*service {
		t.Errorf("last request's service time %v: the queue wait leaked into it", fromSent)
	}
	var lags []float64
	for i, o := range out {
		if !o.ok || o.count != int64(i) {
			t.Fatalf("request %d: outcome %+v", i, o)
		}
		if o.lag < 0 {
			t.Errorf("request %d released %v before it was due", i, -o.lag)
		}
		lags = append(lags, ms(o.lag))
	}
	// The generator only sleeps and enqueues; 50 ms would mean it waited for
	// the server (generous: the box this runs on stalls for milliseconds).
	if med := median(lags); med > 50 {
		t.Errorf("median generator lag %.1f ms: the generator is waiting for replies", med)
	}
}
