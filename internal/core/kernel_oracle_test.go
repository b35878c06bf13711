package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fastmatch/graph"
	"fastmatch/internal/cst"
	"fastmatch/internal/fpgasim"
	"fastmatch/internal/order"
)

// referenceKernel drives a prepared runState with the per-candidate round:
// every generated candidate is visited-scanned, then probed against every
// check, and counted into the tallies one at a time. It is the oracle Run's
// short-side last level must match field for field and embedding for
// embedding.
type referenceKernel struct{ r *runState }

// referenceRun is Run with the per-candidate round. Like execute, it polls
// Cancel once before each round.
func referenceRun(c *cst.CST, o order.Order, opts Options) (Result, error) {
	r := new(runState)
	if err := r.init(c, o, opts); err != nil {
		return Result{}, err
	}
	loadCycles := r.timing.loadCycles(opts.Config, c.SizeBytes())
	r.cycles += loadCycles
	k := referenceKernel{r}
	for {
		if r.cancelled() {
			r.stopped = true
			break
		}
		d := r.deepestLevel()
		if d < 0 {
			break
		}
		k.round(d)
		if r.stopped {
			break
		}
	}
	return r.result(loadCycles), nil
}

func (k referenceKernel) round(d int) {
	r := k.r
	u := r.o[d]
	complete := d+1 == len(r.o)
	level := r.levels[d]
	maps, vmaps := r.scratch.maps, r.scratch.vmaps
	var (
		pops   int64
		nextLv []partial
		nPo    int64
		nTn    int64
	)
	if !complete {
		nextLv = r.levels[d+1][:0]
	}
	checkList := r.checks[d]
	candHere := r.candAt[d]
	checkPos := r.checkPos[d]
	checkStrat := r.checkStrat[d]
	checkRev := r.checkRev[d]
	checkBits := r.checkBits[d]
	slots := r.slotOf[d]
	marked := r.scratch.markedMj

	budget := int64(r.opts.Config.No)
	i := 0
	for i < len(level) && nPo < budget {
		p := &level[i]
		m := maps[p.off : int(p.off)+d]
		mv := vmaps[p.off : int(p.off)+d]
		for k := range checkList {
			mj := m[checkPos[k]]
			if checkStrat[k] == stratGallop {
				r.gallop[k] = gallopState{rl: checkRev[k].Neighbors(mj)}
				continue
			}
			slot := slots[k]
			if marked[slot] == mj {
				continue
			}
			bits := checkBits[k]
			if old := marked[slot]; old >= 0 {
				for _, cj := range checkRev[k].Neighbors(old) {
					bits[cj>>6] &^= 1 << (uint(cj) & 63)
				}
			}
			for _, cj := range checkRev[k].Neighbors(mj) {
				bits[cj>>6] |= 1 << (uint(cj) & 63)
			}
			marked[slot] = mj
		}
		cands := r.rootIdx
		if d > 0 {
			cands = r.parentAdj[d].Neighbors(m[r.parentPos[d]])
		}
		avail := cands[p.cur:]
		pops++
		space := budget - nPo
		take := int64(len(avail))
		resumed := false
		if take > space {
			take = space
			resumed = true
		}
		for _, ci := range avail[:take] {
			nPo++
			nTn += int64(len(checkList))
			v := candHere[ci]
			valid := true
			for _, w := range mv {
				if w == v {
					valid = false
					break
				}
			}
			if valid {
				for k := range checkList {
					if checkStrat[k] == stratBitset {
						if checkBits[k][ci>>6]&(1<<(uint(ci)&63)) == 0 {
							valid = false
							break
						}
						continue
					}
					if !r.gallop[k].probe(ci) {
						valid = false
						break
					}
				}
			}
			if !valid {
				continue
			}
			if complete {
				if !r.takeOne() {
					break
				}
				r.count++
				if r.opts.Collect || r.opts.Emit != nil {
					e := make(graph.Embedding, len(r.o))
					for pos, w := range mv {
						e[r.o[pos]] = w
					}
					e[u] = v
					if r.opts.Collect {
						r.collected = append(r.collected, e)
					}
					if r.opts.Emit != nil {
						r.opts.Emit(e)
					}
				}
				continue
			}
			off := r.mapBase[d+1] + len(nextLv)*(d+1)
			copy(maps[off:], m)
			copy(vmaps[off:], mv)
			maps[off+d] = ci
			vmaps[off+d] = v
			nextLv = append(nextLv, partial{off: int32(off)})
		}
		if r.stopped {
			break
		}
		if resumed {
			p.cur += int32(take)
			break
		}
		i++
	}
	r.levels[d] = append(level[:0], level[i:]...)
	if !complete {
		r.levels[d+1] = nextLv
	}
	r.rounds++
	r.partials += nPo
	r.edgeTasks += nTn
	r.pops += pops
	r.cycles += r.timing.chargeRound(nPo, nTn, len(checkList))
	if hw := r.resident(); hw > r.highWater {
		r.highWater = hw
	}
}

// emitTrace folds an Emit sequence into an order-sensitive digest, so runs
// with millions of embeddings compare without holding them.
type emitTrace struct {
	n   int64
	sum uint64
}

func (tr *emitTrace) emit(e graph.Embedding) {
	const prime = 1099511628211 // FNV-1a, one round per mapped vertex
	h := uint64(14695981039346656037)
	for _, v := range e {
		h = (h ^ uint64(v)) * prime
	}
	tr.n++
	tr.sum = (tr.sum ^ h) * prime
}

// oracleMode is one way a run is cut short (or not): a Take that refuses
// its n-th call, a Cancel that fires before round k+1, or neither.
type oracleMode struct {
	name   string
	refuse int64 // Take refuses call number refuse; 0 means no Take
	cancel int64 // Cancel fires once k rounds ran; 0 means no Cancel
}

// oracleCard is a modelled card and the variant the oracle runs on it.
type oracleCard struct {
	name    string
	variant Variant
	cfg     fpgasim.Config
}

// oracleCards are the two modelled cards the oracle runs on: the default
// card with the BRAM-resident SEP variant, and a 32 KiB card (No 32, so
// batches resume across many rounds) with the CST left in DRAM.
func oracleCards() []oracleCard {
	small := fpgasim.DefaultConfig()
	small.BRAMBytes = 32 << 10
	small.No = 32
	return []oracleCard{
		{"default/SEP", VariantSep, fpgasim.DefaultConfig()},
		{"32KiB/DRAM", VariantDRAM, small},
	}
}

// options wires one run on the card for mode, with fresh counters, a fresh
// Scratch and an Emit trace, so Run and the reference each start from the
// same state.
func (card oracleCard) options(collect bool, mode oracleMode, tr *emitTrace) Options {
	opts := Options{Variant: card.variant, Config: card.cfg, Collect: collect, Emit: tr.emit, Scratch: new(Scratch)}
	if mode.refuse > 0 {
		var taken int64
		opts.Take = func() bool { taken++; return taken < mode.refuse }
	}
	if mode.cancel > 0 {
		var polls int64
		opts.Cancel = func() bool { polls++; return polls > mode.cancel }
	}
	return opts
}

// requireSameAsReference runs c under o through Run and through the
// reference, uncut and in every mode derived from the uncut run's count and
// rounds, and fails on any differing Result field or Emit sequence.
func requireSameAsReference(t *testing.T, label string, c *cst.CST, o order.Order, card oracleCard, collect bool) {
	t.Helper()
	var fullTr emitTrace
	full, err := referenceRun(c, o, card.options(false, oracleMode{}, &fullTr))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	// A run with no Take, Collect or Emit takes the count-only path.
	bare, err := Run(c, o, Options{Variant: card.variant, Config: card.cfg})
	if err != nil {
		t.Fatalf("%s count-only: %v", label, err)
	}
	if !reflect.DeepEqual(bare, full) {
		t.Errorf("%s count-only: Result differs\n got  %+v\n want %+v", label, bare, full)
	}
	modes := []oracleMode{
		{name: "uncut"},
		{name: "refuse@1", refuse: 1},
		{name: "take-never-refuses", refuse: full.Count + 1},
	}
	if full.Count > 2 {
		modes = append(modes,
			oracleMode{name: fmt.Sprintf("refuse@%d", full.Count/2), refuse: full.Count / 2},
			oracleMode{name: fmt.Sprintf("refuse@%d", full.Count), refuse: full.Count})
	}
	if full.Rounds > 2 {
		modes = append(modes, oracleMode{name: fmt.Sprintf("cancel@%d", full.Rounds/2), cancel: full.Rounds / 2})
	}
	for _, mode := range modes {
		var gotTr, wantTr emitTrace
		got, err := Run(c, o, card.options(collect, mode, &gotTr))
		if err != nil {
			t.Fatalf("%s %s: %v", label, mode.name, err)
		}
		want, err := referenceRun(c, o, card.options(collect, mode, &wantTr))
		if err != nil {
			t.Fatalf("%s %s: reference: %v", label, mode.name, err)
		}
		if gotTr != wantTr {
			t.Errorf("%s %s: Emit sequence differs: %d embeddings (digest %x), want %d (digest %x)",
				label, mode.name, gotTr.n, gotTr.sum, wantTr.n, wantTr.sum)
		}
		// Collected embeddings are compared through the same digest; the
		// remaining fields must be equal as they stand.
		if gotC, wantC := digest(got.Embeddings), digest(want.Embeddings); gotC != wantC {
			t.Errorf("%s %s: Embeddings differ: %d (digest %x), want %d (digest %x)",
				label, mode.name, gotC.n, gotC.sum, wantC.n, wantC.sum)
		}
		got.Embeddings, want.Embeddings = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s: Result differs\n got  %+v\n want %+v", label, mode.name, got, want)
		}
	}
}

// digest folds a collected embedding list like an Emit sequence.
func digest(es []graph.Embedding) emitTrace {
	var tr emitTrace
	for _, e := range es {
		tr.emit(e)
	}
	return tr
}

// TestKernelMatchesReferenceRound: Run, whose last level walks each batch
// from its shortest list and charges the tallies per partial, must report
// exactly the Result and Emit sequence of the per-candidate reference — on
// LDBC q0–q8, on random power-law and uniform graphs with cyclic queries
// under path-based and random orders, on a dense one-label graph whose
// check slots take the bitset, on both cards, with Collect, with Take
// refusing the first, a middle and the last embedding, and with Cancel
// firing part-way.
func TestKernelMatchesReferenceRound(t *testing.T) {
	for _, base := range []int{150, 400} {
		g := ldbcGraph(base)
		for qi := 0; qi <= 8; qi++ {
			name := fmt.Sprintf("q%d", qi)
			c, o := ldbcPlan(t, g, name)
			for _, card := range oracleCards() {
				requireSameAsReference(t, fmt.Sprintf("base=%d/%s/%s", base, name, card.name), c, o, card, false)
			}
		}
	}

	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 40; trial++ {
		cfg := graph.GenConfig{
			NumVertices: 150 + rng.Intn(450),
			NumLabels:   2 + rng.Intn(3),
			AvgDegree:   3 + rng.Float64()*6,
			Seed:        int64(trial),
		}
		g := graph.RandomUniform(cfg)
		if trial%2 == 0 {
			g = graph.RandomPowerLaw(cfg)
		}
		nv := 3 + rng.Intn(4)
		var q *graph.Query
		for q == nil || q.NumEdges() < nv {
			q = graph.RandomConnectedQuery("rq", nv, 1+rng.Intn(4), g.NumLabels(), rng)
		}
		tr := order.BuildBFSTree(q, order.SelectRoot(q, g))
		c := cst.Build(q, g, tr)
		orders := []struct {
			name string
			o    order.Order
		}{
			{"path", order.PathBased(tr, c)},
			{"random", order.RandomConnected(tr, rng)},
		}
		for _, ord := range orders {
			for _, card := range oracleCards() {
				requireSameAsReference(t, fmt.Sprintf("random%d/%s/%s", trial, ord.name, card.name), c, ord.o, card, true)
			}
		}
	}

	// A dense one-label graph, whose average degree reaches
	// bitsetMinAvgDeg, so its check slots take the bitset strategy, which
	// neither LDBC nor the sparse random graphs above reach. At least one
	// run must lay out bitset words, or the case has stopped testing it.
	dense := graph.RandomUniform(graph.GenConfig{NumVertices: 120, NumLabels: 1, AvgDegree: bitsetMinAvgDeg + 8, Seed: 47})
	words := 0
	for _, q := range []*graph.Query{
		graph.MustQuery("dense-triangle", []graph.Label{0, 0, 0}, [][2]graph.QueryVertex{{0, 1}, {1, 2}, {2, 0}}),
		graph.MustQuery("dense-4clique", []graph.Label{0, 0, 0, 0},
			[][2]graph.QueryVertex{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}),
	} {
		tr := order.BuildBFSTree(q, order.SelectRoot(q, dense))
		c := cst.Build(q, dense, tr)
		orders := []order.Order{order.PathBased(tr, c)}
		if ro := order.RandomConnected(tr, rng); !slices.Equal(ro, orders[0]) {
			orders = append(orders, ro)
		}
		for _, o := range orders {
			for _, card := range oracleCards() {
				requireSameAsReference(t, fmt.Sprintf("%s/%v/%s", q.Name(), o, card.name), c, o, card, true)
				sc := new(Scratch)
				if _, err := Run(c, o, Options{Variant: card.variant, Config: card.cfg, Scratch: sc}); err != nil {
					t.Fatal(err)
				}
				words += len(sc.bitWords)
			}
		}
	}
	if words == 0 {
		t.Fatal("no dense run laid out bitset words: the oracle no longer reaches the bitset strategy")
	}
}
