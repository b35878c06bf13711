package core

import (
	"fmt"

	"fastmatch/graph"
	"fastmatch/internal/cst"
	"fastmatch/internal/fpgasim"
	"fastmatch/internal/order"
)

// Simulate runs the FAST kernel as a cycle-stepped discrete-event
// simulation of the hardware dataflow, instead of the closed-form cycle
// composition Run uses. Every module is stepped cycle by cycle; items move
// through bounded FIFOs with real backpressure (an Edge Validator whose
// initiation interval exceeds one — adjacency lists longer than the port
// budget — stalls the tn generator); the Synchronizer joins each partial
// result's visited and edge verdicts exactly as Algorithm 8 describes.
//
// Simulate exists to validate the analytic model: tests assert that (a) it
// finds exactly the same embeddings as Run, and (b) its measured cycles
// track Run's Eq. 2–4 composition within the fill-overhead tolerance. It is
// much slower than Run (it pays a Go loop per modelled cycle), so the
// experiment harness uses Run; Simulate is for verification and FIFO-sizing
// studies.
func Simulate(c *cst.CST, o order.Order, opts Options) (Result, error) {
	cfg := opts.Config
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := o.Validate(c.Tree); err != nil {
		return Result{}, fmt.Errorf("core: %v", err)
	}
	run := &runState{
		c:      c,
		o:      o,
		opts:   opts,
		pos:    o.PositionOf(),
		timing: newTiming(opts.Variant, cfg, c.MaxCandDegree()),
	}
	run.prepare()

	var loadCycles int64
	if opts.Variant != VariantDRAM {
		loadCycles = cfg.LoadCycles(c.SizeBytes())
		run.cycles += loadCycles
	}
	sim := &streamSim{runState: run}
	for {
		if run.cancelled() {
			run.stopped = true
			break
		}
		d := run.deepestLevel()
		if d < 0 {
			break
		}
		sim.simulateRound(d)
		if run.stopped {
			break
		}
	}
	flushCycles := cfg.LoadCycles(run.count * int64(len(o)) * 4)
	run.cycles += flushCycles

	res := Result{
		Count:           run.count,
		Embeddings:      run.collected,
		Cycles:          run.cycles,
		LoadCycles:      loadCycles,
		FlushCycles:     flushCycles,
		Rounds:          run.rounds,
		Partials:        run.partials,
		EdgeTasks:       run.edgeTasks,
		Pops:            run.pops,
		Stopped:         run.stopped,
		BufferHighWater: run.highWater,
	}
	res.Duration = cfg.CyclesToDuration(res.Cycles)
	return res, nil
}

// poItem is one expanded partial result travelling through the pipeline.
// edge starts true (conjunction identity over its tn tasks).
type poItem struct {
	parent      *partial
	ci          cst.CandIndex
	visitedOK   bool
	visitedDone bool
	edgeOK      bool
	edgeLeft    int
}

// tnTask is one edge-validation task (Algorithm 7's (v, vn, i) triple); k
// indexes the round's check list, so the validator probes the hoisted
// adjacency checkAdj[d][k] directly.
type tnTask struct {
	item *poItem
	k    int
}

// stage is a pipelined unit: it accepts one input every II cycles and makes
// the result visible depth cycles later.
type stage struct {
	ii, depth int64
	nextFree  int64
}

func (s *stage) canAccept(now int64) bool { return now >= s.nextFree }

func (s *stage) accept(now int64) int64 {
	s.nextFree = now + s.ii
	return now + s.depth
}

// delayed is a completion event emerging from a stage's pipeline.
type delayed[T any] struct {
	at   int64
	item T
}

// delayLine holds in-flight items ordered by completion time (entries are
// appended with monotonically non-decreasing timestamps).
type delayLine[T any] struct{ q []delayed[T] }

func (d *delayLine[T]) push(at int64, item T) { d.q = append(d.q, delayed[T]{at, item}) }

func (d *delayLine[T]) pop(now int64) (T, bool) {
	if len(d.q) == 0 || d.q[0].at > now {
		var zero T
		return zero, false
	}
	it := d.q[0].item
	d.q = d.q[1:]
	return it, true
}

func (d *delayLine[T]) empty() bool { return len(d.q) == 0 }

// streamSim steps one round's dataflow cycle by cycle.
type streamSim struct {
	*runState
}

func (r *streamSim) simulateRound(d int) {
	cfg := r.opts.Config
	u := r.o[d]
	complete := d+1 == len(r.o)
	checkList := r.checks[d]
	level := r.levels[d]

	// Phase A (functional): pop exactly what Run's round pops, honouring
	// the No budget and the resume cursor, so the buffer evolves
	// identically.
	var (
		pending []*poItem
		pops    int64
		nPo     int64
	)
	budget := int64(cfg.No)
	i := 0
	for i < len(level) && nPo < budget {
		p := &level[i]
		cands := r.candidatesOf(d, p)
		avail := cands[p.cur:]
		pops++
		space := budget - nPo
		take := int64(len(avail))
		resumed := take > space
		if resumed {
			take = space
		}
		// Copy the parent mapping: the level slice is compacted below,
		// which would otherwise overwrite the storage these items read
		// during the timed phase.
		parent := &partial{
			m:  append([]cst.CandIndex(nil), p.m...),
			mv: append([]graph.VertexID(nil), p.mv...),
		}
		for _, ci := range avail[:take] {
			pending = append(pending, &poItem{parent: parent, ci: ci, edgeOK: true, edgeLeft: len(checkList)})
		}
		nPo += take
		if resumed {
			p.cur += int32(take)
			break
		}
		i++
	}
	r.levels[d] = append(level[:0], level[i:]...)

	// Phase B (timed): stream the items through the six-stage pipeline.
	serial := r.opts.Variant == VariantDRAM || r.opts.Variant == VariantBasic
	taskVariant := r.opts.Variant == VariantTask

	rd := &stage{ii: 1, depth: r.timing.read.Depth}
	gen := &stage{ii: r.timing.gen.II, depth: r.timing.gen.Depth}
	vis := &stage{ii: 1, depth: r.timing.visited.Depth}
	tng := &stage{ii: 1, depth: r.timing.tnGen.Depth}
	edg := &stage{ii: r.timing.edge.II, depth: r.timing.edge.Depth}
	syn := &stage{ii: 1, depth: r.timing.collect.Depth}

	// tv / tn / sync are true hardware FIFOs (bounded except in the serial
	// variants, which buffer through BRAM arrays instead); tnIn models the
	// Po staging buffer in BRAM, which is sized for the whole round.
	cap := cfg.FIFODepth
	if serial {
		cap = 1 << 30
	}
	tvFIFO := fpgasim.NewFIFO[*poItem]("tv", 0)
	tnInFIFO := fpgasim.NewFIFO[*poItem]("tn-in", 0)
	tnFIFO := fpgasim.NewFIFO[tnTask]("tn", 0)
	syFIFO := fpgasim.NewFIFO[*poItem]("sync", 0)

	var rdOut delayLine[*poItem]
	var genOut delayLine[*poItem]
	var visOut delayLine[*poItem]
	var tngOut delayLine[tnTask]
	var edgOut delayLine[tnTask]
	var synOut delayLine[*poItem]

	var nextLv []partial
	if !complete {
		nextLv = r.levels[d+1][:0]
	}
	retire := func(it *poItem) {
		if !it.visitedOK || !it.edgeOK {
			return
		}
		if complete {
			// The timed pipeline still drains its in-flight items after a
			// refusal; they are simply no longer counted or stored.
			if r.stopped || !r.takeOne() {
				return
			}
			r.count++
			if r.opts.Collect || r.opts.Emit != nil {
				e := make(graph.Embedding, len(r.o))
				for pos2, w := range it.parent.mv {
					e[r.o[pos2]] = w
				}
				e[u] = r.candAt[d][it.ci]
				if r.opts.Collect {
					r.collected = append(r.collected, e)
				}
				if r.opts.Emit != nil {
					r.opts.Emit(e)
				}
			}
			return
		}
		m, mv := r.mapSlot(d+1, len(nextLv))
		copy(m, it.parent.m)
		copy(mv, it.parent.mv)
		m[d] = it.ci
		mv[d] = r.candAt[d][it.ci]
		nextLv = append(nextLv, partial{m: m, mv: mv})
	}
	// ready enqueues an item for the Synchronizer once both verdicts are in.
	ready := func(it *poItem) {
		if it.visitedDone && it.edgeLeft == 0 {
			must(syFIFO.Push(it))
		}
	}

	readIdx, genIdx, retired := 0, 0, 0
	var nTn int64
	now := int64(0)
	for retired < len(pending) {
		// Buffer read: fetch the next pending item's parent state (L1).
		if readIdx < len(pending) && rd.canAccept(now) {
			rdOut.push(rd.accept(now), pending[readIdx])
			readIdx++
		}
		// Generator: issue the next read item when its output FIFOs have
		// room (backpressure); serial variants wait for the read loop to
		// drain first.
		genGate := !serial || readIdx == len(pending)
		if genGate && len(rdOut.q) > 0 && rdOut.q[0].at <= now &&
			gen.canAccept(now) && tvFIFO.Len() < cap {
			it := rdOut.q[0].item
			rdOut.q = rdOut.q[1:]
			genOut.push(gen.accept(now), it)
			genIdx++
		}
		if it, ok := genOut.pop(now); ok {
			must(tvFIFO.Push(it))
			must(tnInFIFO.Push(it))
		}

		// Visited Validator: gated behind the Generator in the serial
		// variants (no FIFO decoupling there).
		if !serial || genIdx == len(pending) {
			if it, ok := tvFIFO.Peek(); ok && vis.canAccept(now) {
				tvFIFO.Pop()
				visOut.push(vis.accept(now), it)
			}
		}
		if it, ok := visOut.pop(now); ok {
			it.visitedOK = true
			v := r.candAt[d][it.ci]
			for _, w := range it.parent.mv {
				if w == v {
					it.visitedOK = false
					break
				}
			}
			it.visitedDone = true
			ready(it)
		}

		// tn Generator: in SEP it runs concurrently with the po generator
		// (it has its own copy of the stream); in TASK and the serial
		// variants it is the Generator's second loop, so it starts only
		// after po generation drains.
		tnGateOpen := !taskVariant && !serial || genIdx == len(pending)
		if tnGateOpen {
			if it, ok := tnInFIFO.Peek(); ok {
				if len(checkList) == 0 {
					tnInFIFO.Pop() // nothing to validate; join via visited path
				} else if tng.canAccept(now) && tnFIFO.Len()+len(checkList) <= cap {
					tnInFIFO.Pop()
					at := tng.accept(now)
					for k := range checkList {
						nTn++
						tngOut.push(at, tnTask{item: it, k: k})
					}
				}
			}
		}
		if t, ok := tngOut.pop(now); ok {
			must(tnFIFO.Push(t))
		}

		// Edge Validator: II > 1 (port-budget overflow or DRAM residence)
		// makes it the bottleneck and exercises FIFO backpressure.
		if !serial || genIdx == len(pending) {
			if t, ok := tnFIFO.Peek(); ok && edg.canAccept(now) {
				tnFIFO.Pop()
				edgOut.push(edg.accept(now), t)
			}
		}
		if t, ok := edgOut.pop(now); ok {
			it := t.item
			if !r.checkAdj[d][t.k].Has(it.ci, it.parent.m[r.checkPos[d][t.k]]) {
				it.edgeOK = false
			}
			it.edgeLeft--
			ready(it)
		}

		// Synchronizer.
		if it, ok := syFIFO.Peek(); ok && syn.canAccept(now) {
			syFIFO.Pop()
			synOut.push(syn.accept(now), it)
		}
		if it, ok := synOut.pop(now); ok {
			retire(it)
			retired++
		}
		if retired < len(pending) {
			now++
		}
	}

	if !complete {
		r.levels[d+1] = nextLv
	}
	r.rounds++
	r.partials += nPo
	r.edgeTasks += nTn
	r.pops += pops
	r.cycles += now + cfg.RoundOverhead
	if hw := r.resident(); hw > r.highWater {
		r.highWater = hw
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
