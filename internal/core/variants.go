package core

import (
	"fastmatch/internal/fpgasim"
)

// timing charges the per-round cycle cost of each variant, following the
// cycle analysis of Section VI-B/C/D. With r buffer pops, n new partial
// results and m edge-validation tasks in a round:
//
//	BASIC (Eq. 2): read(r) + gen(n) + visited(n) + collect(n)
//	               + tnGen(m) + edge(m)                       [serial]
//	TASK (Eq. 3):  read(r) + max(gen(n), visited(n))
//	               + max(tnGen(m), edge(m), collect(n))       [FIFO groups]
//	SEP  (Eq. 4):  max(read(r), gen(n), visited(n))
//	               + max(tnGen(m), edge(m), collect(n))       [split generators]
//	DRAM (Eq. 1):  BASIC composition with CST reads at DRAM latency
//	               and no initial BRAM load.
//
// With m ≈ n these give ≈6n, ≈3n and ≈2n per round: TASK's ≤50% gain over
// BASIC and SEP's ≤33% gain over TASK, the caps the paper derives.
type timing struct {
	variant Variant
	read    fpgasim.Module
	gen     fpgasim.Module
	visited fpgasim.Module
	collect fpgasim.Module
	tnGen   fpgasim.Module
	edge    fpgasim.Module
	over    int64
}

// newTiming derives module parameters from the device configuration. The
// Generator and Edge Validator touch the CST, so their initiation intervals
// depend on where the CST lives: BRAM (II = 1, or ⌈D_CST/PortMax⌉ for
// over-long adjacency lists) versus DRAM (II = DRAM latency).
func newTiming(v Variant, cfg fpgasim.Config, maxCandDeg int) *timing {
	genII := int64(cfg.BRAMLatency)
	edgeII := cfg.EdgeProbeII(maxCandDeg) * int64(cfg.BRAMLatency)
	if v == VariantDRAM {
		genII = int64(cfg.DRAMLatency)
		edgeII = cfg.EdgeProbeII(maxCandDeg) * int64(cfg.DRAMLatency)
	}
	return &timing{
		variant: v,
		read:    fpgasim.Module{Depth: cfg.DepthRead, II: 1},
		gen:     fpgasim.Module{Depth: cfg.DepthGen, II: genII},
		visited: fpgasim.Module{Depth: cfg.DepthVisited, II: 1},
		collect: fpgasim.Module{Depth: cfg.DepthCollect, II: 1},
		tnGen:   fpgasim.Module{Depth: cfg.DepthTnGen, II: 1},
		edge:    fpgasim.Module{Depth: cfg.DepthEdge, II: edgeII},
		over:    cfg.RoundOverhead,
	}
}

// chargeRound returns one round's cycles under the variant's composition.
// knn is the number of non-tree neighbours checked for the current vertex:
// the tn-generation outer loop (Algorithm 5 lines 10–12) cannot be
// pipelined across neighbours, so it restarts its fill depth knn times.
//
// The buffer-read module is charged per generated partial result (the
// paper's L1·N term — each po requires reading its parent's state), not per
// pop; this is what makes the closed forms come out as Eq. 2 = 4N+2M,
// Eq. 3 = 2N+max(N,M) and Eq. 4 = N+max(N,M), with the exact ≤50% and
// ≤33% optimisation caps.
func (t *timing) chargeRound(n, m int64, knn int) int64 {
	read := t.read.Cycles(n)
	gen := t.gen.Cycles(n)
	vis := t.visited.Cycles(n)
	col := t.collect.Cycles(n)
	var tng int64
	if knn > 0 && n > 0 {
		// knn pipelined inner loops of n items each: knn·Depth + m.
		tng = int64(knn)*t.tnGen.Depth + t.tnGen.II*m
	}
	edg := t.edge.Cycles(m)

	var total int64
	switch t.variant {
	case VariantDRAM, VariantBasic:
		total = fpgasim.Serial(read, gen, vis, col, tng, edg)
	case VariantTask:
		total = fpgasim.Serial(
			read,
			fpgasim.Concurrent(gen, vis),
			fpgasim.Concurrent(tng, edg, col),
		)
	case VariantSep:
		total = fpgasim.Serial(
			fpgasim.Concurrent(read, gen, vis),
			fpgasim.Concurrent(tng, edg, col),
		)
	}
	return total + t.over
}
