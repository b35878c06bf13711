package core

import (
	"fmt"

	"fastmatch/internal/fpgasim"
)

// Variant selects the hardware implementation being modelled.
type Variant int

const (
	// VariantSep is the zero value and the default: task parallelism plus
	// split tv/tn generators feeding duplicated FIFOs (Fig. 5(c), Eq. 4) —
	// the paper's final kernel configuration.
	VariantSep Variant = iota
	// VariantDRAM fetches the CST from card DRAM on every access, with no
	// other optimisation (the FAST-DRAM baseline of Fig. 7).
	VariantDRAM
	// VariantBasic loads the CST into BRAM and runs the modules serially
	// (Fig. 5(a), Eq. 2).
	VariantBasic
	// VariantTask adds task parallelism: modules stream through FIFOs and
	// execute concurrently (Fig. 5(b), Eq. 3).
	VariantTask
)

// String names the variant the way the paper does.
func (v Variant) String() string {
	switch v {
	case VariantDRAM:
		return "FAST-DRAM"
	case VariantBasic:
		return "FAST-BASIC"
	case VariantTask:
		return "FAST-TASK"
	case VariantSep:
		return "FAST-SEP"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants lists all kernel variants in ascending optimisation order.
func Variants() []Variant {
	return []Variant{VariantDRAM, VariantBasic, VariantTask, VariantSep}
}

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
	// bramResident is whether the CST is loaded into BRAM before the first
	// round: every variant but FAST-DRAM, which reads it from DRAM instead.
	bramResident bool
	read         fpgasim.Module
	gen          fpgasim.Module
	visited      fpgasim.Module
	collect      fpgasim.Module
	tnGen        fpgasim.Module
	edge         fpgasim.Module
	over         int64
}

// newTiming derives module parameters from the device configuration. The
// Generator and Edge Validator touch the CST, so their initiation intervals
// depend on where the CST lives: BRAM (II = 1, or ⌈D_CST/PortMax⌉ for
// over-long adjacency lists) versus DRAM (II = DRAM latency).
func newTiming(v Variant, cfg fpgasim.Config, maxCandDeg int) timing {
	bramResident := v != VariantDRAM
	latency := int64(cfg.DRAMLatency)
	if bramResident {
		latency = int64(cfg.BRAMLatency)
	}
	return timing{
		variant:      v,
		bramResident: bramResident,
		read:         fpgasim.Module{Depth: cfg.DepthRead, II: 1},
		gen:          fpgasim.Module{Depth: cfg.DepthGen, II: latency},
		visited:      fpgasim.Module{Depth: cfg.DepthVisited, II: 1},
		collect:      fpgasim.Module{Depth: cfg.DepthCollect, II: 1},
		tnGen:        fpgasim.Module{Depth: cfg.DepthTnGen, II: 1},
		edge:         fpgasim.Module{Depth: cfg.DepthEdge, II: cfg.EdgeProbeII(maxCandDeg) * latency},
		over:         cfg.RoundOverhead,
	}
}

// admit is the on-chip resource check (Section VI-B's buffer sizing): a
// BRAM-resident CST must fit beside the partial-results buffer of an
// nq-vertex query; otherwise only the buffer must fit.
func (t *timing) admit(cfg fpgasim.Config, cstBytes int64, nq int) error {
	bufferBytes := cfg.BufferBytes(nq)
	if !t.bramResident {
		if bufferBytes > cfg.BRAMBytes {
			return fmt.Errorf("core: partial-results buffer (%d B) exceeds BRAM (%d B); lower No", bufferBytes, cfg.BRAMBytes)
		}
		return nil
	}
	if cstBytes+bufferBytes > cfg.BRAMBytes {
		return fmt.Errorf("core: CST (%d B) + buffer (%d B) exceed BRAM (%d B); partition the CST",
			cstBytes, bufferBytes, cfg.BRAMBytes)
	}
	return nil
}

// loadCycles is the initial DRAM→BRAM burst of a cstBytes partition, which
// a CST left in DRAM never pays.
func (t *timing) loadCycles(cfg fpgasim.Config, cstBytes int64) int64 {
	if !t.bramResident {
		return 0
	}
	return cfg.LoadCycles(cstBytes)
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
