// Package fpgasim is the FPGA substrate this reproduction substitutes for
// the paper's Alveo U200 card. It models the device at the transaction
// level: pipelined modules with a fill depth and an initiation interval,
// composed serially or concurrently (Eq. 1–4), BRAM (1-cycle) versus DRAM
// (≈8-cycle) reads, burst DRAM→BRAM loads, PCIe transfers and the port
// budget of partitioned arrays. The FAST kernel (package core) performs the real enumeration work
// while charging cycles to this model, so the reported FPGA time follows
// exactly the cycle equations (1)–(4) the paper derives.
package fpgasim

import (
	"fmt"
	"time"
)

// Config describes one FPGA card. The defaults mirror the paper's setup
// (Section VII): an Alveo U200 at 300 MHz with 35 MB of BRAM and 64 GB of
// DRAM, attached over PCIe gen3×16.
type Config struct {
	// ClockMHz is the kernel clock. The paper quotes 300 MHz and stresses
	// FPGAs run ~10× slower than CPUs, so pipelining must make up for it.
	ClockMHz float64
	// BRAMLatency and DRAMLatency are read latencies in cycles (1 vs 7–8
	// in Section V-B); their ratio drives the Fig. 7 experiment.
	BRAMLatency int
	DRAMLatency int
	// BRAMBytes is the on-chip memory budget shared by the CST partition
	// and the partial-results buffer.
	BRAMBytes int64
	// DRAMBytes is the off-chip capacity (CST staging + result flush).
	DRAMBytes int64
	// PortMax is the maximum number of access ports an array partition can
	// expose; adjacency lists longer than PortMax cannot be probed in one
	// cycle (Section VI-A), which is why the partitioner bounds D_CST.
	PortMax int
	// No is the maximum number of partial results expanded per round
	// (Section VI-B); the buffer reserves (|V(q)|−1)·No slots.
	No int
	// DRAMBurstBytes is how many bytes one burst cycle moves when loading
	// a CST partition from DRAM into BRAM.
	DRAMBurstBytes int64
	// PCIeGBps is host→card bandwidth for offloading CST partitions.
	PCIeGBps float64

	// Module fill depths (pipeline latency before the first item emerges),
	// one per Algorithm 5–8 stage; Section VI-B's L1..L6.
	DepthRead     int64 // L1: read from the intermediate results buffer
	DepthGen      int64 // L2: generate a partial result po and its tv
	DepthVisited  int64 // L3: process tv
	DepthCollect  int64 // L4: collect po
	DepthTnGen    int64 // L5: generate a tn
	DepthEdge     int64 // L6: process tn
	RoundOverhead int64 // per-round control overhead (loop restart, next-level select)
}

// DefaultConfig returns the U200-like configuration used throughout the
// experiments.
func DefaultConfig() Config {
	return Config{
		ClockMHz:       300,
		BRAMLatency:    1,
		DRAMLatency:    8,
		BRAMBytes:      35 << 20,
		DRAMBytes:      64 << 30,
		PortMax:        512,
		No:             4096,
		DRAMBurstBytes: 64,
		PCIeGBps:       16,
		DepthRead:      2,
		DepthGen:       3,
		DepthVisited:   2,
		DepthCollect:   2,
		DepthTnGen:     2,
		DepthEdge:      4,
		RoundOverhead:  4,
	}
}

// Validate rejects configurations the hardware could not realise.
func (c Config) Validate() error {
	switch {
	case c.ClockMHz <= 0:
		return fmt.Errorf("fpgasim: clock %v MHz", c.ClockMHz)
	case c.BRAMLatency < 1 || c.DRAMLatency < c.BRAMLatency:
		return fmt.Errorf("fpgasim: latencies BRAM=%d DRAM=%d", c.BRAMLatency, c.DRAMLatency)
	case c.BRAMBytes <= 0 || c.DRAMBytes <= 0:
		return fmt.Errorf("fpgasim: memory sizes BRAM=%d DRAM=%d", c.BRAMBytes, c.DRAMBytes)
	case c.PortMax < 1:
		return fmt.Errorf("fpgasim: PortMax=%d", c.PortMax)
	case c.No < 1:
		return fmt.Errorf("fpgasim: No=%d", c.No)
	case c.DRAMBurstBytes < 1:
		return fmt.Errorf("fpgasim: DRAMBurstBytes=%d", c.DRAMBurstBytes)
	case c.PCIeGBps <= 0:
		return fmt.Errorf("fpgasim: PCIeGBps=%v", c.PCIeGBps)
	}
	return nil
}

// CyclesToDuration converts kernel cycles into wall time at the configured
// clock.
func (c Config) CyclesToDuration(cycles int64) time.Duration {
	return time.Duration(float64(cycles) / (c.ClockMHz * 1e6) * float64(time.Second))
}

// LoadCycles is the burst cost of moving bytes from DRAM into BRAM.
func (c Config) LoadCycles(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	return (bytes + c.DRAMBurstBytes - 1) / c.DRAMBurstBytes
}

// BufferBytes is the on-chip size of the partial-results buffer for a query
// of nq vertices (Section VI-B): (nq−1) levels of No slots, each holding nq
// 4-byte mapped ids plus a 4-byte cursor.
func (c Config) BufferBytes(nq int) int64 {
	return int64(nq-1) * int64(c.No) * int64(nq*4+4)
}

// PCIeDuration is the host-side cost of shipping bytes to the card.
func (c Config) PCIeDuration(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / (c.PCIeGBps * 1e9) * float64(time.Second))
}

// EdgeProbeII returns the initiation interval of the Edge Validator for a
// CST whose longest candidate adjacency list is maxDeg: one cycle when the
// partitioned array's ports cover the list, ⌈maxDeg/PortMax⌉ otherwise
// (the graceful fallback for unsplittable CSTs).
func (c Config) EdgeProbeII(maxDeg int) int64 {
	if maxDeg <= c.PortMax {
		return 1
	}
	return int64((maxDeg + c.PortMax - 1) / c.PortMax)
}
