package host

import (
	"context"
	"testing"

	"fastmatch/internal/core"
	"fastmatch/internal/fpgasim"
	"fastmatch/ldbc"
)

func TestReportTransferAccounting(t *testing.T) {
	g := smallSocial(t)
	q, _ := ldbc.QueryByName("q5")
	rep, err := Match(context.Background(), q, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransferTime <= 0 {
		t.Error("no PCIe transfer time accounted")
	}
	if rep.CSTBytes <= 0 || rep.DataBytes <= 0 {
		t.Errorf("size accounting: CST=%d data=%d", rep.CSTBytes, rep.DataBytes)
	}
	if rep.KernelPartials <= 0 || rep.KernelRounds <= 0 {
		t.Errorf("kernel stats: %+v", rep)
	}
	// Total must compose the phases: at least build + partition.
	if rep.Total < rep.BuildTime+rep.PartitionTime {
		t.Errorf("Total %v below build+partition %v", rep.Total, rep.BuildTime+rep.PartitionTime)
	}
}

// TestWithDefaultsDerivesPartitionBudget: the partition threshold must
// leave room for the partial-results buffer within BRAM.
func TestWithDefaultsDerivesPartitionBudget(t *testing.T) {
	q, _ := ldbc.QueryByName("q7") // 7 vertices
	dev := fpgasim.DefaultConfig()
	cfg := Config{Device: dev}.withDefaults(q)
	buffer := int64(q.NumVertices()-1) * int64(dev.No) * int64(q.NumVertices()*4+4)
	if cfg.Partition.MaxSizeBytes != dev.BRAMBytes-buffer {
		t.Errorf("δS = %d, want BRAM−buffer = %d", cfg.Partition.MaxSizeBytes, dev.BRAMBytes-buffer)
	}
	if cfg.Partition.MaxCandDegree != dev.PortMax {
		t.Errorf("δD = %d, want PortMax %d", cfg.Partition.MaxCandDegree, dev.PortMax)
	}
	if cfg.Strategy != OrderPath || cfg.NumFPGAs != 1 {
		t.Errorf("defaults: %+v", cfg)
	}
}

// TestDRAMVariantEndToEnd: the host pipeline supports the DRAM baseline
// variant (needed by Fig. 7) and it is slower on the FPGA axis.
func TestDRAMVariantEndToEnd(t *testing.T) {
	g := smallSocial(t)
	q, _ := ldbc.QueryByName("q2")
	dram, err := Match(context.Background(), q, g, Config{Variant: core.VariantDRAM})
	if err != nil {
		t.Fatal(err)
	}
	sep, err := Match(context.Background(), q, g, Config{Variant: core.VariantSep})
	if err != nil {
		t.Fatal(err)
	}
	if dram.Embeddings != sep.Embeddings {
		t.Fatalf("counts differ: %d vs %d", dram.Embeddings, sep.Embeddings)
	}
	if dram.FPGATime <= sep.FPGATime {
		t.Errorf("DRAM FPGA time %v not slower than SEP %v", dram.FPGATime, sep.FPGATime)
	}
}

// TestTinyBRAMForcesPartitioning: shrinking the card splits the CST and
// still conserves counts (the Fig. 9 mechanism end to end).
func TestTinyBRAMForcesPartitioning(t *testing.T) {
	g := smallSocial(t)
	q, _ := ldbc.QueryByName("q1")
	big, err := Match(context.Background(), q, g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := fpgasim.DefaultConfig()
	dev.BRAMBytes = 32 << 10
	dev.No = 64
	small, err := Match(context.Background(), q, g, Config{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	if small.Embeddings != big.Embeddings {
		t.Errorf("counts differ: %d vs %d", small.Embeddings, big.Embeddings)
	}
	if small.NumPartitions <= big.NumPartitions {
		t.Errorf("tiny BRAM gave %d partitions vs %d", small.NumPartitions, big.NumPartitions)
	}
}
