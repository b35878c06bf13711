package fpgasim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestConfigValidateRejectsBadValues(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.ClockMHz = 0 },
		func(c *Config) { c.BRAMLatency = 0 },
		func(c *Config) { c.DRAMLatency = 0 }, // < BRAMLatency
		func(c *Config) { c.BRAMBytes = 0 },
		func(c *Config) { c.PortMax = 0 },
		func(c *Config) { c.No = 0 },
		func(c *Config) { c.DRAMBurstBytes = 0 },
		func(c *Config) { c.PCIeGBps = 0 },
	}
	for i, mod := range mods {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCyclesToDuration(t *testing.T) {
	cfg := DefaultConfig() // 300 MHz → 300e6 cycles per second
	if got := cfg.CyclesToDuration(300_000_000); got != time.Second {
		t.Errorf("300M cycles = %v, want 1s", got)
	}
	if got := cfg.CyclesToDuration(300); got != time.Microsecond {
		t.Errorf("300 cycles = %v, want 1µs", got)
	}
}

func TestLoadCyclesAndPCIe(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.LoadCycles(0); got != 0 {
		t.Errorf("LoadCycles(0) = %d", got)
	}
	if got := cfg.LoadCycles(64); got != 1 {
		t.Errorf("LoadCycles(64) = %d, want 1", got)
	}
	if got := cfg.LoadCycles(65); got != 2 {
		t.Errorf("LoadCycles(65) = %d, want 2", got)
	}
	// 16 GB/s → 16 bytes per ns.
	if got := cfg.PCIeDuration(16_000_000_000); got != time.Second {
		t.Errorf("PCIe 16GB = %v, want 1s", got)
	}
}

func TestEdgeProbeII(t *testing.T) {
	cfg := DefaultConfig()
	if ii := cfg.EdgeProbeII(10); ii != 1 {
		t.Errorf("II(10) = %d, want 1", ii)
	}
	if ii := cfg.EdgeProbeII(cfg.PortMax); ii != 1 {
		t.Errorf("II(PortMax) = %d, want 1", ii)
	}
	if ii := cfg.EdgeProbeII(cfg.PortMax + 1); ii != 2 {
		t.Errorf("II(PortMax+1) = %d, want 2", ii)
	}
}

func TestModuleCycles(t *testing.T) {
	m := Module{Depth: 3, II: 1}
	if got := m.Cycles(0); got != 0 {
		t.Errorf("idle module cost %d", got)
	}
	if got := m.Cycles(10); got != 13 {
		t.Errorf("Cycles(10) = %d, want 13", got)
	}
	slow := Module{Depth: 3, II: 8}
	if got := slow.Cycles(10); got != 83 {
		t.Errorf("DRAM Cycles(10) = %d, want 83", got)
	}
}

func TestSerialAndConcurrent(t *testing.T) {
	if got := Serial(1, 2, 3); got != 6 {
		t.Errorf("Serial = %d", got)
	}
	if got := Concurrent(1, 5, 3); got != 5 {
		t.Errorf("Concurrent = %d", got)
	}
	if got := Concurrent(); got != 0 {
		t.Errorf("Concurrent() = %d", got)
	}
}

// Property: concurrent composition never exceeds serial composition — the
// basis of the paper's ≤50%/≤33% improvement caps.
func TestConcurrentLeqSerialProperty(t *testing.T) {
	check := func(a, b, c uint16) bool {
		x, y, z := int64(a), int64(b), int64(c)
		return Concurrent(x, y, z) <= Serial(x, y, z)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestDeviceResourceAccounting(t *testing.T) {
	d, err := NewDevice(0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.StageDRAM(d.Cfg.DRAMBytes + 1); err == nil {
		t.Error("DRAM overflow accepted")
	}
	dur, err := d.StageDRAM(1 << 20)
	if err != nil || dur <= 0 {
		t.Errorf("StageDRAM: %v, %v", dur, err)
	}
	d.ReleaseDRAM(1 << 20)
	d.RunKernel(3000)
	if d.Cycles() != 3000 || d.Busy() <= 0 {
		t.Errorf("kernel accounting: %v", d)
	}
	if _, err := NewDevice(0, Config{}); err == nil {
		t.Error("NewDevice accepted zero config")
	}
}

// Staging a piece on a card with no fault injector allocates nothing: the
// host stages one piece per kernel launch.
func TestStageDRAMAllocsWithoutInjector(t *testing.T) {
	d, err := NewDevice(3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := d.StageDRAM(1 << 10); err != nil {
			t.Fatal(err)
		}
		d.ReleaseDRAM(1 << 10)
	}); n != 0 {
		t.Errorf("StageDRAM allocates %v times per call without an injector; want 0", n)
	}
}
