package fpgasim

import (
	"errors"
	"fmt"
	"time"

	"fastmatch/internal/faultinject"
)

// ErrDeviceFailed reports an operation against a dead card. Errors returned
// by a failed Device wrap it, so errors.Is(err, ErrDeviceFailed) identifies
// device loss regardless of the message. Device death is permanent for the
// card (Healthy stays false until Revive); the host degrades by moving the
// card's queued partitions to surviving devices or the CPU share.
var ErrDeviceFailed = errors.New("fpgasim: device failed")

// ErrTransient reports a transient, retryable device fault (an injected
// PCIe hiccup). The host retries these under its RetryPolicy; the card is
// healthy again on the next attempt.
var ErrTransient = errors.New("fpgasim: transient device fault")

// Device models one FPGA card: a cycle counter and a DRAM staging area. The
// host scheduler owns one Device per card (the multi-FPGA extension of
// Section VII-E hands CSTs to the device with the least accumulated work).
//
// A Device also models failure: Fail marks the card dead — every staging
// call after that returns an error wrapping ErrDeviceFailed — and the
// optional fault Injector turns staging calls into scheduled transient
// faults, latency spikes or one-shot deaths, deterministically per seed.
type Device struct {
	ID  int
	Cfg Config
	// Faults, when non-nil, is evaluated on every StageDRAM call at site
	// faultinject.SiteDeviceStage(ID). nil injects nothing.
	Faults *faultinject.Injector

	cycles    int64
	busy      time.Duration // accumulated kernel busy time
	dramUsed  int64
	transfers int64 // bytes shipped over PCIe
	kernels   int   // CST partitions processed
	aborts    int   // kernel executions the host cancelled mid-flight
	failed    bool  // dead card: staging fails until Revive
}

// NewDevice creates a Device with the given configuration.
func NewDevice(id int, cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Device{ID: id, Cfg: cfg}, nil
}

// StageDRAM accounts a CST partition arriving in card DRAM over PCIe and
// returns the host-side transfer duration. A dead card fails with an error
// wrapping ErrDeviceFailed; an injected transient fault fails with one
// wrapping ErrTransient (retryable); an injected latency spike adds its
// delay to the modelled transfer time. The caller must serialize calls per
// device (the host does: sequentially, or under its device mutex).
func (d *Device) StageDRAM(bytes int64) (time.Duration, error) {
	if d.failed {
		return 0, fmt.Errorf("fpgasim: device %d: %w", d.ID, ErrDeviceFailed)
	}
	// The site name is formatted only when an injector is installed; with
	// none, staging a piece allocates nothing.
	var out faultinject.Outcome
	if d.Faults != nil {
		out = d.Faults.Eval(faultinject.SiteDeviceStage(d.ID))
	}
	if out.Fault {
		switch out.Kind {
		case faultinject.Death:
			d.failed = true
			return 0, fmt.Errorf("fpgasim: device %d died staging %d bytes: %w", d.ID, bytes, ErrDeviceFailed)
		default:
			// Device sites model hardware, which fails rather than panics:
			// a Panic rule scheduled here degrades to a transient fault.
			return 0, fmt.Errorf("fpgasim: device %d staging %d bytes: %w (%w)", d.ID, bytes, ErrTransient, out.Error())
		}
	}
	if d.dramUsed+bytes > d.Cfg.DRAMBytes {
		return 0, fmt.Errorf("fpgasim: DRAM overflow: %d + %d > %d", d.dramUsed, bytes, d.Cfg.DRAMBytes)
	}
	d.dramUsed += bytes
	d.transfers += bytes
	return d.Cfg.PCIeDuration(bytes) + out.Delay, nil
}

// Fail marks the card dead, as a scheduled Death outcome does. Staging
// calls fail with ErrDeviceFailed until Revive.
func (d *Device) Fail() { d.failed = true }

// Revive returns a dead card to service — the model of a card re-flashed
// and re-enumerated. Counters are preserved.
func (d *Device) Revive() { d.failed = false }

// Healthy reports whether the card accepts work.
func (d *Device) Healthy() bool { return !d.failed }

// ReleaseDRAM frees staged bytes after a kernel run retires.
func (d *Device) ReleaseDRAM(bytes int64) {
	d.dramUsed -= bytes
	if d.dramUsed < 0 {
		d.dramUsed = 0
	}
}

// RunKernel charges a kernel execution of the given cycle count.
func (d *Device) RunKernel(cycles int64) {
	d.cycles += cycles
	d.busy += d.Cfg.CyclesToDuration(cycles)
	d.kernels++
}

// AbortKernel charges a kernel execution the host cancelled between batch
// rounds: the cycles already spent stay on the card's counters (the
// hardware really ran them before it observed the abort line), but the run
// is tallied as an abort, not a completed kernel, so reports can show how
// much modelled work a deadline threw away.
func (d *Device) AbortKernel(cycles int64) {
	d.cycles += cycles
	d.busy += d.Cfg.CyclesToDuration(cycles)
	d.aborts++
}

// Aborts returns how many kernel executions were cancelled mid-flight.
func (d *Device) Aborts() int { return d.aborts }

// Cycles returns total charged cycles.
func (d *Device) Cycles() int64 { return d.cycles }

// Busy returns the device's accumulated busy time.
func (d *Device) Busy() time.Duration { return d.busy }

// String summarises the device state.
func (d *Device) String() string {
	return fmt.Sprintf("Device{%d kernels=%d cycles=%d busy=%v pcie=%dB}",
		d.ID, d.kernels, d.cycles, d.busy, d.transfers)
}
