package host

import (
	"context"
	"errors"
	"testing"

	"fastmatch/internal/cst"
	"fastmatch/internal/faultinject"
	"fastmatch/ldbc"
)

// chaosPartition forces enough partitions that fault schedules at the
// staging and kernel sites fire several times per run.
func chaosPartition() cst.PartitionConfig {
	return cst.PartitionConfig{MaxSizeBytes: 1 << 13, MaxCandDegree: 64}
}

// chaosConfigs are the pipeline widths every oracle below is checked
// against: the inline pool and the fanned-out consumers.
var chaosConfigs = []struct {
	name    string
	workers int
}{
	{"inline", 0},
	{"fanned out", 4},
}

// TestChaosTransientParity: transient faults at the device staging and
// kernel-launch sites are retried away, and the degraded run returns
// byte-identical counts to the fault-free run — no error, not Partial, with
// the absorbed retries visible in the report. The schedule is finite (Nth
// lists, never more faults in a row than the retry budget) so absorption is
// guaranteed even when concurrent workers interleave on the shared site
// counters.
func TestChaosTransientParity(t *testing.T) {
	g := smallSocial(t)
	baseline := map[string]int64{}
	for _, shape := range chaosConfigs {
		for _, name := range []string{"q1", "q2", "q3", "q4", "q5"} {
			q, err := ldbc.QueryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ref, ok := baseline[name]
			if !ok {
				rep, err := Match(context.Background(), q, g, Config{Partition: chaosPartition(), Delta: 0.1})
				if err != nil {
					t.Fatalf("%s baseline: %v", name, err)
				}
				ref = rep.Embeddings
				baseline[name] = ref
			}
			inj := faultinject.New(11,
				faultinject.Rule{Site: faultinject.SiteDeviceStage(0), Nth: []int64{1, 2, 5}},
				faultinject.Rule{Site: faultinject.SiteKernel, Nth: []int64{1, 4}},
			)
			rep, err := Match(context.Background(), q, g, Config{
				Partition: chaosPartition(), Delta: 0.1,
				Workers: shape.workers,
				Faults:  inj,
			})
			if err != nil {
				t.Fatalf("%s/%s: absorbed transients must not error: %v", shape.name, name, err)
			}
			if rep.Partial {
				t.Errorf("%s/%s: absorbed transients must not mark the run Partial", shape.name, name)
			}
			if rep.Embeddings != ref {
				t.Errorf("%s/%s: degraded run found %d, fault-free %d", shape.name, name, rep.Embeddings, ref)
			}
			if rep.Retries == 0 {
				t.Errorf("%s/%s: schedule fired but report shows no retries", shape.name, name)
			}
		}
	}
}

// TestChaosDeviceDeathSurvivor: with two cards, killing card 0 mid-run
// redistributes its queued partitions to the survivor; counts stay
// byte-identical and the death is reported without an error.
func TestChaosDeviceDeathSurvivor(t *testing.T) {
	g := smallSocial(t)
	for _, shape := range chaosConfigs {
		for _, name := range []string{"q2", "q5"} {
			q, err := ldbc.QueryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Match(context.Background(), q, g, Config{
				Partition: chaosPartition(), NumFPGAs: 2,
				Workers: shape.workers,
			})
			if err != nil {
				t.Fatalf("%s/%s baseline: %v", shape.name, name, err)
			}
			inj := faultinject.New(5, faultinject.Rule{
				Site: faultinject.SiteDeviceStage(0), Kind: faultinject.Death, Nth: []int64{2}, Once: true,
			})
			rep, err := Match(context.Background(), q, g, Config{
				Partition: chaosPartition(), NumFPGAs: 2,
				Workers: shape.workers,
				Faults:  inj,
			})
			if err != nil {
				t.Fatalf("%s/%s: survivor should absorb the death: %v", shape.name, name, err)
			}
			if rep.Partial {
				t.Errorf("%s/%s: absorbed death must not mark the run Partial", shape.name, name)
			}
			if rep.Embeddings != ref.Embeddings {
				t.Errorf("%s/%s: degraded run found %d, fault-free %d", shape.name, name, rep.Embeddings, ref.Embeddings)
			}
			if rep.DeviceFailures != 1 {
				t.Errorf("%s/%s: DeviceFailures = %d, want 1", shape.name, name, rep.DeviceFailures)
			}
		}
	}
}

// TestChaosAllDevicesDeadFallsBackToCPU: with a single card that dies, the
// remaining FPGA-bound partitions are enumerated on the CPU path instead —
// the run completes with identical counts and reports the redistribution.
func TestChaosAllDevicesDeadFallsBackToCPU(t *testing.T) {
	g := smallSocial(t)
	for _, shape := range chaosConfigs {
		q, err := ldbc.QueryByName("q3")
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Match(context.Background(), q, g, Config{
			Partition: chaosPartition(),
			Workers:   shape.workers,
		})
		if err != nil {
			t.Fatalf("%s baseline: %v", shape.name, err)
		}
		inj := faultinject.New(9, faultinject.Rule{
			Site: faultinject.SiteDeviceStage(0), Kind: faultinject.Death, Nth: []int64{2}, Once: true,
		})
		rep, err := Match(context.Background(), q, g, Config{
			Partition: chaosPartition(),
			Workers:   shape.workers,
			Faults:    inj,
		})
		if err != nil {
			t.Fatalf("%s: CPU fallback should absorb a total device loss: %v", shape.name, err)
		}
		if rep.Partial {
			t.Errorf("%s: absorbed device loss must not mark the run Partial", shape.name)
		}
		if rep.Embeddings != ref.Embeddings {
			t.Errorf("%s: degraded run found %d, fault-free %d", shape.name, rep.Embeddings, ref.Embeddings)
		}
		if rep.DeviceFailures != 1 {
			t.Errorf("%s: DeviceFailures = %d, want 1", shape.name, rep.DeviceFailures)
		}
		if rep.Redistributed == 0 {
			t.Errorf("%s: no partitions reported redistributed to the CPU", shape.name)
		}
	}
}

// TestChaosKernelPanicIsolated: a panic injected at the kernel-launch site
// is recovered inside the barrier — the run returns a partial Report with a
// *KernelPanicError instead of crashing or deadlocking, at both pipeline
// widths.
func TestChaosKernelPanicIsolated(t *testing.T) {
	g := smallSocial(t)
	for _, shape := range chaosConfigs {
		q, err := ldbc.QueryByName("q4")
		if err != nil {
			t.Fatal(err)
		}
		inj := faultinject.New(3, faultinject.Rule{
			Site: faultinject.SiteKernel, Kind: faultinject.Panic, Nth: []int64{2}, Once: true,
		})
		rep, err := Match(context.Background(), q, g, Config{
			Partition: chaosPartition(),
			Workers:   shape.workers,
			Faults:    inj,
		})
		if err == nil {
			t.Fatalf("%s: injected kernel panic surfaced no error", shape.name)
		}
		var kp *KernelPanicError
		if !errors.As(err, &kp) {
			t.Fatalf("%s: error %v (%T), want *KernelPanicError", shape.name, err, err)
		}
		if kp.Site != faultinject.SiteKernel {
			t.Errorf("%s: panic site %q, want %q", shape.name, kp.Site, faultinject.SiteKernel)
		}
		if !rep.Partial {
			t.Errorf("%s: a panicked run must report Partial", shape.name)
		}
	}
}

// TestChaosEnumeratePanicIsolated: same isolation contract for a panic in
// the CPU δ-share enumeration.
func TestChaosEnumeratePanicIsolated(t *testing.T) {
	g := smallSocial(t)
	for _, shape := range chaosConfigs {
		q, err := ldbc.QueryByName("q2")
		if err != nil {
			t.Fatal(err)
		}
		inj := faultinject.New(7, faultinject.Rule{
			Site: faultinject.SiteEnumerate, Kind: faultinject.Panic, Nth: []int64{1}, Once: true,
		})
		rep, err := Match(context.Background(), q, g, Config{
			Partition: chaosPartition(), Delta: 0.3,
			Workers: shape.workers,
			Faults:  inj,
		})
		if err == nil {
			t.Skipf("%s: δ-share drained no partitions; enumerate site never evaluated", shape.name)
		}
		var kp *KernelPanicError
		if !errors.As(err, &kp) {
			t.Fatalf("%s: error %v (%T), want *KernelPanicError", shape.name, err, err)
		}
		if !rep.Partial {
			t.Errorf("%s: a panicked run must report Partial", shape.name)
		}
	}
}

// TestChaosExhaustedRetriesPartial: a staging site that fails every attempt
// exhausts the retry budget; the run returns its partial Report with a
// *DeviceFaultError that names the card's staging site — the same one at
// every width — and unwraps to the injected cause.
func TestChaosExhaustedRetriesPartial(t *testing.T) {
	g := smallSocial(t)
	for _, shape := range chaosConfigs {
		q, err := ldbc.QueryByName("q1")
		if err != nil {
			t.Fatal(err)
		}
		inj := faultinject.New(1, faultinject.Rule{
			Site: faultinject.SiteDeviceStage(0), EveryNth: 1,
		})
		rep, err := Match(context.Background(), q, g, Config{
			Partition: chaosPartition(),
			Workers:   shape.workers,
			Faults:    inj,
			Retry:     RetryPolicy{Max: 2},
		})
		if err == nil {
			t.Fatalf("%s: permanently failing stage surfaced no error", shape.name)
		}
		var df *DeviceFaultError
		if !errors.As(err, &df) {
			t.Fatalf("%s: error %v (%T), want *DeviceFaultError", shape.name, err, err)
		}
		if df.Attempts != 3 { // initial try + Max retries
			t.Errorf("%s: attempts = %d, want 3", shape.name, df.Attempts)
		}
		if want := faultinject.SiteDeviceStage(0); df.Site != want {
			t.Errorf("%s: fault site %q, want %q", shape.name, df.Site, want)
		}
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("%s: error does not unwrap to the injected cause: %v", shape.name, err)
		}
		if !rep.Partial {
			t.Errorf("%s: an exhausted-retry run must report Partial", shape.name)
		}
	}
}

// TestChaosDeterministicReplay: the same seed and schedule against the same
// run produce the same report — the property the chaos harness rests on.
func TestChaosDeterministicReplay(t *testing.T) {
	g := smallSocial(t)
	q, err := ldbc.QueryByName("q5")
	if err != nil {
		t.Fatal(err)
	}
	run := func() Report {
		inj := faultinject.New(21,
			faultinject.Rule{Site: faultinject.SiteDeviceStage(0), Rate: 0.3},
			faultinject.Rule{Site: faultinject.SiteKernel, Rate: 0.2},
		)
		rep, err := Match(context.Background(), q, g, Config{Partition: chaosPartition(), Faults: inj})
		if err != nil {
			t.Fatalf("replay run: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Embeddings != b.Embeddings || a.Retries != b.Retries || a.NumPartitions != b.NumPartitions {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}
