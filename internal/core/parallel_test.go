package core

import (
	"testing"

	"iceclave/internal/mee"
	"iceclave/internal/sim"
	"iceclave/internal/trace"
	"iceclave/internal/workload"
)

// Differential tests for the sharded parallel engine: Config.EngineWorkers
// must never change a Result bit. Every variant runs once on the serial
// engine and once per worker count, and the []Result slices are compared
// by struct equality — QueueDelay, SecurityTime, MEE stats, cache rates,
// everything.

// parallelMix is a four-tenant collocation heavy enough to exercise
// admission queueing, cache contention, and MEE charging.
func parallelMix(t testing.TB) []*workload.Trace {
	t.Helper()
	return []*workload.Trace{
		recordTrace(t, "TPC-H Q1"),
		recordTrace(t, "Aggregate"),
		recordTrace(t, "TPC-B"),
		recordTrace(t, "Filter"),
	}
}

// runBoth replays the mix serially and with the given worker count and
// fails on any Result difference.
func runBoth(t *testing.T, traces []*workload.Trace, mode Mode, cfg Config, workers int) {
	t.Helper()
	cfg.EngineWorkers = 0
	want, err := RunMulti(traces, mode, cfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	cfg.EngineWorkers = workers
	got, err := RunMulti(traces, mode, cfg)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if len(got) != len(want) {
		t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("workers=%d tenant %d (%s): sharded result diverges\n got %+v\nwant %+v",
				workers, i, want[i].Workload, got[i], want[i])
		}
	}
}

func TestEngineWorkersIdenticalAcrossModes(t *testing.T) {
	traces := parallelMix(t)
	for _, mode := range []Mode{ModeHost, ModeHostSGX, ModeISC, ModeIceClave} {
		for _, workers := range []int{2, 3, 8} {
			t.Run(mode.String(), func(t *testing.T) {
				runBoth(t, traces, mode, DefaultConfig(), workers)
			})
		}
	}
}

func TestEngineWorkersIdenticalAcrossMEEModes(t *testing.T) {
	traces := parallelMix(t)
	for _, mm := range []struct {
		name string
		mode mee.Mode
	}{{"hybrid", mee.ModeHybrid}, {"split64", mee.ModeSplit64}, {"none", mee.ModeNone}} {
		t.Run(mm.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MEEMode = mm.mode
			runBoth(t, traces, ModeIceClave, cfg, 2)
		})
	}
	t.Run("exact-sampling", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.MEESampling = 1
		runBoth(t, traces, ModeIceClave, cfg, 4)
	})
	t.Run("secure-world-mapping", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.SecureWorldMapping = true
		runBoth(t, traces, ModeIceClave, cfg, 2)
	})
}

func TestEngineWorkersIdenticalUnderAdmission(t *testing.T) {
	traces := parallelMix(t)
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"uncapped", nil},
		{"slots", func(c *Config) { c.AdmissionSlots = 2 }},
		{"tenant-slots", func(c *Config) {
			c.AdmissionSlots = 3
			c.AdmissionTenantSlots = 1
		}},
		{"batched", func(c *Config) {
			c.AdmissionSlots = 2
			c.AdmissionQuantum = sim.Millisecond
			c.AdmissionBatch = 2
		}},
		{"adaptive", func(c *Config) {
			c.AdmissionSlots = 2
			c.AdmissionQuantum = sim.Millisecond
			c.AdmissionQuantumFloor = 125 * sim.Microsecond
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if v.mut != nil {
				v.mut(&cfg)
			}
			runBoth(t, traces, ModeIceClave, cfg, 2)
		})
	}
}

func TestEngineWorkersIdenticalOpenLoop(t *testing.T) {
	traces := parallelMix(t)
	sched := &trace.Schedule{Submissions: []trace.Submission{
		{At: 0, Band: 1},
		{At: 50 * sim.Microsecond, Band: 2},
		{At: 50 * sim.Microsecond, Band: 0},
		{At: 2 * sim.Millisecond, Band: 1},
	}}
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 2
	cfg.ArrivalSchedule = sched
	runBoth(t, traces, ModeIceClave, cfg, 2)
	runBoth(t, traces, ModeIceClave, cfg, 5)
}

// TestEngineWorkersSingleTenant covers the degenerate mixes: one tenant
// in IceClave mode and one in host mode.
func TestEngineWorkersSingleTenant(t *testing.T) {
	traces := []*workload.Trace{recordTrace(t, "TPC-H Q1")}
	runBoth(t, traces, ModeIceClave, DefaultConfig(), 2)
	runBoth(t, traces, ModeHost, DefaultConfig(), 2)
}

// TestAdaptiveQuantumTradesTicksForDelay pins the satellite behaviour:
// with a queue-scaled tick the gate runs more scheduling passes than the
// fixed quantum but strictly less mean queueing delay.
func TestAdaptiveQuantumTradesTicksForDelay(t *testing.T) {
	traces := parallelMix(t)
	cfg := DefaultConfig()
	cfg.AdmissionSlots = 2
	cfg.AdmissionQuantum = sim.Millisecond
	cfg.AdmissionBatch = 2
	fixed, fixedStats, err := RunMultiStats(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AdmissionQuantumFloor = 125 * sim.Microsecond
	adaptive, adaptiveStats, err := RunMultiStats(traces, ModeIceClave, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fixedStats.AdmissionTicks == 0 {
		t.Fatal("batched run reported no scheduling passes")
	}
	var fixedQ, adaptQ sim.Duration
	for i := range fixed {
		fixedQ += fixed[i].QueueDelay
		adaptQ += adaptive[i].QueueDelay
	}
	if adaptQ > fixedQ {
		t.Errorf("adaptive quantum increased queue delay: %v > %v", adaptQ, fixedQ)
	}
	if adaptQ == fixedQ && adaptiveStats.AdmissionTicks == fixedStats.AdmissionTicks {
		t.Errorf("adaptive quantum changed nothing (ticks %d, delay %v)",
			fixedStats.AdmissionTicks, fixedQ)
	}
	t.Logf("fixed: ticks=%d queue=%v; adaptive: ticks=%d queue=%v",
		fixedStats.AdmissionTicks, fixedQ, adaptiveStats.AdmissionTicks, adaptQ)
}
