package core

import (
	"testing"

	"iceclave/internal/fault"
	"iceclave/internal/mee"
	"iceclave/internal/sim"
	"iceclave/internal/workload"
)

// Differential tests for the MEE charge tapes: a replay that charges from
// a cached tape must produce Results struct-identical to one that builds
// its own (pooling off), under every key field, a full cache, and a fault
// plan that fails tenants mid-trace.

// tapeMix is a two-tenant collocation: a scan and a write-heavy
// transaction trace, so both tenant seeds and both heap shapes are keyed.
func tapeMix(t testing.TB) []*workload.Trace {
	t.Helper()
	return []*workload.Trace{recordTrace(t, "TPC-H Q1"), recordTrace(t, "TPC-B")}
}

// freshAndPooled replays traces once with pooling off (every tenant builds
// its own tape) and twice with it on after a ResetPool (the second pooled
// run charges from cached tapes), and returns the fresh Results, the
// second pooled Results, and the pool activity of the pooled runs.
func freshAndPooled(t *testing.T, traces []*workload.Trace, mode Mode, cfg Config) (fresh, pooled []Result, st PoolStats) {
	t.Helper()
	SetPooling(false)
	ResetPool()
	fresh, err := RunMulti(traces, mode, cfg)
	if err != nil {
		t.Fatal(err)
	}
	SetPooling(true)
	ResetPool()
	if _, err := RunMulti(traces, mode, cfg); err != nil {
		t.Fatal(err)
	}
	if pooled, err = RunMulti(traces, mode, cfg); err != nil {
		t.Fatal(err)
	}
	return fresh, pooled, PoolSnapshot()
}

func sameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: tenant %d (%s) diverges\n got %+v\nwant %+v", label, i, want[i].Workload, got[i], want[i])
		}
	}
}

// TestTapePooledIdenticalToFresh crosses the four replay modes with the
// three MEE protection modes, exact and 8x sampling, and two exposure
// factors. Only IceClave tenants carry tapes; the other modes pin that
// the MEE knobs stay inert there.
func TestTapePooledIdenticalToFresh(t *testing.T) {
	t.Cleanup(func() { SetPooling(true); ResetPool() })
	traces := tapeMix(t)
	for _, mode := range []Mode{ModeHost, ModeHostSGX, ModeISC, ModeIceClave} {
		for _, mm := range []mee.Mode{mee.ModeHybrid, mee.ModeSplit64, mee.ModeNone} {
			for _, sampling := range []int{1, 8} {
				for _, exposure := range []float64{0.35, 1} {
					cfg := DefaultConfig()
					cfg.MEEMode = mm
					cfg.MEESampling = sampling
					cfg.MEEExposure = exposure
					fresh, pooled, st := freshAndPooled(t, traces, mode, cfg)
					label := mode.String() + "/" + mm.String()
					sameResults(t, label, pooled, fresh)
					if mode == ModeIceClave && st.TapeHits != int64(len(traces)) {
						t.Errorf("%s sampling=%d exposure=%v: %d tape hits, want %d",
							label, sampling, exposure, st.TapeHits, len(traces))
					}
					if mode != ModeIceClave && st.TapeHits+st.TapeMisses != 0 {
						t.Errorf("%s: a non-IceClave replay touched the tape cache: %+v", label, st)
					}
				}
			}
		}
	}
}

// TestTapeKeySeparation changes one key field at a time. The variant runs
// on a cache already holding the base configuration's tapes, so a key
// that ignored the field would hand it the base's stream; it must instead
// match its own fresh run and differ from the base.
func TestTapeKeySeparation(t *testing.T) {
	t.Cleanup(func() { SetPooling(true); ResetPool() })
	tr := recordTrace(t, "TPC-H Q1")
	// A second recording of the same workload: equal content, distinct
	// identity, so it must get its own tape yet replay identically.
	twin := recordTrace(t, "TPC-H Q1")
	other := recordTrace(t, "Aggregate")
	// The seed steers only heap addresses, so its variant replays a
	// write-heavy trace whose heap traffic the seed visibly moves.
	heapy := recordTrace(t, "TPC-B")
	base := DefaultConfig()
	variants := []struct {
		name   string
		base   *workload.Trace // the trace the base configuration replays
		trace  *workload.Trace // the trace the variant replays
		mut    func(*Config)
		differ bool // the variant's charges must differ from the base's
	}{
		{"mee-mode", tr, tr, func(c *Config) { c.MEEMode = mee.ModeSplit64 }, true},
		{"counter-cache", tr, tr, func(c *Config) { c.CounterCacheBytes = 16 << 10 }, true},
		{"sampling", tr, tr, func(c *Config) { c.MEESampling = 1 }, true},
		{"exposure", tr, tr, func(c *Config) { c.MEEExposure = base.MEEExposure * 2 }, true},
		{"seed", heapy, heapy, func(c *Config) { c.Seed = base.Seed + 1 }, true},
		{"trace", tr, other, nil, true},
		{"trace-identity", tr, twin, nil, false},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			if v.mut != nil {
				v.mut(&cfg)
			}
			SetPooling(false)
			ResetPool()
			want, err := Run(v.trace, ModeIceClave, cfg)
			if err != nil {
				t.Fatal(err)
			}
			SetPooling(true)
			ResetPool()
			baseRes, err := Run(v.base, ModeIceClave, base)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(v.trace, ModeIceClave, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st := PoolSnapshot(); st.TapeMisses != 2 || st.TapeHits != 0 {
				t.Errorf("variant shared the base tape: %+v", st)
			}
			if got != want {
				t.Errorf("variant diverges from its fresh run\n got %+v\nwant %+v", got, want)
			}
			charged := got.SecurityTime != baseRes.SecurityTime || got.MEE != baseRes.MEE
			if charged != v.differ {
				t.Errorf("variant charges differ from base: %v, want %v (base %+v, variant %+v)",
					charged, v.differ, baseRes.MEE, got.MEE)
			}
		})
	}
}

// TestTapeFailedTenantPrefixStats fails tenants mid-trace and checks the
// MEE statistics they report against an independent step-by-step
// generator: there must be a prefix length n whose cumulative exposure is
// the tenant's SecurityTime (in IceClave mode the MEE is its only
// security cost) and whose model statistics are its Result.MEE — and
// those must be a strict prefix, not the whole trace's.
func TestTapeFailedTenantPrefixStats(t *testing.T) {
	t.Cleanup(func() { SetPooling(true); ResetPool() })
	traces := faultMix(t)
	cfg := DefaultConfig()
	cfg.FaultPlan = &fault.Plan{Seed: 11, ReadTransient: 0.004, MACFail: 0.002}
	cfg.FaultRetryLimit = -1 // the first surfaced fault fails the tenant
	for _, pooled := range []bool{false, true} {
		SetPooling(pooled)
		ResetPool()
		results, err := RunMulti(traces, ModeIceClave, cfg)
		if err != nil {
			t.Fatal(err)
		}
		failed := 0
		for i, r := range results {
			if !r.Failed {
				continue
			}
			failed++
			k := newTapeKey(traces[i], &cfg, cfg.Seed+uint64(i)*7919)
			full := buildTape(k, len(traces[i].Steps)+1)
			if r.MEE == full.stats {
				t.Errorf("tenant %d (%s) failed but reports whole-trace MEE stats", i, r.Workload)
			}
			g := newChargeGen(k)
			var sum sim.Duration
			found := -1
			for n := 0; n <= len(traces[i].Steps)+1; n++ {
				if sum == r.SecurityTime && g.model.Stats() == r.MEE {
					found = n
					break
				}
				if n <= len(traces[i].Steps) {
					sum += g.step(n)
				}
			}
			if found < 0 {
				t.Errorf("tenant %d (%s): no step prefix matches SecurityTime %v and MEE %+v",
					i, r.Workload, r.SecurityTime, r.MEE)
				continue
			}
			if got := buildTape(k, found).stats; got != r.MEE {
				t.Errorf("tenant %d: prefix tape over %d steps reports %+v, tenant %+v", i, found, got, r.MEE)
			}
		}
		if failed == 0 {
			t.Fatalf("pooled=%v: the plan failed no tenant, so nothing is pinned", pooled)
		}
	}
}

// TestTapeCacheCapChangesNoResult shrinks the tape cache to one entry:
// the second tenant's tape is built, used, and not kept, and every run
// still matches the fresh one.
func TestTapeCacheCapChangesNoResult(t *testing.T) {
	old := poolMaxTapes
	t.Cleanup(func() { poolMaxTapes = old; SetPooling(true); ResetPool() })
	poolMaxTapes = 1
	traces := parallelMix(t)
	fresh, pooled, st := freshAndPooled(t, traces, ModeIceClave, DefaultConfig())
	sameResults(t, "capped cache", pooled, fresh)
	if st.TapeHits != 1 || st.TapeMisses != int64(2*len(traces)-1) {
		t.Errorf("capped cache activity %+v, want 1 hit and %d misses", st, 2*len(traces)-1)
	}
	pool.mu.Lock()
	n := len(pool.tapes)
	pool.mu.Unlock()
	if n > poolMaxTapes {
		t.Errorf("tape cache holds %d tapes past its cap of %d", n, poolMaxTapes)
	}
}

// syntheticTrace is a trace of n steps over a fixed 256-page dataset:
// reads with memory traffic, every eighth step a write. Its geometry does
// not depend on n, so traces of different lengths share one pooled stack.
func syntheticTrace(n int) *workload.Trace {
	const pages = 256
	tr := &workload.Trace{Name: "synthetic", SetupPages: pages, PageSize: 4096}
	tr.Meter.PagesWritten = 1 << 12
	tr.Meter.Intermediate = 1 << 20
	tr.Steps = make([]workload.Step, n)
	for i := range tr.Steps {
		st := workload.Step{Op: workload.OpRead, LPA: uint32(i % pages), PreInstr: 2000, PreMemReads: 96, PreMemWrites: 16}
		if i%8 == 7 {
			st.Op = workload.OpWrite
			st.LPA = uint32((i * 7) % pages)
		}
		tr.Steps[i] = st
	}
	tr.Tail = workload.Step{PreInstr: 1000, PreMemReads: 8}
	return tr
}

// TestReplayStepAllocsConstant pins allocation-free step scheduling: on a
// warm pool with warm tapes, a replay of 2N steps allocates no more than
// one of N steps, up to a small constant — so nothing on the per-step
// path (event scheduling, the step callback, MEE charging) allocates.
func TestReplayStepAllocsConstant(t *testing.T) {
	t.Cleanup(func() { SetPooling(true); ResetPool() })
	SetPooling(true)
	ResetPool()
	allocs := func(tr *workload.Trace) float64 {
		traces := []*workload.Trace{tr}
		if _, err := RunMulti(traces, ModeIceClave, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := RunMulti(traces, ModeIceClave, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := allocs(syntheticTrace(2000))
	long := allocs(syntheticTrace(4000))
	if long > short+4 {
		t.Fatalf("replay allocations grow with trace length: %.0f for 2000 steps, %.0f for 4000", short, long)
	}
	t.Logf("allocations per replay: %.0f (2000 steps), %.0f (4000 steps)", short, long)
}

// replaySteps counts the steps (tails included) a replay of traces runs.
func replaySteps(traces []*workload.Trace) int {
	n := 0
	for _, tr := range traces {
		n += len(tr.Steps) + 1
	}
	return n
}

// BenchmarkReplayStep measures core replay per step on a warm pool with
// warm charge tapes: a four-tenant IceClave RunMulti, reported per
// replayed step (ns/step) as well as per run.
func BenchmarkReplayStep(b *testing.B) {
	traces := parallelMix(b)
	if _, err := RunMulti(traces, ModeIceClave, DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunMulti(traces, ModeIceClave, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*replaySteps(traces)), "ns/step")
}

// tapeSink keeps BenchmarkChargeTapeBuild's result live.
var tapeSink *chargeTape

// BenchmarkChargeTapeBuild measures recording one tenant's whole MEE
// charge tape — a fresh counter-cache model run over every step of the
// TPC-H Q1 trace — reported per run and per step.
func BenchmarkChargeTapeBuild(b *testing.B) {
	tr := recordTrace(b, "TPC-H Q1")
	cfg := DefaultConfig()
	k := newTapeKey(tr, &cfg, cfg.Seed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tapeSink = buildTape(k, len(tr.Steps)+1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(len(tr.Steps)+1)), "ns/step")
}
