package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"time"

	"iceclave/internal/core"
	"iceclave/internal/experiments"
	"iceclave/internal/stats"
	"iceclave/internal/workload"
)

// suiteConfig sizes the suite workload.
type suiteConfig struct {
	scale  workload.Scale
	setups int // set-ups timed for setup_s (the traced run does one)
}

// minPasses is the number of timed passes per measured phase, however long
// they take.
const minPasses = 2

// fullSuite is one serial, memoized Suite.All() pass at the default
// experiment scale and device configuration, as iceclave-bench runs it.
// The paper's tables are fixed artifacts, so the suite keeps the scale's
// own seed and ignores the workload seed: every run regenerates the same
// tables, with the same digests.
func fullSuite() suiteConfig {
	return suiteConfig{scale: workload.SmallScale(), setups: 3}
}

// generators returns the suite's public table methods in All() order,
// matching generatorMetrics.
func generators(s *experiments.Suite) []func() (*stats.Table, error) {
	return []func() (*stats.Table, error){
		s.Table1,
		func() (*stats.Table, error) { return s.Table3(), nil },
		s.Figure5, s.Figure8, s.Table5, s.Table6,
		s.Figure11, s.Figure12, s.Figure13, s.Figure14,
		s.Figure15, s.Figure16, s.Figure17, s.Figure18,
		s.AdmissionTiming, s.TraceTiming, s.FaultTiming, s.FleetTiming,
	}
}

// tableChecker holds the first pass's per-table digests; every later pass
// must reproduce them.
type tableChecker struct {
	rep     *report
	corrupt bool
}

// check counts one table per generator as attempted and fails the missing
// (nil: the generator failed) and empty ones, and those whose digest
// differs from the first pass's.
func (c *tableChecker) check(tables []*stats.Table) {
	c.rep.attempted += int64(len(tables))
	digests := make([]string, len(tables))
	for i, t := range tables {
		if t != nil && len(t.Rows) > 0 {
			sum := sha256.Sum256([]byte(t.String()))
			digests[i] = hex.EncodeToString(sum[:])
		}
	}
	if c.rep.digests == nil {
		c.rep.digests = digests
		if c.corrupt {
			c.rep.digests = append([]string{"corrupted"}, digests[1:]...)
		}
	}
	for i, d := range digests {
		if d == "" || d != c.rep.digests[i] {
			fmt.Fprintf(os.Stderr, "suite: %s: missing or empty table, or digest mismatch\n", generatorMetrics[i])
			c.rep.failed++
		}
	}
}

// suitePasses records timed passes: each generator's wall and CPU time
// per pass, each pass's wall time and resident-set peak, and the memo and
// pool activity per pass.
type suitePasses struct {
	genSecs, genCPU                                       [][]float64
	wall, peakRSS                                         []float64 // peakRSS in MB
	memoHits, memoMisses, poolHits, poolMisses, poolSetup []float64
}

// runSuite measures evaluation-suite passes. Set-up records the eleven
// workload traces. One untimed All() pass, as a fresh iceclave-bench
// process runs it, grows the heap to its working size; its tables are the
// reference every later pass must reproduce. Each timed pass is as cold:
// it drops the replay memo and core's pool of replay stacks first, so it
// redoes every replay and builds every stack, and it calls the public
// generators one at a time in All() order.
func runSuite(cfg suiteConfig, o runOpts) (*report, error) {
	rep := newReport()
	rssBase, err := rssBaseline()
	if err != nil {
		return nil, err
	}
	setups := cfg.setups
	if o.trace {
		setups = 1
	}
	suite, setupCPU, setupWall, err := setupTimes(setups, func() (*experiments.Suite, error) {
		s := experiments.NewSuite(cfg.scale, core.DefaultConfig())
		for _, name := range workload.Names() {
			if _, err := s.Trace(name); err != nil {
				return nil, fmt.Errorf("recording %s: %w", name, err)
			}
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	rep.setSetup(setupCPU, setupWall)
	checker := &tableChecker{rep: rep, corrupt: o.corrupt}
	gens := generators(suite)
	tables, err := suite.All()
	if err != nil {
		fmt.Fprintln(os.Stderr, "suite:", err)
		tables = make([]*stats.Table, len(gens))
	}
	checker.check(tables)

	// passes runs whole passes until the phase's time is up.
	passes := func(d time.Duration) (*suitePasses, error) {
		ps := &suitePasses{genSecs: make([][]float64, len(gens)), genCPU: make([][]float64, len(gens))}
		deadline := time.Now().Add(d)
		for len(ps.wall) < minPasses || time.Now().Before(deadline) {
			suite.ResetMemo()
			core.ResetPool()
			// Every pass starts from the same heap: the last pass's
			// garbage is collected before the clock starts.
			runtime.GC()
			if err := resetPeakRSS(); err != nil {
				return nil, err
			}
			p0 := core.PoolSnapshot()
			t0 := time.Now()
			tables := make([]*stats.Table, len(gens))
			for i, g := range gens {
				c0, g0 := processCPU(), time.Now()
				t, err := g()
				ps.genSecs[i] = append(ps.genSecs[i], time.Since(g0).Seconds())
				ps.genCPU[i] = append(ps.genCPU[i], (processCPU() - c0).Seconds())
				if err != nil {
					fmt.Fprintf(os.Stderr, "suite: %s: %v\n", generatorMetrics[i], err)
				}
				tables[i] = t
			}
			ps.wall = append(ps.wall, time.Since(t0).Seconds())
			peak, err := procStatusMB("VmHWM")
			if err != nil {
				return nil, err
			}
			ps.peakRSS = append(ps.peakRSS, peak)
			p1 := core.PoolSnapshot()
			hits, misses := suite.MemoStats()
			ps.memoHits = append(ps.memoHits, float64(hits))
			ps.memoMisses = append(ps.memoMisses, float64(misses))
			ps.poolHits = append(ps.poolHits, float64(p1.Hits-p0.Hits))
			ps.poolMisses = append(ps.poolMisses, float64(p1.Misses-p0.Misses))
			ps.poolSetup = append(ps.poolSetup, float64(p1.SetupNs-p0.SetupNs)/1e9)
			checker.check(tables)
		}
		return ps, nil
	}

	untracedFor := o.duration
	if o.trace {
		untracedFor = o.duration / 2
	}
	plain, err := passes(untracedFor)
	if err != nil {
		return nil, err
	}
	rep.passSecs = plain.wall
	// A pass's time and CPU time are the sums of each generator's median
	// over the passes. Other tenants of the machine slow memory-bound code
	// in phases longer than a run, so a lower quantile only adds noise.
	var passMs, cpuMs float64
	for i := range gens {
		passMs += 1000 * quantile(plain.genSecs[i], 0.5)
		cpuMs += 1000 * quantile(plain.genCPU[i], 0.5)
	}
	rep.values["cpu_ms_per_op"] = cpuMs
	rep.values["bench.op_p50_ms"] = passMs
	rep.values["bench.ops_per_s"] = 1000 / passMs
	rep.values["bench.op_p90_ms"] = 1000 * quantile(plain.wall, 0.9)
	rep.values["peak_rss_mb"] = quantile(plain.peakRSS, 0.5) - rssBase
	if !o.trace {
		return rep, nil
	}

	// Traced phase: the same passes under the CPU profiler.
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	traced, err := passes(o.duration - untracedFor)
	if err != nil {
		return nil, err
	}
	cpu, err := prof.stop()
	if err != nil {
		return nil, err
	}
	rep.samples["traced_passes"] = len(traced.wall)
	for i, g := range generatorMetrics {
		rep.values["experiments."+g+"_s"] = quantile(traced.genSecs[i], 0.5)
	}
	rep.values["experiments.memo_hits"] = quantile(traced.memoHits, 0.5)
	rep.values["experiments.memo_misses"] = quantile(traced.memoMisses, 0.5)
	rep.values["core.pool_hits"] = quantile(traced.poolHits, 0.5)
	rep.values["core.pool_misses"] = quantile(traced.poolMisses, 0.5)
	rep.values["core.pool_setup_s"] = quantile(traced.poolSetup, 0.5)
	for pkg, pct := range cpu {
		rep.values["cpu."+pkg+"_pct"] = pct
	}
	rep.values["bench.trace_overhead_pct"] = 100 * (quantile(traced.wall, 0.5)/quantile(plain.wall, 0.5) - 1)
	return rep, nil
}
