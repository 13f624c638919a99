package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric the benchmark reports; the lists mirror
// BENCHMARK.json (the smoke test holds the two together).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with
// tracing off by every workload. An operation is one full evaluation-suite
// pass on suite and one offload on the offload workloads. They are CPU
// time and memory: on a shared virtual machine, wall time moves with the
// CPU time the host steals, by more than any bound a regression check can
// use (README.md). The wall-clock figures are per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// generatorMetrics name the per-generator timers of the evaluation suite,
// in Suite.All() order.
var generatorMetrics = []string{
	"table1", "table3", "figure5", "figure8", "table5", "table6",
	"figure11", "figure12", "figure13", "figure14", "figure15", "figure16",
	"figure17", "figure18", "timing1", "timing2", "fault", "fleet",
}

// cpuPackages are the packages whose flat CPU share the traced run
// reports: the repository's layers, plus the Go runtime (allocation, GC,
// scheduling) and package sync (mutex contention).
var cpuPackages = []string{
	"core", "sim", "mee", "cache", "dram", "ftl", "flash", "sched", "fleet",
	"tee", "trivium", "query", "runtime", "sync",
}

// perLayer are the metrics of the traced run. A metric of a layer a
// workload never reaches reads 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, g := range generatorMetrics {
		out = append(out, metricDef{"experiments." + g + "_s", "s"})
	}
	out = append(out,
		metricDef{"experiments.memo_hits", "count"},
		metricDef{"experiments.memo_misses", "count"},
		metricDef{"core.pool_hits", "count"},
		metricDef{"core.pool_misses", "count"},
		metricDef{"core.pool_setup_s", "s"},
	)
	for _, p := range cpuPackages {
		out = append(out, metricDef{"cpu." + p + "_pct", "%"})
	}
	out = append(out,
		metricDef{"bench.ops_per_s", "1/s"},
		metricDef{"bench.op_p50_ms", "ms"},
		metricDef{"bench.op_p90_ms", "ms"},
		metricDef{"bench.setup_wall_s", "s"},
		metricDef{"sched.queue_wait_p50_ms", "ms"},
		metricDef{"tee.read_page_p50_us", "us"},
		metricDef{"tee.read_page_p90_us", "us"},
		metricDef{"tee.write_page_p50_us", "us"},
		metricDef{"tee.write_page_p90_us", "us"},
		metricDef{"tee.lifecycle_p50_us", "us"},
		metricDef{"query.program_self_p50_ms", "ms"},
		metricDef{"tee.pages_read_per_offload", "count"},
		metricDef{"tee.cmt_miss_rate", "ratio"},
		metricDef{"ftl.translations_per_offload", "count"},
		metricDef{"ftl.gc_runs_per_offload", "count"},
		metricDef{"ftl.write_amplification", "ratio"},
		metricDef{"flash.reads_per_offload", "count"},
		metricDef{"flash.programs_per_offload", "count"},
		metricDef{"flash.erases_per_offload", "count"},
		metricDef{"bench.trace_overhead_pct", "%"},
		metricDef{"bench.failed_frac", "ratio"},
	)
	return out
}()

// report is what one workload run measured.
type report struct {
	attempted, failed int64
	// values holds every metric measured, end-to-end and per-layer.
	values map[string]float64
	// samples counts the observations behind each timing, for the record.
	samples map[string]int
	// digests are the suite's per-table SHA-256 digests.
	digests []string
	// passSecs are the suite's untraced pass times.
	passSecs []float64
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the final line: every end-to-end metric untraced,
// every per-layer metric traced.
func (r *report) result(trace bool) (result, error) {
	if r.attempted < 1 {
		return result{}, fmt.Errorf("no operation attempted")
	}
	r.values["bench.failed_frac"] = float64(r.failed) / float64(r.attempted)
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !trace {
			return result{}, fmt.Errorf("metric %s not measured", d.name)
		}
		ms[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: ms}, nil
}

// record is the line printed before the result: the machine fingerprint,
// the seed, the sample counts, and the suite's table digests.
func (r *report) record(workload string, seed uint64) map[string]any {
	return map[string]any{
		"fingerprint": map[string]any{
			"workload":      workload,
			"seed":          seed,
			"num_cpu":       runtime.NumCPU(),
			"gomaxprocs":    runtime.GOMAXPROCS(0),
			"go_version":    runtime.Version(),
			"commit":        vcsRevision(),
			"source_sha256": sourceDigest("."),
		},
		"samples":       r.samples,
		"pass_s":        r.passSecs,
		"table_digests": r.digests,
	}
}

// vcsRevision is the commit the binary was built from, when the build saw
// a git checkout.
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and go.mod files under root, skipping
// dot-directories (build output, VCS metadata). It names the code measured
// when the checkout carries no commit.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(f))
		_, err = io.Copy(h, fh)
		fh.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// inUnits converts durations to float64s of the given unit.
func inUnits(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// processCPU is the CPU time, user and system, the process has used so far.
// Unlike wall time it leaves out the time a virtual machine's CPUs are
// stolen by its host.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// Getrusage fails only for an invalid "who" argument; RUSAGE_SELF is valid.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssBaseline is the memory the benchmark holds before the measured work
// starts: the resident set after collecting the garbage and returning the
// freed memory to the OS.
func rssBaseline() (float64, error) {
	debug.FreeOSMemory()
	return procStatusMB("VmRSS")
}

// resetPeakRSS sets the resident-set high-water mark (VmHWM) to the
// current resident set (Linux /proc/self/clear_refs, value 5), so VmHWM
// then holds the peak of the work that follows.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// procStatusMB reads a kB field of /proc/self/status, in MB.
func procStatusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("%s: %w", field, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == field+":" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("%s: %w", field, err)
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// setupTimes runs setup n times and returns the last setup's product with
// the median CPU and wall time of a setup. Earlier products are dropped and
// collected before the next setup, which reuses their memory, so only the
// first set-up pays for fresh pages.
func setupTimes[T any](n int, setup func() (T, error)) (last T, cpuS, wallS float64, err error) {
	var cpu, wall []float64
	for i := 0; i < n; i++ {
		var zero T
		last = zero
		runtime.GC()
		c0, t0 := processCPU(), time.Now()
		v, err := setup()
		if err != nil {
			return zero, 0, 0, err
		}
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, (processCPU() - c0).Seconds())
		last = v
	}
	return last, quantile(cpu, 0.5), quantile(wall, 0.5), nil
}

// setSetup records the set-up metrics: setup_s is the set-up's CPU time,
// which unlike its wall time leaves out time the host steals.
func (r *report) setSetup(cpuS, wallS float64) {
	r.values["setup_s"] = cpuS
	r.values["bench.setup_wall_s"] = wallS
}
