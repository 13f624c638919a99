package main

import (
	"encoding/json"
	"errors"
	"os"
	"sort"
	"testing"
	"time"

	"iceclave"
	"iceclave/internal/host"
	"iceclave/internal/tee"
	"iceclave/internal/workload"
)

// tiny runs each workload at a scale small enough for a unit test.
var tiny = map[string]func(runOpts) (*report, error){
	"suite": func(o runOpts) (*report, error) {
		return runSuite(suiteConfig{scale: workload.TinyScale(), setups: 1}, o)
	},
	"offload-scan": func(o runOpts) (*report, error) { return runOffload(tinyOffload(fullScan()), o) },
	"offload-txn":  func(o runOpts) (*report, error) { return runOffload(tinyOffload(fullTxn()), o) },
}

func tinyOffload(c offloadConfig) offloadConfig {
	c.tenants, c.rows, c.setups = 5, 2000, 2
	c.ssd = iceclave.Options{Channels: 2, BlocksPerPlane: 4}
	return c
}

func tinyRun(t *testing.T, name string, o runOpts) result {
	t.Helper()
	if o.duration == 0 {
		o.duration = 200 * time.Millisecond
	}
	rep, err := tiny[name](o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := rep.result(o.trace)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestEveryMetricWithUnit runs every workload of BENCHMARK.json untraced
// and traced, and checks each emits exactly the metrics BENCHMARK.json
// names for that mode, each with its unit.
func TestEveryMetricWithUnit(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	sort.Strings(names)
	sort.Strings(listed)
	if len(names) != len(listed) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", listed, names)
	}
	for i := range names {
		if names[i] != listed[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", listed, names)
		}
	}
	for _, name := range names {
		for _, mode := range []struct {
			trace bool
			want  []struct{ Name, Unit string }
		}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
			res := tinyRun(t, name, runOpts{seed: 7, trace: mode.trace})
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d", name, mode.trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, mode.trace, len(res.Metrics), len(mode.want))
			}
			for _, m := range mode.want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, mode.trace, m.Name, got, m.Unit)
				}
				if !mode.trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedReferenceIsCaught proves each workload's output check is
// live: one damaged reference result must show up as failed work.
func TestCorruptedReferenceIsCaught(t *testing.T) {
	for name := range tiny {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, name, runOpts{seed: 7, trace: trace, corrupt: true})
			if res.Correct || res.Failed == 0 {
				t.Errorf("%s trace=%v: corrupted reference went unnoticed (failed %d of %d)", name, trace, res.Failed, res.Attempted)
			}
			if trace && res.Metrics["bench.failed_frac"].Value <= 0 {
				t.Errorf("%s: failed_frac = %v with a corrupted reference", name, res.Metrics["bench.failed_frac"].Value)
			}
		}
	}
}

// TestClientsOwnDisjointTenants checks the client-owns-tenant split: every
// tenant has exactly one client, and runs with more clients than the
// benchmark uses never hit tee.ErrLPAOwned — which two live TEEs over one
// tenant's pages do hit.
func TestClientsOwnDisjointTenants(t *testing.T) {
	ts := make([]*tenant, 7)
	for i := range ts {
		ts[i] = &tenant{}
	}
	owner := map[*tenant]int{}
	for c := 0; c < 3; c++ {
		for _, tn := range ownedBy(ts, c, 3) {
			if prev, ok := owner[tn]; ok {
				t.Fatalf("tenant owned by clients %d and %d", prev, c)
			}
			owner[tn] = c
		}
	}
	if len(owner) != len(ts) {
		t.Fatalf("%d of %d tenants have an owner", len(owner), len(ts))
	}

	for _, base := range []offloadConfig{fullScan(), fullTxn()} {
		cfg := tinyOffload(base)
		cfg.clients = 3
		rep, err := runOffload(cfg, runOpts{seed: 3, duration: 300 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if rep.samples["lpa_owned_errors"] != 0 || rep.failed != 0 {
			t.Errorf("txn=%v: %d ErrLPAOwned, %d failed of %d", cfg.txn, rep.samples["lpa_owned_errors"], rep.failed, rep.attempted)
		}
	}

	// The control: a second live TEE over the same tenant's pages.
	ssd, err := iceclave.Open(iceclave.Options{Channels: 2, BlocksPerPlane: 4})
	if err != nil {
		t.Fatal(err)
	}
	lpas := []uint32{0, 1}
	for _, l := range lpas {
		if err := ssd.HostWrite(l, []byte{byte(l)}); err != nil {
			t.Fatal(err)
		}
	}
	first, err := ssd.OffloadCode(host.Offload{TaskID: 1, Binary: offloadBinary, LPAs: lpas})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Finish(nil)
	if _, err := ssd.OffloadCode(host.Offload{TaskID: 2, Binary: offloadBinary, LPAs: lpas}); !errors.Is(err, tee.ErrLPAOwned) {
		t.Fatalf("second TEE over the same pages: err = %v, want tee.ErrLPAOwned", err)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"iceclave/internal/tee.(*Runtime).ReadPage":             "tee",
		"iceclave/internal/trivium.(*Engine).KeystreamPage":     "trivium",
		"iceclave/internal/sim.(*Heap[...]).Push":               "sim",
		"iceclave/internal/core.run.func1":                      "core",
		"runtime.mallocgc":                                      "runtime",
		"internal/sync.(*Mutex).lockSlow":                       "sync",
		"sync.(*Mutex).Unlock":                                  "sync",
		"internal/runtime/maps.(*Map).getWithKeySmall":          "",
		"iceclave/internal/query.Q1.func1":                      "query",
		"iceclave.(*SSD).Execute":                               "",
		"main.(*offloadRun).client":                             "",
		"iceclave/internal/experiments.(*Suite).Figure5":        "experiments",
		"iceclave/internal/ftl.(*FTL).ClearIDs":                 "ftl",
		"iceclave/internal/cache.(*Cache).Access[go.shape.int]": "cache",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileFlat checks the flat profile `go tool pprof` reads back from
// a live profile: a busy loop in this package must dominate it.
func TestProfileFlat(t *testing.T) {
	p, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	sink = spin(300 * time.Millisecond)
	flat, err := p.flat()
	if err != nil {
		t.Fatal(err)
	}
	// A test binary names package main by its import path.
	const fn = "iceclave/perfbench.spin"
	if flat[fn] < 50 {
		t.Fatalf("%s holds %.2f%% of the profiled CPU time: %v", fn, flat[fn], flat)
	}
}

var sink uint64

// spin keeps its state in a local, so race-detector instrumentation stays
// out of the loop.
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}
