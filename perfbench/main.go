// Command perfbench is the repository benchmark. It measures the two
// end-to-end surfaces of the IceClave reproduction — one serial pass of
// the evaluation suite, and encrypted offloads through the functional
// iceclave.SSD — and breaks the same work down layer by layer.
//
// Usage, from the repository root (run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload <suite|offload-scan|offload-txn> \
//	    --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is one JSON object
// carrying the end-to-end metrics; with --trace 1 it carries the
// per-layer metrics instead (README.md lists both, and which end-to-end
// metric each per-layer one should move). The line before it is a JSON
// record with the machine fingerprint, the seed, sample counts, and the
// suite's table digests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// workloadSpec binds a workload name to the function running it at full
// (benchmark) scale.
type workloadSpec struct {
	name string
	run  func(opts runOpts) (*report, error)
}

var workloads = []workloadSpec{
	{"suite", func(o runOpts) (*report, error) { return runSuite(fullSuite(), o) }},
	{"offload-scan", func(o runOpts) (*report, error) { return runOffload(fullScan(), o) }},
	{"offload-txn", func(o runOpts) (*report, error) { return runOffload(fullTxn(), o) }},
}

// runOpts are the per-run settings shared by every workload.
type runOpts struct {
	seed     uint64
	duration time.Duration
	trace    bool
	// corrupt deliberately damages one reference result, so tests can
	// prove the output check is live.
	corrupt bool
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: suite, offload-scan or offload-txn")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds = flag.Int("seconds", 10, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == name {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	opts := runOpts{seed: seed, duration: time.Duration(seconds) * time.Second, trace: trace == 1}
	rep, err := spec.run(opts)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	res, err := rep.result(opts.trace)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rec, err := json.Marshal(rep.record(name, seed))
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(rec))
	fmt.Println(string(line))
	return nil
}
