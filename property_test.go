package iceclave

import (
	"testing"
	"testing/quick"

	"iceclave/internal/host"
	"iceclave/internal/query"
)

// TestHostTEEQueryEquivalenceProperty is the offload-correctness
// property: for any dataset seed, every query program must return
// byte-identical output, and meter identical work, whether it runs
// host-side over plain memory or inside an in-storage TEE over the
// permission-checked, bus-encrypted data path. This is what makes the
// offload transparent to applications. Q3, Q12, Q14 and Q19 keep
// build-side rows in hash joins across their scans.
func TestHostTEEQueryEquivalenceProperty(t *testing.T) {
	programs := []struct {
		name string
		p    query.Program
	}{
		{"Q1", query.Q1}, {"Q3", query.Q3}, {"Q12", query.Q12},
		{"Q14", query.Q14}, {"Q19", query.Q19},
		{"Filter", query.Filter}, {"Aggregate", query.Aggregate},
	}
	prop := func(seed uint64) bool {
		rows := 1200 + int(seed%1800)
		ssd, err := Open(Options{})
		if err != nil {
			t.Logf("open: %v", err)
			return false
		}
		ds := query.GenerateTPCH(rows, seed)
		sd, err := ssd.StoreDataset(ds, 0)
		if err != nil {
			t.Logf("seed %d: store: %v", seed, err)
			return false
		}
		mem := query.NewMemStore(4096)
		sdHost, err := query.GenerateTPCH(rows, seed).Store(mem, 0)
		if err != nil {
			t.Logf("seed %d: host store: %v", seed, err)
			return false
		}
		for _, pr := range programs {
			var hm query.Meter
			want, err := pr.p(mem, sdHost, &hm)
			if err != nil {
				t.Logf("seed %d: %s host-side: %v", seed, pr.name, err)
				return false
			}
			// The program meters into its own Meter: the TEE store also
			// counts page I/O into the task's.
			var tm query.Meter
			got, err := ssd.Execute(host.Offload{
				TaskID: uint32(seed),
				Binary: make([]byte, 32<<10),
				LPAs:   sd.AllLPAs(4096),
			}, func(st query.Store, _ *query.Meter) ([]byte, error) {
				out, err := pr.p(st, sd, &tm)
				return []byte(out), err
			})
			if err != nil {
				t.Logf("seed %d: %s TEE-side: %v", seed, pr.name, err)
				return false
			}
			if string(got) != want {
				t.Logf("seed %d: %s diverges:\nTEE:  %q\nhost: %q", seed, pr.name, got, want)
				return false
			}
			if tm != hm {
				t.Logf("seed %d: %s meters diverge:\nTEE:  %+v\nhost: %+v", seed, pr.name, tm, hm)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}
