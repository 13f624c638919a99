package ftl

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"iceclave/internal/flash"
	"iceclave/internal/sim"
)

// checkJournalCovers is the journal's invariant, checked by a full-table
// sweep: every entry carrying a TEE ID is listed in its stripe's journal
// for that ID, so ClearIDs cannot miss it.
func checkJournalCovers(t *testing.T, f *FTL, step int) {
	t.Helper()
	for l := LPA(0); int64(l) < f.logicalPages; l++ {
		id := f.table[l].id
		if id == IDNone {
			continue
		}
		found := false
		for _, j := range f.stripeOf(l).owned[id] {
			if j == l {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("step %d: LPA %d carries ID %d but is missing from its journal", step, l, id)
		}
	}
}

// checkJournalsEmpty requires that no stripe journals anything for ids.
func checkJournalsEmpty(t *testing.T, f *FTL, step int, ids ...TEEID) {
	t.Helper()
	for s := range f.stripes {
		for _, id := range ids {
			if n := len(f.stripes[s].owned[id]); n != 0 {
				t.Fatalf("step %d: stripe %d journals %d stale LPAs for ID %d", step, s, n, id)
			}
		}
	}
}

// TestIDJournalOracle drives random sequences of SetID, ClaimID, host
// writes, WriteFor adoptions and denials (with GC relocating pages on a
// small device), ClearIDs, and Reset, and checks the journal-driven
// ClearIDs against a full-table oracle: after ClearIDs(id) no entry
// carries id, and every other entry — mapping and ID bits — is exactly
// what it was before.
func TestIDJournalOracle(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dev, err := flash.NewDevice(gcStormGeometry(2), flash.DefaultTiming())
			if err != nil {
				t.Fatal(err)
			}
			f := New(dev, Config{StripesPerChannel: 2})
			rng := sim.NewRNG(seed)
			n := int(f.LogicalPages())
			randID := func() TEEID { return TEEID(rng.Intn(int(MaxTEEID) + 1)) }
			var at sim.Time
			var gcRuns int64 // summed across resets, which zero the stats
			for step := 0; step < 3000; step++ {
				l := LPA(rng.Intn(n))
				switch op := rng.Intn(100); {
				case op < 25:
					if err := f.SetID(l, randID()); err != nil {
						t.Fatalf("step %d SetID: %v", step, err)
					}
				case op < 45:
					if err := f.ClaimID(l, randID()); err != nil && !errors.Is(err, ErrOwned) {
						t.Fatalf("step %d ClaimID: %v", step, err)
					}
				case op < 65:
					done, err := f.Write(at, l, nil)
					if err != nil {
						t.Fatalf("step %d Write: %v", step, err)
					}
					at = done
				case op < 85:
					done, _, _, err := f.WriteFor(at, l, nil, randID())
					if err != nil && !errors.Is(err, ErrAccessDenied) {
						t.Fatalf("step %d WriteFor: %v", step, err)
					}
					if err == nil {
						at = done
					}
				case op < 99:
					id := randID()
					before := append([]entry(nil), f.table...)
					f.ClearIDs(id)
					for i, e := range f.table {
						want := before[i]
						if id != IDNone && want.id == id {
							want.id = IDNone
						}
						if e != want {
							t.Fatalf("step %d ClearIDs(%d): LPA %d = %+v, want %+v", step, id, i, e, want)
						}
					}
					if id != IDNone {
						checkJournalsEmpty(t, f, step, id)
					}
				default:
					gcRuns += f.Stats().GCRuns
					resetStack(f)
					at = 0
					checkJournalsEmpty(t, f, step, allIDs()...)
					for i, e := range f.table {
						if e != (entry{}) {
							t.Fatalf("step %d Reset: LPA %d = %+v, want zero", step, i, e)
						}
					}
				}
				checkJournalCovers(t, f, step)
			}
			if gcRuns+f.Stats().GCRuns == 0 {
				t.Fatal("workload never ran GC; relocation was not exercised")
			}
		})
	}
}

func allIDs() []TEEID {
	ids := make([]TEEID, MaxTEEID+1)
	for i := range ids {
		ids[i] = TEEID(i)
	}
	return ids
}

// TestIDJournalConcurrentClear races TEE lifecycles against each other
// and against a host writer forcing GC relocation: each worker stamps its
// own LPAs under its own ID (by ClaimID and by WriteFor adoption), then
// tears them down with ClearIDs. After every teardown none of the
// worker's LPAs may still carry its ID, and no other worker's claim may
// have been disturbed.
func TestIDJournalConcurrentClear(t *testing.T) {
	dev, err := flash.NewDevice(gcStormGeometry(4), flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	f := New(dev, Config{})
	const workers, perWorker = 4, 6
	host := LPA(workers * perWorker) // host-only LPAs start here
	var wg sync.WaitGroup
	errCh := make(chan error, workers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 2000; r++ {
			l := host + LPA(r%int(f.LogicalPages()-int64(host)))
			if _, err := f.Write(0, l, nil); err != nil {
				errCh <- fmt.Errorf("host write %d: %w", l, err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := TEEID(w + 1)
			mine := make([]LPA, perWorker)
			for i := range mine {
				mine[i] = LPA(w*perWorker + i)
			}
			for r := 0; r < 200; r++ {
				for i, l := range mine {
					if i%2 == 0 {
						if err := f.ClaimID(l, id); err != nil {
							errCh <- fmt.Errorf("worker %d ClaimID(%d): %w", w, l, err)
							return
						}
					} else if _, _, adopted, err := f.WriteFor(0, l, nil, id); err != nil || !adopted {
						errCh <- fmt.Errorf("worker %d WriteFor(%d): adopted=%v err=%v", w, l, adopted, err)
						return
					}
				}
				for _, l := range mine {
					if got, _ := f.IDOf(l); got != id {
						errCh <- fmt.Errorf("worker %d: LPA %d owned by %d before teardown", w, l, got)
						return
					}
				}
				f.ClearIDs(id)
				for _, l := range mine {
					if got, _ := f.IDOf(l); got != IDNone {
						errCh <- fmt.Errorf("worker %d: LPA %d owned by %d after ClearIDs", w, l, got)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if f.Stats().GCRuns == 0 {
		t.Fatal("host writer never ran GC; relocation was not exercised")
	}
	checkJournalsEmpty(t, f, -1, allIDs()...)
}

// BenchmarkClearIDs times one TEE's ID-bit lifecycle on the default
// 8-channel device: claim the 676 pages of a 20,000-row TPC-H tenant,
// then clear them. The claims are part of each op because a cleared
// journal leaves nothing for the next ClearIDs to visit.
func BenchmarkClearIDs(b *testing.B) {
	geo := flash.Geometry{
		Channels: 8, ChipsPerChannel: 4, DiesPerChip: 4, PlanesPerDie: 2,
		BlocksPerPlane: 64, PagesPerBlock: 64, PageSize: 4096,
	}
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		b.Fatal(err)
	}
	f := New(dev, Config{})
	const owned, id = 676, TEEID(3)
	for b.Loop() {
		for l := LPA(0); l < owned; l++ {
			if err := f.ClaimID(l, id); err != nil {
				b.Fatal(err)
			}
		}
		f.ClearIDs(id)
	}
}
