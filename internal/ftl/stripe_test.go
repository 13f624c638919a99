package ftl

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"iceclave/internal/flash"
	"iceclave/internal/sim"
)

// TestStripeChannelAlignment pins the invariant the whole lock hierarchy
// rests on: the stripe count is a multiple of the channel count, so every
// stripe's LPAs map to exactly one channel and GC never needs a stripe of
// another channel.
func TestStripeChannelAlignment(t *testing.T) {
	f := newTestFTL(t)
	if f.Stripes()%f.geo.Channels != 0 {
		t.Fatalf("stripes (%d) not a multiple of channels (%d)", f.Stripes(), f.geo.Channels)
	}
	for l := LPA(0); int64(l) < f.logicalPages; l++ {
		stripeIdx := int(uint32(l) % uint32(f.Stripes()))
		if stripeIdx%f.geo.Channels != f.pickChannel(l) {
			t.Fatalf("LPA %d: stripe %d not aligned with channel %d", l, stripeIdx, f.pickChannel(l))
		}
	}
}

// TestCrossChannelNoSharedLock is the contention test the sharding exists
// for: with channel 0's shard AND every channel-0 mapping stripe held
// hostage, a tenant pinned to channel 1 must still complete reads,
// writes, translations, and ID updates — under the old single mutex this
// deadlocks and the test times out.
func TestCrossChannelNoSharedLock(t *testing.T) {
	f := newTestFTL(t)
	channels := f.geo.Channels

	// Seed a channel-1 LPA so the read path has something to return.
	const l1 = LPA(1) // 1 % 2 == channel 1
	if _, err := f.Write(0, l1, []byte("channel one")); err != nil {
		t.Fatal(err)
	}

	// Take channel 0's entire lock footprint and sit on it.
	f.chans[0].mu.Lock()
	for s := range f.stripes {
		if s%channels == 0 {
			f.stripes[s].mu.Lock()
		}
	}
	release := func() {
		for s := range f.stripes {
			if s%channels == 0 {
				f.stripes[s].mu.Unlock()
			}
		}
		f.chans[0].mu.Unlock()
	}
	defer release()

	done := make(chan error, 1)
	go func() {
		if _, _, err := f.Read(0, l1); err != nil {
			done <- fmt.Errorf("read: %w", err)
			return
		}
		if _, err := f.Write(0, l1, []byte("rewrite")); err != nil {
			done <- fmt.Errorf("write: %w", err)
			return
		}
		if _, err := f.Translate(l1); err != nil {
			done <- fmt.Errorf("translate: %w", err)
			return
		}
		if err := f.SetID(l1, 3); err != nil {
			done <- fmt.Errorf("setid: %w", err)
			return
		}
		if _, _, _, err := f.ReadFor(0, l1, 3); err != nil {
			done <- fmt.Errorf("readfor: %w", err)
			return
		}
		done <- nil
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("channel-1 tenant blocked on a lock while channel 0 was held: locking is not sharded")
	}
}

// TestConcurrentChannelPinnedTenants races one writer+reader per channel,
// each pinned to its own channel's LPAs, with enough rewrite volume to
// force garbage collection mid-flight. Run under -race it checks the
// shard/stripe hierarchy protects the table, reverse map, and allocators;
// the per-LPA payload check catches torn mappings.
func TestConcurrentChannelPinnedTenants(t *testing.T) {
	geo := flash.Geometry{
		Channels:        4,
		ChipsPerChannel: 1,
		DiesPerChip:     1,
		PlanesPerDie:    1,
		BlocksPerPlane:  8,
		PagesPerBlock:   8,
		PageSize:        4096,
	}
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	f := New(dev, Config{})

	const rounds = 200
	lpasPerTenant := 4
	var wg sync.WaitGroup
	errs := make(chan error, geo.Channels)
	for ch := 0; ch < geo.Channels; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			// LPAs congruent to ch mod Channels all live on channel ch.
			lpas := make([]LPA, lpasPerTenant)
			for i := range lpas {
				lpas[i] = LPA(ch + i*geo.Channels)
			}
			at := sim.Time(0)
			for r := 0; r < rounds; r++ {
				l := lpas[r%lpasPerTenant]
				payload := []byte(fmt.Sprintf("ch%d r%d", ch, r))
				done, err := f.Write(at, l, payload)
				if err != nil {
					errs <- fmt.Errorf("ch %d write round %d: %w", ch, r, err)
					return
				}
				_, got, err := f.Read(done, l)
				if err != nil {
					errs <- fmt.Errorf("ch %d read round %d: %w", ch, r, err)
					return
				}
				if string(got[:len(payload)]) != string(payload) {
					errs <- fmt.Errorf("ch %d round %d: read %q, want %q", ch, r, got[:len(payload)], payload)
					return
				}
				at = done
			}
		}(ch)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.GCRuns == 0 {
		t.Fatal("workload never triggered GC; grow rounds so relocation races are exercised")
	}
	if want := int64(geo.Channels * rounds); st.HostWrites != want {
		t.Fatalf("host writes = %d, want %d", st.HostWrites, want)
	}
}

// TestClaimIDAtomicity pins the ownership-aware stamp: a claim on an
// unowned entry wins, an idempotent re-claim by the same ID succeeds, and
// a claim against a live owner fails typed without disturbing the entry.
func TestClaimIDAtomicity(t *testing.T) {
	f := newTestFTL(t)
	const l = LPA(3)
	if _, err := f.Write(0, l, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.ClaimID(l, 2); err != nil {
		t.Fatalf("claim of unowned entry: %v", err)
	}
	if err := f.ClaimID(l, 2); err != nil {
		t.Fatalf("idempotent re-claim: %v", err)
	}
	if err := f.ClaimID(l, 5); !errors.Is(err, ErrOwned) {
		t.Fatalf("claim against live owner returned %v, want ErrOwned", err)
	}
	if id, _ := f.IDOf(l); id != 2 {
		t.Fatalf("owner = %d after failed claim, want 2", id)
	}
}

// TestConcurrentMixedStripeOwnership races ID teardowns (ClearIDs takes
// every stripe in turn to visit its journal for the ID) against
// per-stripe reads and cross-tenant denied writes, the pattern TEE
// teardown produces while other tenants keep running.
func TestConcurrentMixedStripeOwnership(t *testing.T) {
	f := newTestFTL(t)
	var lpas []LPA
	for l := LPA(0); l < 16; l++ {
		if _, err := f.Write(0, l, []byte{byte(l)}); err != nil {
			t.Fatal(err)
		}
		if err := f.SetID(l, TEEID(1+l%2)); err != nil {
			t.Fatal(err)
		}
		lpas = append(lpas, l)
	}
	// Denied access is a legal race outcome (ownership churns under
	// ClearIDs); anything else — unmapped entries, device-full — means the
	// shard/stripe split tore state and must fail the test.
	okErr := func(err error) bool { return err == nil || errors.Is(err, ErrAccessDenied) }
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := TEEID(1 + w%2)
			for r := 0; r < 100; r++ {
				l := lpas[(w+r)%len(lpas)]
				if _, err := f.TranslateFor(l, id); !okErr(err) {
					errCh <- fmt.Errorf("worker %d TranslateFor(%d): %w", w, l, err)
					return
				}
				if _, _, _, err := f.WriteFor(0, l, []byte{byte(r)}, id); !okErr(err) {
					errCh <- fmt.Errorf("worker %d WriteFor(%d): %w", w, l, err)
					return
				}
				if r%10 == 0 {
					f.ClearIDs(id)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
