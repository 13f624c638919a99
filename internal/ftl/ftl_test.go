package ftl

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"iceclave/internal/flash"
	"iceclave/internal/sim"
)

func smallGeometry() flash.Geometry {
	return flash.Geometry{
		Channels:        2,
		ChipsPerChannel: 1,
		DiesPerChip:     1,
		PlanesPerDie:    1,
		BlocksPerPlane:  16,
		PagesPerBlock:   8,
		PageSize:        4096,
	}
}

func newTestFTL(t *testing.T) *FTL {
	t.Helper()
	dev, err := flash.NewDevice(smallGeometry(), flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	return New(dev, Config{})
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := newTestFTL(t)
	data := make([]byte, 4096)
	copy(data, "hello flash")
	done, err := f.Write(0, 7, data)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := f.Read(done, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:11]) != "hello flash" {
		t.Fatalf("read back %q", got[:11])
	}
}

func TestUnmappedRead(t *testing.T) {
	f := newTestFTL(t)
	if _, _, err := f.Read(0, 0); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("err = %v, want ErrUnmapped", err)
	}
}

func TestRewriteInvalidatesOldPage(t *testing.T) {
	f := newTestFTL(t)
	f.Write(0, 3, []byte("v1"))
	p1, _ := f.Translate(3)
	f.Write(0, 3, []byte("v2"))
	p2, _ := f.Translate(3)
	if p1 == p2 {
		t.Fatal("rewrite did not move the page (out-of-place violated)")
	}
	if f.Device().State(p1) != flash.PageInvalid {
		t.Fatal("old page not invalidated")
	}
	_, got, err := f.Read(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:2]) != "v2" {
		t.Fatalf("read back %q, want v2", got[:2])
	}
}

func TestIDBitsEnforced(t *testing.T) {
	f := newTestFTL(t)
	f.Write(0, 5, nil)
	if err := f.SetID(5, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.TranslateFor(5, 3); err != nil {
		t.Fatalf("owner denied: %v", err)
	}
	if _, err := f.TranslateFor(5, 4); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("non-owner allowed: %v", err)
	}
	if _, err := f.TranslateFor(5, IDNone); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("unowned caller allowed: %v", err)
	}
}

func TestIDSurvivesRewriteAndGC(t *testing.T) {
	f := newTestFTL(t)
	f.Write(0, 2, nil)
	f.SetID(2, 7)
	f.Write(0, 2, nil) // rewrite
	if id, _ := f.IDOf(2); id != 7 {
		t.Fatalf("ID after rewrite = %d, want 7", id)
	}
}

func TestClearIDs(t *testing.T) {
	f := newTestFTL(t)
	f.Write(0, 1, nil)
	f.Write(0, 3, nil)
	f.SetID(1, 5)
	f.SetID(3, 5)
	f.ClearIDs(5)
	for _, l := range []LPA{1, 3} {
		if id, _ := f.IDOf(l); id != IDNone {
			t.Fatalf("LPA %d ID = %d after clear", l, id)
		}
	}
}

func TestSetIDValidation(t *testing.T) {
	f := newTestFTL(t)
	if err := f.SetID(0, 16); err == nil {
		t.Fatal("5-bit ID accepted")
	}
	if err := f.SetID(LPA(f.LogicalPages()), 1); err == nil {
		t.Fatal("out-of-range LPA accepted")
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	f := newTestFTL(t)
	// Hammer a small set of LPAs far beyond one block's worth of pages so
	// GC must run.
	var at sim.Time
	for i := 0; i < 500; i++ {
		l := LPA(i % 4)
		done, err := f.Write(at, l, nil)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		at = done
	}
	if f.Stats().GCRuns == 0 {
		t.Fatal("GC never ran")
	}
	if f.Stats().Erases == 0 {
		t.Fatal("GC never erased")
	}
}

func TestReadYourWritesUnderGCProperty(t *testing.T) {
	// Property: for any random write workload (heavy overwrites forcing
	// GC), every LPA reads back the last value written to it.
	f := func(seed uint64) bool {
		dev, err := flash.NewDevice(smallGeometry(), flash.DefaultTiming())
		if err != nil {
			return false
		}
		fl := New(dev, Config{})
		rng := sim.NewRNG(seed)
		const lpas = 24
		shadow := make(map[LPA]uint64)
		var at sim.Time
		for i := 0; i < 400; i++ {
			l := LPA(rng.Intn(lpas))
			v := rng.Uint64()
			buf := make([]byte, 16)
			binary.LittleEndian.PutUint64(buf, v)
			done, err := fl.Write(at, l, buf)
			if err != nil {
				return false
			}
			at = done
			shadow[l] = v
			// Occasionally verify a random written LPA mid-stream.
			if i%17 == 0 {
				for probe, want := range shadow {
					_, got, err := fl.Read(at, probe)
					if err != nil || binary.LittleEndian.Uint64(got) != want {
						return false
					}
					break
				}
			}
		}
		for l, want := range shadow {
			_, got, err := fl.Read(at, l)
			if err != nil || binary.LittleEndian.Uint64(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestWearLevelingBoundsSpread(t *testing.T) {
	f := newTestFTL(t)
	var at sim.Time
	for i := 0; i < 3000; i++ {
		done, err := f.Write(at, LPA(i%8), nil)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	// With wear-aware allocation the spread should stay well below the
	// total erase count of the hottest blocks.
	if spread := f.MaxEraseSpread(); spread > 40 {
		t.Fatalf("erase-count spread = %d, wear leveling ineffective", spread)
	}
}

func TestWriteAmplificationReported(t *testing.T) {
	f := newTestFTL(t)
	var at sim.Time
	for i := 0; i < 600; i++ {
		done, err := f.Write(at, LPA(i%6), nil)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	wa := f.Stats().WriteAmplification()
	if wa < 1.0 {
		t.Fatalf("write amplification = %v, must be >= 1", wa)
	}
}

func TestDeviceFillsToLogicalCapacity(t *testing.T) {
	f := newTestFTL(t)
	var at sim.Time
	for l := LPA(0); int64(l) < f.LogicalPages(); l++ {
		done, err := f.Write(at, l, nil)
		if err != nil {
			t.Fatalf("write of LPA %d within logical capacity failed: %v", l, err)
		}
		at = done
	}
	// All logical pages written once: every LPA still readable.
	for l := LPA(0); int64(l) < f.LogicalPages(); l += 13 {
		if _, err := f.Translate(l); err != nil {
			t.Fatalf("translate %d: %v", l, err)
		}
	}
}

func TestOverProvisionReservesSpace(t *testing.T) {
	f := newTestFTL(t)
	geo := smallGeometry()
	if f.LogicalPages() >= geo.TotalPages() {
		t.Fatal("no over-provisioning reserved")
	}
}

// benchFTL builds an FTL over an 8-channel device of 65,536 pages and
// maps its first three quarters of logical space with timing-only writes
// (nil payloads, as core replay issues them), so a benchmark starts from
// a steady state in which rewrites need garbage collection. It returns
// the FTL, the mapped LPA count, and the simulated time the fill ended.
func benchFTL(b *testing.B) (*FTL, int, sim.Time) {
	b.Helper()
	geo := flash.Geometry{
		Channels: 8, ChipsPerChannel: 1, DiesPerChip: 2, PlanesPerDie: 1,
		BlocksPerPlane: 64, PagesPerBlock: 64, PageSize: 4096,
	}
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		b.Fatal(err)
	}
	f := New(dev, Config{})
	n := int(f.LogicalPages() * 3 / 4)
	var at sim.Time
	for l := 0; l < n; l++ {
		if at, err = f.Write(at, LPA(l), nil); err != nil {
			b.Fatal(err)
		}
	}
	return f, n, at
}

// BenchmarkWrite times one out-of-place FTL write — stage, device
// program, commit, and the garbage collection it triggers amortized over
// the ops — rewriting the mapped LPAs in a stride-5 order.
func BenchmarkWrite(b *testing.B) {
	f, n, at := benchFTL(b)
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if at, err = f.Write(at, LPA(i*5%n), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslate times one mapping-table lookup of a mapped LPA, the
// call core replay makes for every read step.
func BenchmarkTranslate(b *testing.B) {
	f, n, _ := benchFTL(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Translate(LPA(i * 5 % n)); err != nil {
			b.Fatal(err)
		}
	}
}
