package flash

import (
	"bytes"
	"testing"

	"iceclave/internal/sim"
)

func testDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(testGeometry(), DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestProgramReadRoundTrip(t *testing.T) {
	d := testDevice(t)
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	done, err := d.Program(0, 10, payload)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("program took no time")
	}
	_, data, err := d.Read(done, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("read returned different data")
	}
}

func TestEraseBeforeWriteDiscipline(t *testing.T) {
	d := testDevice(t)
	if _, err := d.Program(0, 5, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(0, 5, nil); err == nil {
		t.Fatal("double program accepted")
	}
	if err := d.Invalidate(5); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(0, 5, nil); err == nil {
		t.Fatal("program of invalid (un-erased) page accepted")
	}
	if _, err := d.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(0, 5, nil); err != nil {
		t.Fatalf("program after erase rejected: %v", err)
	}
}

func TestReadFreePageRejected(t *testing.T) {
	d := testDevice(t)
	if _, _, err := d.Read(0, 3); err == nil {
		t.Fatal("read of free page accepted")
	}
}

func TestEraseWithValidPagesRejected(t *testing.T) {
	d := testDevice(t)
	if _, err := d.Program(0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Erase(0, 0); err == nil {
		t.Fatal("erase of block with valid page accepted")
	}
}

func TestEraseCountAndState(t *testing.T) {
	d := testDevice(t)
	d.Program(0, 0, nil)
	d.Invalidate(0)
	if _, err := d.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	if d.EraseCount(0) != 1 {
		t.Fatalf("erase count = %d, want 1", d.EraseCount(0))
	}
	if d.State(0) != PageFree {
		t.Fatal("page not free after erase")
	}
}

func TestReadTimingIncludesArrayAndBus(t *testing.T) {
	d := testDevice(t)
	d.Program(0, 0, nil)
	tm := d.Timing()
	start := sim.Time(1000 * sim.Microsecond)
	done, _, err := d.Read(start, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := start + tm.ReadLatency + sim.DurationForBytes(4096, tm.ChannelBandwidth)
	if done != want {
		t.Fatalf("read done = %v, want %v", done, want)
	}
}

func TestChannelContentionSerializesTransfers(t *testing.T) {
	g := testGeometry()
	g.Channels = 1
	d, err := NewDevice(g, DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	// Two pages on different dies of the same channel: array reads overlap,
	// bus transfers serialize.
	pagesPerDie := PPA(int64(g.PlanesPerDie) * g.PagesPerPlane())
	p1, p2 := PPA(0), pagesPerDie
	if g.DieIndex(p1) == g.DieIndex(p2) {
		t.Fatal("test pages on same die")
	}
	d.Program(0, p1, nil)
	d.Program(0, p2, nil)
	d.ResetTiming()
	xfer := sim.DurationForBytes(4096, d.Timing().ChannelBandwidth)
	done1, _, _ := d.Read(0, p1)
	done2, _, _ := d.Read(0, p2)
	if done2 != done1+xfer {
		t.Fatalf("second read done=%v, want %v (bus-serialized)", done2, done1+xfer)
	}
}

func TestDieContentionSerializesReads(t *testing.T) {
	d := testDevice(t)
	d.Program(0, 0, nil)
	d.Program(0, 1, nil) // same die, same plane
	d.ResetTiming()
	tm := d.Timing()
	done1, _, _ := d.Read(0, 0)
	done2, _, _ := d.Read(0, 1)
	if done2 < done1+tm.ReadLatency {
		t.Fatalf("same-die reads overlapped: %v then %v", done1, done2)
	}
}

func TestChannelParallelismAcrossChannels(t *testing.T) {
	d := testDevice(t)
	g := d.Geometry()
	pagesPerChannel := PPA(int64(g.ChipsPerChannel) * int64(g.DiesPerChip) * int64(g.PlanesPerDie) * g.PagesPerPlane())
	p1, p2 := PPA(0), pagesPerChannel // channel 0 and channel 1
	if g.ChannelOf(p1) == g.ChannelOf(p2) {
		t.Fatal("test pages on same channel")
	}
	d.Program(0, p1, nil)
	d.Program(0, p2, nil)
	d.ResetTiming()
	done1, _, _ := d.Read(0, p1)
	done2, _, _ := d.Read(0, p2)
	if done1 != done2 {
		t.Fatalf("cross-channel reads should fully overlap: %v vs %v", done1, done2)
	}
}

func TestStats(t *testing.T) {
	d := testDevice(t)
	d.Program(0, 0, nil)
	d.Read(0, 0)
	d.Invalidate(0)
	d.Erase(0, 0)
	s := d.Snapshot()
	if s.Programs != 1 || s.Reads != 1 || s.Erases != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BytesRead != 4096 || s.BytesWritten != 4096 {
		t.Fatalf("byte stats = %+v", s)
	}
}

func TestValidPages(t *testing.T) {
	d := testDevice(t)
	d.Program(0, 0, nil)
	d.Program(0, 1, nil)
	d.Program(0, 2, nil)
	d.Invalidate(1)
	if n := d.ValidPages(0); n != 2 {
		t.Fatalf("valid pages = %d, want 2", n)
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	d := testDevice(t)
	if _, err := d.Program(0, 0, make([]byte, 4097)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestOutOfRangePPARejected(t *testing.T) {
	d := testDevice(t)
	bad := PPA(d.Geometry().TotalPages())
	if _, _, err := d.Read(0, bad); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := d.Program(0, bad, nil); err == nil {
		t.Fatal("out-of-range program accepted")
	}
	if err := d.Invalidate(bad); err == nil {
		t.Fatal("out-of-range invalidate accepted")
	}
	if _, err := d.Erase(0, BlockID(d.Geometry().TotalBlocks())); err == nil {
		t.Fatal("out-of-range erase accepted")
	}
}

func TestInternalBandwidth(t *testing.T) {
	d := testDevice(t)
	want := 8 * 600.0 * (1 << 20)
	if got := d.InternalBandwidth(); got != want {
		t.Fatalf("internal bandwidth = %v, want %v", got, want)
	}
}

// benchDevice is the 8-channel, 65,536-page device the flash benchmarks
// run on.
func benchDevice(b *testing.B) *Device {
	b.Helper()
	d, err := NewDevice(Geometry{
		Channels: 8, ChipsPerChannel: 1, DiesPerChip: 2, PlanesPerDie: 1,
		BlocksPerPlane: 64, PagesPerBlock: 64, PageSize: 4096,
	}, DefaultTiming())
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkProgram times one timing-only page program (nil payload, as
// core replay issues them) into the next free page in PPA order. When the
// device is full the timer stops while every page is invalidated and
// every block erased.
func BenchmarkProgram(b *testing.B) {
	d := benchDevice(b)
	geo := d.Geometry()
	total := geo.TotalPages()
	var at sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := PPA(int64(i) % total)
		if i > 0 && p == 0 {
			b.StopTimer()
			for q := PPA(0); int64(q) < total; q++ {
				if err := d.Invalidate(q); err != nil {
					b.Fatal(err)
				}
			}
			for blk := BlockID(0); int64(blk) < geo.TotalBlocks(); blk++ {
				if _, err := d.Erase(at, blk); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
		var err error
		if at, err = d.Program(at, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRead times one page read of a programmed page, visiting every
// page of the device in a stride-5 order.
func BenchmarkRead(b *testing.B) {
	d := benchDevice(b)
	total := d.Geometry().TotalPages()
	for p := PPA(0); int64(p) < total; p++ {
		if _, err := d.Program(0, p, nil); err != nil {
			b.Fatal(err)
		}
	}
	var at sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if at, _, err = d.Read(at, PPA(int64(i)*5%total)); err != nil {
			b.Fatal(err)
		}
	}
}
