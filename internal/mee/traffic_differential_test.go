package mee

import (
	"testing"

	"iceclave/internal/sim"
)

// pair is a TrafficModel and its TrafficReference oracle driven in
// lockstep; every helper asserts full observable-state parity: traffic
// stats, counter-cache stats, and accumulated latency.
type pair struct {
	m      *TrafficModel
	r      *TrafficReference
	mExtra sim.Duration
	rExtra sim.Duration
}

func newPair(cfg TrafficConfig) *pair {
	return &pair{m: NewTrafficModel(cfg), r: NewTrafficReference(cfg)}
}

func (p *pair) setWritable(page uint64, v bool) {
	p.m.SetPageWritable(page, v)
	p.r.SetPageWritable(page, v)
}

func (p *pair) access(addr uint64, write bool) {
	p.mExtra += p.m.Access(addr, write)
	p.rExtra += p.r.Access(addr, write)
}

// seq drives the batched AccessSeq against the oracle's per-line loop.
func (p *pair) seq(base uint64, n int64, write bool, stride uint64) {
	p.mExtra += p.m.AccessSeq(base, n, write, stride)
	s := stride
	if s == 0 {
		s = LineSize
	}
	for j := int64(0); j < n; j++ {
		p.rExtra += p.r.Access(base+uint64(j)*s, write)
	}
}

// many drives the batched AccessMany against the oracle's per-line loop.
func (p *pair) many(addrs []uint64, write bool) {
	p.mExtra += p.m.AccessMany(addrs, write)
	for _, a := range addrs {
		p.rExtra += p.r.Access(a, write)
	}
}

func (p *pair) check(t *testing.T, ctx string) {
	t.Helper()
	if ms, rs := p.m.Stats(), p.r.Stats(); ms != rs {
		t.Fatalf("%s: traffic stats diverge:\nbatched: %+v\noracle:  %+v", ctx, ms, rs)
	}
	if mc, rc := p.m.CounterCacheStats(), p.r.CounterCacheStats(); mc != rc {
		t.Fatalf("%s: counter-cache stats diverge:\nbatched: %+v\noracle:  %+v", ctx, mc, rc)
	}
	if p.mExtra != p.rExtra {
		t.Fatalf("%s: latency sums diverge: batched %v, oracle %v", ctx, p.mExtra, p.rExtra)
	}
}

// allConfigs is the mode x sample-weight matrix every differential test
// runs under.
func allConfigs() []TrafficConfig {
	var cfgs []TrafficConfig
	for _, mode := range []Mode{ModeNone, ModeSplit64, ModeHybrid} {
		for _, w := range []int{1, 8} {
			cfgs = append(cfgs, TrafficConfig{Mode: mode, SampleWeight: w})
		}
	}
	return cfgs
}

// TestSeqMatchesPerLine pins the tentpole contract on the streaming path:
// AccessSeq over read-only and writable regions, with the suite's sampled
// stride and with page-crossing runs, is bit-identical to the per-line
// loop in every mode and sample weight.
func TestSeqMatchesPerLine(t *testing.T) {
	for _, cfg := range allConfigs() {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			p := newPair(cfg)
			// Writable intermediate region, pages 1024..1087.
			for pg := uint64(1024); pg < 1088; pg++ {
				p.setWritable(pg, true)
			}
			// Read-only input scan: 16 pages, line stride.
			p.seq(0, 16*LinesPerPage, false, LineSize)
			p.check(t, "ro scan")
			// Sampled scan (the core MEE charge shape): stride 8 lines.
			p.seq(64*PageSize, 64, false, 8*LineSize)
			p.check(t, "sampled ro scan")
			// Writable-region scan: reads then writes (writes advance
			// minors and, over repeats, overflow into re-encryption).
			for rep := 0; rep < 12; rep++ {
				p.seq(1024*PageSize, 8*LinesPerPage, true, LineSize)
			}
			p.check(t, "writable write scan")
			p.seq(1024*PageSize, 8*LinesPerPage, false, LineSize)
			p.check(t, "writable read scan")
			// Unaligned base, odd stride, crossing pages and MAC lines.
			p.seq(1000*PageSize+40, 300, true, 3*LineSize/2)
			p.check(t, "unaligned odd stride")
			// Stride wider than a page: every access its own group.
			p.seq(0, 32, false, PageSize+LineSize)
			p.check(t, "page stride")
		})
	}
}

// TestManyMatchesPerLine pins AccessMany on skewed heap-like batches.
func TestManyMatchesPerLine(t *testing.T) {
	for _, cfg := range allConfigs() {
		t.Run(cfg.Mode.String(), func(t *testing.T) {
			p := newPair(cfg)
			const heapBase = uint64(1) << 22
			const heapPages = 64
			for pg := uint64(0); pg < heapPages; pg++ {
				p.setWritable(heapBase+pg, true)
			}
			rng := sim.NewRNG(7)
			addrs := make([]uint64, 256)
			for round := 0; round < 8; round++ {
				for i := range addrs {
					page := heapBase + uint64(rng.Zipf(heapPages, 0.85, 0.05))
					addrs[i] = page*PageSize + uint64(rng.Intn(LinesPerPage))*LineSize
				}
				p.many(addrs[:128], false)
				p.many(addrs[128:], true)
			}
			p.check(t, "skewed heap")
		})
	}
}

// TestBatchBoundariesInvisible pins the documented contract directly: the
// same access stream sliced three ways — per-line, one big AccessSeq, and
// ragged AccessSeq/AccessMany pieces — lands on identical observable
// state.
func TestBatchBoundariesInvisible(t *testing.T) {
	cfg := TrafficConfig{Mode: ModeHybrid, SampleWeight: 4}
	const n = 6 * LinesPerPage
	build := func() *TrafficModel {
		m := NewTrafficModel(cfg)
		m.SetPageWritable(2, true)
		m.SetPageWritable(3, true)
		return m
	}
	perLine := build()
	var perExtra sim.Duration
	for j := int64(0); j < n; j++ {
		perExtra += perLine.Access(uint64(j)*LineSize, true)
	}
	oneSeq := build()
	seqExtra := oneSeq.AccessSeq(0, n, true, LineSize)
	ragged := build()
	var ragExtra sim.Duration
	ragExtra += ragged.AccessSeq(0, 37, true, LineSize)
	addrs := make([]uint64, 0, 64)
	for j := int64(37); j < 90; j++ {
		addrs = append(addrs, uint64(j)*LineSize)
	}
	ragExtra += ragged.AccessMany(addrs, true)
	ragExtra += ragged.AccessSeq(90*LineSize, n-90, true, LineSize)

	for _, other := range []struct {
		name  string
		m     *TrafficModel
		extra sim.Duration
	}{{"one-seq", oneSeq, seqExtra}, {"ragged", ragged, ragExtra}} {
		if perLine.Stats() != other.m.Stats() {
			t.Fatalf("%s: stats diverge from per-line:\n%+v\n%+v",
				other.name, perLine.Stats(), other.m.Stats())
		}
		if perLine.CounterCacheStats() != other.m.CounterCacheStats() {
			t.Fatalf("%s: cache stats diverge from per-line", other.name)
		}
		if perExtra != other.extra {
			t.Fatalf("%s: latency diverges: %v vs %v", other.name, perExtra, other.extra)
		}
	}
}

// TestSeqFallbackOnDegenerateCache drives AccessSeq on the smallest legal
// counter cache (one 8-way set), where a single write's metadata touches
// can exceed the set and evict each other — the group fast path must
// detect the self-eviction and fall back to the per-line loop, staying
// bit-identical to the oracle.
func TestSeqFallbackOnDegenerateCache(t *testing.T) {
	cfg := TrafficConfig{Mode: ModeSplit64, CounterCacheBytes: 512, SampleWeight: 1}
	p := newPair(cfg)
	// Large page index gives the deepest tree path (most steady lines).
	const base = uint64(1<<30) * PageSize
	p.seq(base, 4*LinesPerPage, true, LineSize)
	p.check(t, "degenerate write scan")
	p.seq(base, 4*LinesPerPage, false, LineSize)
	p.check(t, "degenerate read scan")
}

// TestSeqEdgeCases pins the trivial boundaries: empty runs, zero stride
// defaulting, and ModeNone bulk accounting.
func TestSeqEdgeCases(t *testing.T) {
	m := NewTrafficModel(TrafficConfig{Mode: ModeHybrid})
	if extra := m.AccessSeq(0, 0, false, LineSize); extra != 0 {
		t.Fatal("empty AccessSeq charged latency")
	}
	if extra := m.AccessMany(nil, true); extra != 0 {
		t.Fatal("empty AccessMany charged latency")
	}
	if m.Stats().DataAccesses() != 0 {
		t.Fatal("empty bulk calls counted accesses")
	}
	p := newPair(TrafficConfig{Mode: ModeHybrid, SampleWeight: 3})
	p.seq(5*PageSize, 10, false, 0) // zero stride = LineSize
	p.check(t, "zero stride")
	none := NewTrafficModel(TrafficConfig{Mode: ModeNone, SampleWeight: 5})
	none.AccessSeq(0, 100, false, LineSize)
	none.AccessSeq(0, 50, true, LineSize)
	if s := none.Stats(); s.DataReads != 500 || s.DataWrites != 250 {
		t.Fatalf("ModeNone bulk counts = %+v", s)
	}
}

// TestDynamicPermissionChangeBatched pins that SetPageWritable between
// batches lands on the same path the oracle takes — the group key (page
// writability) is resolved per call, never cached across batches.
func TestDynamicPermissionChangeBatched(t *testing.T) {
	p := newPair(TrafficConfig{Mode: ModeHybrid})
	p.seq(0, LinesPerPage, false, LineSize)
	p.setWritable(0, true)
	p.seq(0, LinesPerPage, true, LineSize)
	p.setWritable(0, false)
	p.seq(0, LinesPerPage, false, LineSize)
	p.check(t, "permission flip")
}
