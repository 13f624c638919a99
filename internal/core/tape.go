package core

import (
	"math"

	"iceclave/internal/mee"
	"iceclave/internal/sim"
	"iceclave/internal/workload"
)

// The synthesized TEE-heap address region for intermediate data: up to
// 16 MB of writable pages far above any input page index. Its size comes
// from the workload's measured working set (hash tables, buckets, output
// buffers), bounded by the 16 MB TEE heap preallocation.
const (
	heapBasePage = uint64(1) << 22
	maxHeapPages = uint64(16<<20) / mee.PageSize
)

// tapeKey identifies one tenant's MEE charge stream: everything the charge
// computation reads. The trace is keyed by identity (a recorded trace is
// immutable), the heap size and page size come from it, and the seed is
// the tenant's RNG seed. Two tenants with equal keys charge bit-identical
// streams, whatever else differs between their runs — flash timing,
// channel count, admission, collocated tenants — because the stream reads
// no shared or timing-dependent state.
type tapeKey struct {
	trace        *workload.Trace
	mode         mee.Mode
	counterCache uint64
	sampling     int
	exposure     uint64 // math.Float64bits of Config.MEEExposure
	seed         uint64
}

// newTapeKey returns the charge-stream key of a tenant replaying tr under
// cfg with RNG seed seed.
func newTapeKey(tr *workload.Trace, cfg *Config, seed uint64) tapeKey {
	sampling := cfg.MEESampling
	if sampling < 1 {
		sampling = 1
	}
	return tapeKey{
		trace:        tr,
		mode:         cfg.MEEMode,
		counterCache: cfg.CounterCacheBytes,
		sampling:     sampling,
		exposure:     math.Float64bits(cfg.MEEExposure),
		seed:         seed,
	}
}

// chargeTape is one tenant's MEE charge stream, recorded once and replayed
// from then on: the exposed duration of every step 0..len(Steps) (the
// tail included) and the traffic model's final statistics. Most steps
// charge nothing, so only the non-zero charges are stored, as parallel
// (step, charge) arrays in step order that a replay walks with a cursor.
// A tape is read-only once built and shared by concurrent replays.
type chargeTape struct {
	key    tapeKey
	at     []uint32       // steps with a non-zero charge, ascending
	charge []sim.Duration // charge[i] is step at[i]'s exposed duration
	stats  mee.TrafficStats
}

// buildTape runs a fresh counter-cache traffic model over the first n
// steps of k's stream (n = len(Steps)+1 for the whole trace) and records
// the result. The access stream — addresses, order, and RNG draws — is
// exactly what a live per-step model would see, so replaying the tape
// changes no Result bit.
func buildTape(k tapeKey, n int) *chargeTape {
	g := newChargeGen(k)
	tp := &chargeTape{key: k}
	for i := 0; i < n; i++ {
		if d := g.step(i); d != 0 {
			tp.at = append(tp.at, uint32(i))
			tp.charge = append(tp.charge, d)
		}
	}
	tp.stats = g.model.Stats()
	return tp
}

// chargeGen is the tape builder's per-stream state: the counter-cache
// model, the heap-address RNG, and a reused address buffer.
type chargeGen struct {
	model     *mee.TrafficModel
	rng       *sim.RNG
	trace     *workload.Trace
	heapPages uint64
	sampling  int64
	exposure  float64
	// scratch is the reused address buffer cost fills per step; it grows
	// to the largest step's batch once and never reallocates.
	scratch []uint64
}

// newChargeGen returns a fresh generator for k's stream, positioned
// before step 0.
func newChargeGen(k tapeKey) *chargeGen {
	tr := k.trace
	heapPages := uint64(tr.Meter.Intermediate/mee.PageSize) + 1
	if heapPages > maxHeapPages {
		heapPages = maxHeapPages
	}
	g := &chargeGen{
		model: mee.NewTrafficModel(mee.TrafficConfig{
			Mode:              k.mode,
			CounterCacheBytes: k.counterCache,
			SampleWeight:      k.sampling,
		}),
		rng:       sim.NewRNG(k.seed),
		trace:     tr,
		heapPages: heapPages,
		sampling:  int64(k.sampling),
		exposure:  math.Float64frombits(k.exposure),
	}
	// The intermediate/result region of the TEE heap is writable; input
	// pages default to read-only.
	for p := uint64(0); p < heapPages; p++ {
		g.model.SetPageWritable(heapBasePage+p, true)
	}
	return g
}

// step charges step i of the stream (i = len(Steps) is the tail) and
// returns its exposed duration. Steps must be charged in order; a step
// without memory traffic charges nothing and leaves the model and RNG
// untouched.
func (g *chargeGen) step(i int) sim.Duration {
	st := g.trace.Tail
	if i < len(g.trace.Steps) {
		st = g.trace.Steps[i]
	}
	if st.PreMemReads == 0 && st.PreMemWrites == 0 {
		return 0
	}
	return g.cost(st)
}

// cost synthesizes addresses for the step's memory accesses and runs them
// (sampled) through the counter-cache model's bulk APIs, returning the
// exposed duration. Heap traffic (hash tables, aggregation state,
// intermediate buffers) follows a skewed distribution — hot structures
// dominate — and the exposed cost of the extra metadata traffic is scaled
// by the exposure factor because memory-level parallelism overlaps most
// of it with execution.
//
// The input scan goes through AccessSeq (one call per step,
// run-collapsed metadata probes) and the heap batch through AccessMany
// over the reused scratch slice, so the per-step path allocates nothing.
// The access stream is exactly the per-line loop's, so every reported
// statistic is unchanged (mee's differential suite pins the model side;
// the suite's golden table digests pin end to end).
func (g *chargeGen) cost(st workload.Step) sim.Duration {
	sampling := g.sampling
	var extra sim.Duration
	// Input page scan: sequential read-only lines at the page's address,
	// every sampling-th line.
	pageLines := int64(g.trace.PageSize / mee.LineSize)
	seqReads := st.PreMemReads
	if seqReads > pageLines {
		seqReads = pageLines
	}
	base := uint64(st.LPA) * uint64(g.trace.PageSize)
	if n := (seqReads + sampling - 1) / sampling; n > 0 {
		extra += g.model.AccessSeq(base, n, false, uint64(sampling)*mee.LineSize)
	}
	// Remaining reads and all writes: skewed traffic in the writable
	// intermediate heap. Only the cache-miss fraction of heap accesses
	// reaches DRAM (and thus the MEE); the processor caches absorb the
	// rest (~25% miss). Addresses are drawn read-batch first, then
	// write-batch — the same RNG sequence the per-line loop consumed.
	randReads := (st.PreMemReads - seqReads) / 4
	randWrites := st.PreMemWrites / 4
	nr := (randReads + sampling - 1) / sampling
	nw := (randWrites + sampling - 1) / sampling
	if need := int(nr + nw); cap(g.scratch) < need {
		g.scratch = make([]uint64, need)
	}
	addrs := g.scratch[:nr+nw]
	for i := range addrs {
		page := heapBasePage + uint64(g.rng.Zipf(int64(g.heapPages), 0.85, 0.05))
		addrs[i] = page*mee.PageSize + uint64(g.rng.Intn(mee.LinesPerPage))*mee.LineSize
	}
	extra += g.model.AccessMany(addrs[:nr], false)
	extra += g.model.AccessMany(addrs[nr:], true)
	return sim.Duration(float64(extra) * g.exposure)
}
