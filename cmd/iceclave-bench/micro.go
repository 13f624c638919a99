package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"iceclave/internal/core"
	"iceclave/internal/experiments"
	"iceclave/internal/fault"
	"iceclave/internal/flash"
	"iceclave/internal/ftl"
	"iceclave/internal/mee"
	"iceclave/internal/sched"
	"iceclave/internal/sim"
	"iceclave/internal/trivium"
	"iceclave/internal/workload"
)

// triviumResults records the cipher microbenchmark: one encrypted-page
// unit of work (key schedule + 4 KB keystream) for the bit-serial
// reference and the word-parallel production engine. The speedup is the
// number `make bench-compare` checks against the >= 10x floor.
type triviumResults struct {
	PageBytes          int     `json:"page_bytes"`
	BitserialNsPerPage int64   `json:"bitserial_ns_per_page"`
	Word64NsPerPage    int64   `json:"word64_ns_per_page"`
	Speedup            float64 `json:"speedup"`
	Word64MBPerS       float64 `json:"word64_mb_per_s"`
}

// ftlResults records the lock-sharding microbenchmark: write+read round
// trips through the FTL with all tenants on one goroutine vs one goroutine
// per channel (each pinned to its own channel's LPAs, so the sharded locks
// never collide). On a 1-CPU container parallel_speedup sits near 1x; see
// docs/BENCHMARKS.md.
type ftlResults struct {
	Channels           int     `json:"channels"`
	Stripes            int     `json:"mapping_stripes"`
	OpsPerTenant       int     `json:"ops_per_tenant"`
	SerialPagesPerSec  float64 `json:"serial_pages_per_sec"`
	ShardedPagesPerSec float64 `json:"sharded_parallel_pages_per_sec"`
	ParallelSpeedup    float64 `json:"parallel_speedup"`
}

// benchTrivium times Reset+Keystream over a flash page for both cipher
// implementations. The bit-serial oracle is ~100x slower, so it gets a
// smaller iteration budget at equal statistical weight.
func benchTrivium() triviumResults {
	const pageBytes = 4096
	key := []byte("iceclave-k")
	iv := make([]byte, trivium.IVSize)
	page := make([]byte, pageBytes)

	var ref trivium.Reference
	const refIters = 64
	t0 := time.Now()
	for i := 0; i < refIters; i++ {
		iv[9] = byte(i)
		ref.Reset(key, iv)
		ref.Keystream(page)
	}
	bitNs := time.Since(t0).Nanoseconds() / refIters

	var word trivium.Cipher
	const wordIters = 8192
	t1 := time.Now()
	for i := 0; i < wordIters; i++ {
		iv[9] = byte(i)
		word.Reset(key, iv)
		word.Keystream(page)
	}
	wordNs := time.Since(t1).Nanoseconds() / wordIters

	return triviumResults{
		PageBytes:          pageBytes,
		BitserialNsPerPage: bitNs,
		Word64NsPerPage:    wordNs,
		Speedup:            float64(bitNs) / float64(wordNs),
		Word64MBPerS:       float64(pageBytes) / (float64(wordNs) / 1e9) / (1 << 20),
	}
}

// benchFTL measures cross-channel scaling of the sharded FTL: the same
// per-tenant op sequence (out-of-place write + fused translate/read, with
// enough rewrites to trigger GC) run serially and then with one goroutine
// per channel.
func benchFTL() (ftlResults, error) {
	const opsPerTenant = 2000
	geo := flash.Geometry{
		Channels:        4,
		ChipsPerChannel: 1,
		DiesPerChip:     1,
		PlanesPerDie:    1,
		BlocksPerPlane:  16,
		PagesPerBlock:   16,
		PageSize:        4096,
	}
	build := func() (*ftl.FTL, error) {
		dev, err := flash.NewDevice(geo, flash.DefaultTiming())
		if err != nil {
			return nil, err
		}
		return ftl.New(dev, ftl.Config{}), nil
	}
	payload := make([]byte, 64)
	tenant := func(f *ftl.FTL, ch int) error {
		lpas := [4]ftl.LPA{}
		for i := range lpas {
			lpas[i] = ftl.LPA(ch + i*geo.Channels) // pinned to channel ch
		}
		at := sim.Time(0)
		for r := 0; r < opsPerTenant; r++ {
			l := lpas[r%len(lpas)]
			done, err := f.Write(at, l, payload)
			if err != nil {
				return err
			}
			if _, _, err := f.Read(done, l); err != nil {
				return err
			}
			at = done
		}
		return nil
	}

	fSerial, err := build()
	if err != nil {
		return ftlResults{}, err
	}
	t0 := time.Now()
	for ch := 0; ch < geo.Channels; ch++ {
		if err := tenant(fSerial, ch); err != nil {
			return ftlResults{}, err
		}
	}
	serialSec := time.Since(t0).Seconds()

	fPar, err := build()
	if err != nil {
		return ftlResults{}, err
	}
	var wg sync.WaitGroup
	errCh := make(chan error, geo.Channels)
	t1 := time.Now()
	for ch := 0; ch < geo.Channels; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			if err := tenant(fPar, ch); err != nil {
				errCh <- err
			}
		}(ch)
	}
	wg.Wait()
	parSec := time.Since(t1).Seconds()
	close(errCh)
	for err := range errCh {
		return ftlResults{}, err
	}

	pages := float64(geo.Channels * opsPerTenant * 2) // one write + one read per op
	return ftlResults{
		Channels:           geo.Channels,
		Stripes:            fPar.Stripes(),
		OpsPerTenant:       opsPerTenant,
		SerialPagesPerSec:  pages / serialSec,
		ShardedPagesPerSec: pages / parSec,
		ParallelSpeedup:    serialSec / parSec,
	}, nil
}

// dieOverlapResults records the die-pipelining microbenchmark in
// SIMULATED time: the same burst of programs aimed at one channel,
// completing on a single die (serialized by tPROG) versus striped across
// the channel's dies (only the short bus transfers serialize). The
// speedup is virtual-time, so it is deterministic — `make bench-compare`
// fails if it regresses to the serialized baseline.
type dieOverlapResults struct {
	DiesPerChannel   int     `json:"dies_per_channel"`
	Programs         int     `json:"programs"`
	SerializedNs     int64   `json:"single_die_done_ns"`
	PipelinedNs      int64   `json:"multi_die_done_ns"`
	OverlapSpeedup   float64 `json:"overlap_speedup"`
	ProgramLatencyNs int64   `json:"tprog_ns"`
}

// queueingResults records the virtual-time admission microbenchmark: N
// equal-length tenant jobs through the sched simulated-time gate with a
// fixed slot count, once per grant policy. Deterministic: with service S
// and k slots, per-release job i waits floor(i/k)*S; the batched run
// additionally rounds every grant up to its quantum tick, and
// batched_grant_ticks counts the scheduling passes the firmware would
// run — the quantity batching exists to bound.
type queueingResults struct {
	Tenants           int   `json:"tenants"`
	Slots             int   `json:"slots"`
	ServiceNs         int64 `json:"service_ns"`
	TotalWaitNs       int64 `json:"total_queue_wait_ns"`
	MeanWaitNs        int64 `json:"mean_queue_wait_ns"`
	BatchedQuantumNs  int64 `json:"batched_quantum_ns"`
	BatchedMeanWaitNs int64 `json:"batched_mean_queue_wait_ns"`
	BatchedTicks      int64 `json:"batched_grant_ticks"`
}

// benchDieOverlap drives one burst of same-channel programs through the
// FTL against a single-die channel and a multi-die channel and compares
// the virtual completion times.
func benchDieOverlap() (dieOverlapResults, error) {
	const programs = 8
	const diesPerChannel = 4
	run := func(dies int) (sim.Time, error) {
		geo := flash.Geometry{
			Channels:        2,
			ChipsPerChannel: dies,
			DiesPerChip:     1,
			PlanesPerDie:    1,
			BlocksPerPlane:  8,
			PagesPerBlock:   16,
			PageSize:        4096,
		}
		dev, err := flash.NewDevice(geo, flash.DefaultTiming())
		if err != nil {
			return 0, err
		}
		f := ftl.New(dev, ftl.Config{})
		var last sim.Time
		for i := 0; i < programs; i++ {
			// Even LPAs stay on channel 0; all issued at t=0 so the only
			// serialization is what the timing model imposes.
			done, err := f.Write(0, ftl.LPA(2*i), nil)
			if err != nil {
				return 0, err
			}
			if done > last {
				last = done
			}
		}
		return last, nil
	}
	serial, err := run(1)
	if err != nil {
		return dieOverlapResults{}, err
	}
	pipelined, err := run(diesPerChannel)
	if err != nil {
		return dieOverlapResults{}, err
	}
	return dieOverlapResults{
		DiesPerChannel:   diesPerChannel,
		Programs:         programs,
		SerializedNs:     int64(serial),
		PipelinedNs:      int64(pipelined),
		OverlapSpeedup:   float64(serial) / float64(pipelined),
		ProgramLatencyNs: int64(flash.DefaultTiming().ProgramLatency),
	}, nil
}

// writeStormResults records the many-channel write-storm microbenchmark:
// the same program/invalidate/erase churn against flash.Device, run with
// every channel's ops on one goroutine and then with one goroutine per
// channel. The ops go straight at the device (no FTL), so the measurement
// isolates the device's own locking: with per-channel functional shards,
// cross-channel writers share no lock and the parallel pass scales with
// available cores. On a 1-CPU container the speedup sits near 1x (see
// docs/BENCHMARKS.md); the gate floor adapts to GOMAXPROCS so the
// bench-compare check still catches a sharding regression (parallel
// falling well below serial means cross-channel ops are contending on a
// shared lock again) without demanding parallelism one core cannot give.
type writeStormResults struct {
	Channels            int     `json:"channels"`
	ProgramsPerChannel  int     `json:"programs_per_channel"`
	SerialPagesPerSec   float64 `json:"serial_pages_per_sec"`
	ParallelPagesPerSec float64 `json:"parallel_pages_per_sec"`
	ParallelSpeedup     float64 `json:"parallel_speedup"`
	GateFloor           float64 `json:"gate_floor"`
	GOMAXPROCS          int     `json:"gomaxprocs"`
}

// writeStormGate returns the bench-compare floor for the write-storm
// speedup: with >= 4 cores the cross-channel storm must scale at least
// 2x (the die-overlap analogue); with fewer cores wall-clock parallelism
// is unavailable, so the gate only rejects the pathological regression
// where the parallel pass collapses well below serial — the signature of
// cross-channel operations serializing on a re-introduced shared lock.
func writeStormGate(procs int) float64 {
	if procs >= 4 {
		return 2.0
	}
	return 0.7
}

// benchWriteStorm drives an 8-channel program/invalidate/erase storm
// through the device, serially and with one goroutine per channel, each
// pinned to its own channel's pages.
func benchWriteStorm() (writeStormResults, error) {
	geo := flash.Geometry{
		Channels:        8,
		ChipsPerChannel: 1,
		DiesPerChip:     1,
		PlanesPerDie:    1,
		BlocksPerPlane:  4,
		PagesPerBlock:   64,
		PageSize:        4096,
	}
	const rounds = 48 // full-channel program+invalidate+erase sweeps
	programsPerChannel := rounds * geo.BlocksPerPlane * geo.PagesPerBlock
	payload := make([]byte, 64)

	// storm churns every page of channel ch: program the channel full,
	// invalidate everything, erase the blocks, repeat.
	pagesPerChannel := geo.PagesPerChannel()
	blocksPerChannel := geo.BlocksPerChannel()
	storm := func(d *flash.Device, ch int) error {
		firstPage := flash.PPA(int64(ch) * pagesPerChannel)
		firstBlock := flash.BlockID(int64(ch) * blocksPerChannel)
		for r := 0; r < rounds; r++ {
			for p := int64(0); p < pagesPerChannel; p++ {
				if _, err := d.Program(0, firstPage+flash.PPA(p), payload); err != nil {
					return err
				}
			}
			for p := int64(0); p < pagesPerChannel; p++ {
				if err := d.Invalidate(firstPage + flash.PPA(p)); err != nil {
					return err
				}
			}
			for b := int64(0); b < blocksPerChannel; b++ {
				if _, err := d.Erase(0, firstBlock+flash.BlockID(b)); err != nil {
					return err
				}
			}
		}
		return nil
	}

	dSerial, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		return writeStormResults{}, err
	}
	t0 := time.Now()
	for ch := 0; ch < geo.Channels; ch++ {
		if err := storm(dSerial, ch); err != nil {
			return writeStormResults{}, err
		}
	}
	serialSec := time.Since(t0).Seconds()

	dPar, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		return writeStormResults{}, err
	}
	var wg sync.WaitGroup
	errCh := make(chan error, geo.Channels)
	t1 := time.Now()
	for ch := 0; ch < geo.Channels; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			if err := storm(dPar, ch); err != nil {
				errCh <- err
			}
		}(ch)
	}
	wg.Wait()
	parSec := time.Since(t1).Seconds()
	close(errCh)
	for err := range errCh {
		return writeStormResults{}, err
	}

	pages := float64(geo.Channels * programsPerChannel)
	return writeStormResults{
		Channels:            geo.Channels,
		ProgramsPerChannel:  programsPerChannel,
		SerialPagesPerSec:   pages / serialSec,
		ParallelPagesPerSec: pages / parSec,
		ParallelSpeedup:     serialSec / parSec,
		GateFloor:           writeStormGate(runtime.GOMAXPROCS(0)),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
	}, nil
}

// benchQueueing measures admission queueing delay on the virtual clock:
// every tenant submits one job at t=0, the gate admits `slots` at a time,
// and each job releases its slot after a fixed service time. The same
// workload runs once per grant policy — per-release dispatch, then
// batched grants on a tick that deliberately does not divide the service
// time, so every batched grant pays a visible rounding delay.
func benchQueueing() queueingResults {
	const (
		tenants = 8
		slots   = 2
		service = sim.Duration(1 * sim.Millisecond)
		quantum = sim.Duration(300 * sim.Microsecond)
	)
	run := func(cfg sched.VirtualConfig) (*sched.VirtualAdmission, sim.Duration) {
		eng := &sim.Engine{}
		va := sched.NewVirtualAdmission(eng, cfg)
		for i := 0; i < tenants; i++ {
			name := fmt.Sprintf("tenant-%d", i)
			var tk *sim.Ticket
			tk = va.Submit(0, name, sched.PriorityNormal, func(granted sim.Time) {
				eng.At(granted+service, func(now sim.Time) { va.Release(tk, now) })
			})
		}
		eng.Run()
		return va, va.Waited()
	}
	_, perRelease := run(sched.VirtualConfig{MaxInFlight: slots})
	batched, batchedWait := run(sched.VirtualConfig{
		MaxInFlight: slots, GrantQuantum: quantum, GrantBatch: slots,
	})
	return queueingResults{
		Tenants:           tenants,
		Slots:             slots,
		ServiceNs:         int64(service),
		TotalWaitNs:       int64(perRelease),
		MeanWaitNs:        int64(perRelease) / tenants,
		BatchedQuantumNs:  int64(quantum),
		BatchedMeanWaitNs: int64(batchedWait) / tenants,
		BatchedTicks:      batched.Ticks(),
	}
}

// meeTrafficResults records the memory-traffic hot-path microbenchmark:
// the same access streams driven per-line through mee.TrafficReference
// (the pre-batching implementation, one Access call + map lookups per
// 64-byte line) and in bulk through mee.TrafficModel (AccessSeq/
// AccessMany over dense state). Two stream shapes are measured: "scan" is
// the streaming input-page read (the sequential-run fast path's home
// turf, gated at >= 3x in make bench-compare), and "mixed" is the MEE
// charge shape (core.chargeGen.cost: sampled scan + skewed writable-heap
// batch). Both models must land on identical TrafficStats and
// counter-cache stats — the bulk APIs may not change a single reported
// statistic.
type meeTrafficResults struct {
	ScanAccesses   int64   `json:"scan_accesses"`
	ScanPerLineNs  float64 `json:"scan_per_line_ns_per_access"`
	ScanBatchedNs  float64 `json:"scan_batched_ns_per_access"`
	ScanSpeedup    float64 `json:"scan_speedup"`
	ScanMAccPerS   float64 `json:"scan_batched_maccesses_per_s"`
	MixedAccesses  int64   `json:"mixed_accesses"`
	MixedPerLineNs float64 `json:"mixed_per_line_ns_per_access"`
	MixedBatchedNs float64 `json:"mixed_batched_ns_per_access"`
	MixedSpeedup   float64 `json:"mixed_speedup"`
	GateFloor      float64 `json:"scan_gate_floor"`
	StatsIdentical bool    `json:"stats_identical"`
}

// meeScanGate is the bench-compare floor for the streaming-scan speedup.
const meeScanGate = 3.0

// benchMEETraffic times the two stream shapes on both implementations.
// The per-line and batched passes consume byte-identical access streams
// (same addresses, same order, same RNG draws), so any stats divergence
// is a correctness bug, not noise.
func benchMEETraffic() meeTrafficResults {
	cfg := mee.TrafficConfig{Mode: mee.ModeHybrid, SampleWeight: 1}

	// Scan: sequential read-only line scans over a 2048-page input, the
	// stream every replayed read step feeds the model.
	const scanPages = 2048
	const scanPasses = 4
	scanAccesses := int64(scanPages) * mee.LinesPerPage * scanPasses
	ref := mee.NewTrafficReference(cfg)
	t0 := time.Now()
	for pass := 0; pass < scanPasses; pass++ {
		for p := uint64(0); p < scanPages; p++ {
			base := p * mee.PageSize
			for l := uint64(0); l < mee.LinesPerPage; l++ {
				ref.Access(base+l*mee.LineSize, false)
			}
		}
	}
	perLineScan := time.Since(t0)

	model := mee.NewTrafficModel(cfg)
	t1 := time.Now()
	for pass := 0; pass < scanPasses; pass++ {
		for p := uint64(0); p < scanPages; p++ {
			model.AccessSeq(p*mee.PageSize, mee.LinesPerPage, false, mee.LineSize)
		}
	}
	batchedScan := time.Since(t1)
	identical := ref.Stats() == model.Stats() &&
		ref.CounterCacheStats() == model.CounterCacheStats()

	// Mixed: the MEE charge step shape — a sampled input scan (weight 8,
	// stride 8 lines) plus a skewed batch into the writable heap.
	mixCfg := mee.TrafficConfig{Mode: mee.ModeHybrid, SampleWeight: 8}
	const heapBase = uint64(1) << 22
	const heapPages = 1024
	const steps = 40000
	const seqN, heapReads, heapWrites = 8, 14, 4
	mixedAccesses := int64(steps) * (seqN + heapReads + heapWrites)

	runMixed := func(perLine bool) (time.Duration, mee.TrafficStats) {
		rng := sim.NewRNG(99)
		var model *mee.TrafficModel
		var ref *mee.TrafficReference
		if perLine {
			ref = mee.NewTrafficReference(mixCfg)
			for p := uint64(0); p < heapPages; p++ {
				ref.SetPageWritable(heapBase+p, true)
			}
		} else {
			model = mee.NewTrafficModel(mixCfg)
			for p := uint64(0); p < heapPages; p++ {
				model.SetPageWritable(heapBase+p, true)
			}
		}
		addrs := make([]uint64, heapReads+heapWrites)
		start := time.Now()
		for s := 0; s < steps; s++ {
			base := uint64(s%scanPages) * mee.PageSize
			for i := range addrs {
				page := heapBase + uint64(rng.Zipf(heapPages, 0.85, 0.05))
				addrs[i] = page*mee.PageSize + uint64(rng.Intn(mee.LinesPerPage))*mee.LineSize
			}
			if perLine {
				for j := int64(0); j < seqN; j++ {
					ref.Access(base+uint64(j)*8*mee.LineSize, false)
				}
				for _, a := range addrs[:heapReads] {
					ref.Access(a, false)
				}
				for _, a := range addrs[heapReads:] {
					ref.Access(a, true)
				}
			} else {
				model.AccessSeq(base, seqN, false, 8*mee.LineSize)
				model.AccessMany(addrs[:heapReads], false)
				model.AccessMany(addrs[heapReads:], true)
			}
		}
		elapsed := time.Since(start)
		if perLine {
			return elapsed, ref.Stats()
		}
		return elapsed, model.Stats()
	}
	perLineMixed, perStats := runMixed(true)
	batchedMixed, batchStats := runMixed(false)
	identical = identical && perStats == batchStats

	return meeTrafficResults{
		ScanAccesses:   scanAccesses,
		ScanPerLineNs:  float64(perLineScan.Nanoseconds()) / float64(scanAccesses),
		ScanBatchedNs:  float64(batchedScan.Nanoseconds()) / float64(scanAccesses),
		ScanSpeedup:    float64(perLineScan) / float64(batchedScan),
		ScanMAccPerS:   float64(scanAccesses) / batchedScan.Seconds() / 1e6,
		MixedAccesses:  mixedAccesses,
		MixedPerLineNs: float64(perLineMixed.Nanoseconds()) / float64(mixedAccesses),
		MixedBatchedNs: float64(batchedMixed.Nanoseconds()) / float64(mixedAccesses),
		MixedSpeedup:   float64(perLineMixed) / float64(batchedMixed),
		GateFloor:      meeScanGate,
		StatsIdentical: identical,
	}
}

// traceBandResults is one priority band of the trace-replay record.
type traceBandResults struct {
	Band          string `json:"band"`
	Tenants       int    `json:"tenants"`
	MeanQueueNs   int64  `json:"mean_queue_ns"`
	MaxQueueNs    int64  `json:"max_queue_ns"`
	MeanSojournNs int64  `json:"mean_sojourn_ns"`
	MaxSojournNs  int64  `json:"max_sojourn_ns"`
	T0MeanQueueNs int64  `json:"t0_mean_queue_ns"`
}

// traceReplayResults records the trace-driven open-loop replay scenario:
// the committed bursty fixture's arrival schedule driven through the
// admission gate, with per-band queue-delay and sojourn statistics in
// SIMULATED time against the same work submitted at t=0. Identical is the
// differential gate bench-compare checks: the memoized rerun and a fresh
// suite (which re-parses the fixture into a new schedule instance) must
// emit byte-identical Timing 2 tables.
type traceReplayResults struct {
	Fixture         string             `json:"fixture"`
	Tenants         int                `json:"tenants"`
	Slots           int                `json:"slots"`
	SpanNs          int64              `json:"span_ns"`
	OpenMeanQueueNs int64              `json:"open_mean_queue_ns"`
	T0MeanQueueNs   int64              `json:"t0_mean_queue_ns"`
	Bands           []traceBandResults `json:"bands"`
	Identical       bool               `json:"identical"`
}

// benchTraceReplay runs the Timing 2 scenario three ways — cold, memoized
// rerun on the same suite, and cold again on a fresh suite with
// memoization off — and verifies all three render byte-identically. The
// fresh suite parses its own copy of the fixture, so the comparison also
// pins that replay timing depends on schedule contents, not instance
// identity. Virtual-time statistics, deterministic by construction.
func benchTraceReplay() (traceReplayResults, error) {
	sc := workload.TinyScale()
	s1 := experiments.NewSuite(sc, core.DefaultConfig())
	cold, err := s1.TraceTiming()
	if err != nil {
		return traceReplayResults{}, err
	}
	memo, err := s1.TraceTiming()
	if err != nil {
		return traceReplayResults{}, err
	}
	s2 := experiments.NewSuite(sc, core.DefaultConfig()).SetMemoize(false)
	fresh, err := s2.TraceTiming()
	if err != nil {
		return traceReplayResults{}, err
	}
	identical := cold.String() == memo.String() && cold.String() == fresh.String()

	sum, err := s1.TraceReplaySummary()
	if err != nil {
		return traceReplayResults{}, err
	}
	out := traceReplayResults{
		Fixture:   sum.Fixture,
		Tenants:   sum.Tenants,
		Slots:     sum.Slots,
		SpanNs:    int64(sum.Span),
		Identical: identical,
	}
	var open, t0 int64
	for _, b := range sum.Bands {
		out.Bands = append(out.Bands, traceBandResults{
			Band:          b.Band,
			Tenants:       b.Tenants,
			MeanQueueNs:   int64(b.MeanQueue),
			MaxQueueNs:    int64(b.MaxQueue),
			MeanSojournNs: int64(b.MeanSojourn),
			MaxSojournNs:  int64(b.MaxSojourn),
			T0MeanQueueNs: int64(b.T0MeanQueue),
		})
		open += int64(b.MeanQueue) * int64(b.Tenants)
		t0 += int64(b.T0MeanQueue) * int64(b.Tenants)
	}
	if sum.Tenants > 0 {
		out.OpenMeanQueueNs = open / int64(sum.Tenants)
		out.T0MeanQueueNs = t0 / int64(sum.Tenants)
	}
	return out, nil
}

// faultScenarioResults is one scenario of the fault-replay record.
type faultScenarioResults struct {
	Scenario      string  `json:"scenario"`
	Tenants       int     `json:"tenants"`
	Completed     int     `json:"completed"`
	GoodputPerSec float64 `json:"goodput_pages_per_sec"`
	MeanSojournNs int64   `json:"mean_sojourn_ns"`
	P99SojournNs  int64   `json:"p99_sojourn_ns"`
	MaxSojournNs  int64   `json:"max_sojourn_ns"`
	Retries       int     `json:"retries"`
	BreakerTrips  int     `json:"breaker_trips"`
	ReadRetries   int64   `json:"ftl_read_retries"`
	BadBlocks     int64   `json:"bad_blocks"`
	DeadDies      int64   `json:"dead_dies"`
	ReadFaults    int64   `json:"injected_read_faults"`
	ProgramFaults int64   `json:"injected_program_faults"`
}

// faultReplayResults records the deterministic fault-injection sweep: the
// same multi-tenant mix replayed under seeded fault plans of rising
// hostility plus a scripted die-death run, in SIMULATED time.
// ZeroFaultIdentical is the differential gate bench-compare checks: a
// replay under a plan whose rates are all zero must produce Results
// struct-identical to a replay with no plan at all — injection may cost
// nothing when it injects nothing.
type faultReplayResults struct {
	Tenants            int                    `json:"tenants"`
	Slots              int                    `json:"slots"`
	Scenarios          []faultScenarioResults `json:"scenarios"`
	ZeroFaultIdentical bool                   `json:"zero_fault_identical"`
}

// benchFaultReplay runs the Fault-table sweep on a tiny-scale suite and
// then pins the zero-fault differential: the same mix replayed with a
// nil fault plan and with an all-zero plan must emit identical Results.
func benchFaultReplay() (faultReplayResults, error) {
	s := experiments.NewSuite(workload.TinyScale(), core.DefaultConfig())
	sum, err := s.FaultReplaySummary()
	if err != nil {
		return faultReplayResults{}, err
	}
	out := faultReplayResults{Tenants: len(sum.Mix), Slots: sum.Slots}
	for _, sc := range sum.Scenarios {
		out.Scenarios = append(out.Scenarios, faultScenarioResults{
			Scenario:      sc.Scenario,
			Tenants:       sc.Tenants,
			Completed:     sc.Completed,
			GoodputPerSec: sc.GoodputPerSec,
			MeanSojournNs: int64(sc.MeanSojourn),
			P99SojournNs:  int64(sc.P99Sojourn),
			MaxSojournNs:  int64(sc.MaxSojourn),
			Retries:       sc.Retries,
			BreakerTrips:  sc.BreakerTrips,
			ReadRetries:   sc.ReadRetries,
			BadBlocks:     sc.BadBlocks,
			DeadDies:      sc.DeadDies,
			ReadFaults:    sc.ReadFaults,
			ProgramFaults: sc.ProgramFaults,
		})
	}

	names := []string{"TPC-H Q1", "TPC-B", "Filter"}
	traces := make([]*workload.Trace, len(names))
	for i, name := range names {
		w, err := workload.ByName(name)
		if err != nil {
			return faultReplayResults{}, err
		}
		if traces[i], err = workload.Record(w, workload.TinyScale(), 4096); err != nil {
			return faultReplayResults{}, err
		}
	}
	cfg := core.DefaultConfig()
	cfg.AdmissionSlots = 2
	nilPlan, err := core.RunMulti(traces, core.ModeIceClave, cfg)
	if err != nil {
		return faultReplayResults{}, err
	}
	cfg.FaultPlan = &fault.Plan{Seed: 123} // rates all zero, no deaths
	zeroPlan, err := core.RunMulti(traces, core.ModeIceClave, cfg)
	if err != nil {
		return faultReplayResults{}, err
	}
	identical := len(nilPlan) == len(zeroPlan)
	if identical {
		for i := range nilPlan {
			if nilPlan[i] != zeroPlan[i] {
				identical = false
				break
			}
		}
	}
	out.ZeroFaultIdentical = identical
	return out, nil
}

// fleetScenarioResults is one scenario of the fleet-replay record.
type fleetScenarioResults struct {
	Scenario        string  `json:"scenario"`
	Tenants         int     `json:"tenants"`
	Failovers       int     `json:"failovers"`
	Recovered       int     `json:"recovered"`
	Lost            int     `json:"lost"`
	GoodputPerSec   float64 `json:"goodput_pages_per_sec"`
	UtilizationSkew float64 `json:"utilization_skew"`
	MigrationMeanNs int64   `json:"migration_mean_ns"`
	MigrationMaxNs  int64   `json:"migration_max_ns"`
	MakespanNs      int64   `json:"makespan_ns"`
}

// fleetReplayResults records the rack-scale fleet sweep: the same
// multi-tenant mix placed across devices by rendezvous hashing, replayed
// healthy and under a scripted whole-device death with health-aware
// failover and modeled live migration, in SIMULATED time.
// OneDeviceIdentical and Recovered-vs-RecoveryFloor are the two
// differential gates bench-compare checks: a 1-device fleet must be
// results-identical to the bare SSD, and the death sweep must recover at
// least the committed tenant floor.
type fleetReplayResults struct {
	Tenants            int                    `json:"tenants"`
	Devices            int                    `json:"devices"`
	RecoveryFloor      int                    `json:"recovery_floor"`
	Scenarios          []fleetScenarioResults `json:"scenarios"`
	OneDeviceIdentical bool                   `json:"one_device_identical"`
}

// benchFleetReplay runs the Fleet-table sweep on a tiny-scale suite; the
// summary carries both gate verdicts (the degeneracy check inside it
// deliberately bypasses the suite's memo cache).
func benchFleetReplay() (fleetReplayResults, error) {
	s := experiments.NewSuite(workload.TinyScale(), core.DefaultConfig())
	sum, err := s.FleetReplaySummary()
	if err != nil {
		return fleetReplayResults{}, err
	}
	out := fleetReplayResults{
		Tenants:            len(sum.Mix),
		Devices:            sum.Devices,
		RecoveryFloor:      sum.RecoveryFloor,
		OneDeviceIdentical: sum.OneDeviceIdentical,
	}
	for _, sc := range sum.Scenarios {
		out.Scenarios = append(out.Scenarios, fleetScenarioResults{
			Scenario:        sc.Scenario,
			Tenants:         sc.Tenants,
			Failovers:       sc.Failovers,
			Recovered:       sc.Recovered,
			Lost:            sc.Lost,
			GoodputPerSec:   sc.GoodputPerSec,
			UtilizationSkew: sc.UtilizationSkew,
			MigrationMeanNs: int64(sc.MigrationMean),
			MigrationMaxNs:  int64(sc.MigrationMax),
			MakespanNs:      int64(sc.Makespan),
		})
	}
	return out, nil
}

// replaySetupResults records the resource-pool microbenchmark: the same
// replay run repeated with pooling off (every setup allocates a device,
// FTL, CMT, and page cache from scratch) and with pooling on (every setup
// after the first recycles a reset stack). Setup time is what the core
// pool accounts per run — acquire/build, reset, and prepopulation — so
// the speedup isolates exactly the cost the pool exists to remove.
// StatsIdentical compares the full Result structs of the two legs; the
// pool may be fast only if it changes nothing.
type replaySetupResults struct {
	Runs           int     `json:"runs_per_leg"`
	FreshNsPerRun  int64   `json:"fresh_setup_ns_per_run"`
	PooledNsPerRun int64   `json:"pooled_setup_ns_per_run"`
	SetupSpeedup   float64 `json:"setup_speedup"`
	PoolHits       int64   `json:"pool_hits"`
	PoolMisses     int64   `json:"pool_misses"`
	StatsIdentical bool    `json:"stats_identical"`
	GateFloor      float64 `json:"gate_floor"`
}

// replaySetupGate is the bench-compare floor for the pooled-setup
// speedup on memo-miss-heavy runs.
const replaySetupGate = 2.0

// benchReplaySetup records one trace, then times the per-run setup cost
// of repeated replays with the resource pool disabled and enabled. The
// pooled leg performs one unmeasured warm run first, so every measured
// setup travels the recycle-and-reset path.
func benchReplaySetup() (replaySetupResults, error) {
	const runs = 6
	w, err := workload.ByName("Filter")
	if err != nil {
		return replaySetupResults{}, err
	}
	tr, err := workload.Record(w, workload.TinyScale(), 4096)
	if err != nil {
		return replaySetupResults{}, err
	}
	cfg := core.DefaultConfig()
	defer func() {
		core.SetPooling(true)
		core.ResetPool()
	}()

	leg := func(pooled bool) (nsPerRun int64, st core.PoolStats, last core.Result, err error) {
		core.SetPooling(pooled)
		core.ResetPool()
		if pooled {
			// Warm run: builds the stack the measured runs recycle.
			if _, err = core.Run(tr, core.ModeIceClave, cfg); err != nil {
				return
			}
		}
		before := core.PoolSnapshot()
		for i := 0; i < runs; i++ {
			if last, err = core.Run(tr, core.ModeIceClave, cfg); err != nil {
				return
			}
		}
		st = core.PoolSnapshot()
		nsPerRun = (st.SetupNs - before.SetupNs) / runs
		return
	}
	freshNs, _, freshRes, err := leg(false)
	if err != nil {
		return replaySetupResults{}, err
	}
	pooledNs, st, pooledRes, err := leg(true)
	if err != nil {
		return replaySetupResults{}, err
	}
	return replaySetupResults{
		Runs:           runs,
		FreshNsPerRun:  freshNs,
		PooledNsPerRun: pooledNs,
		SetupSpeedup:   float64(freshNs) / float64(pooledNs),
		PoolHits:       st.Hits,
		PoolMisses:     st.Misses,
		StatsIdentical: pooledRes == freshRes,
		GateFloor:      replaySetupGate,
	}, nil
}

// parallelReplayResults records the sharded-engine microbenchmark: the
// same multi-tenant RunMulti replay through the serial event loop
// (EngineWorkers=0) and through the sharded engine with one worker per
// available core. Results must be struct-identical — the sharded engine
// exists to spend cores, never to change a bit. The speedup is wall
// clock, so on a 1-CPU container it sits near 1x and the gate floor
// adapts to GOMAXPROCS the same way the write-storm gate does (see
// docs/BENCHMARKS.md, "parallel_replay"). Replay schedules no
// shard-affine work — MEE charges come from precomputed charge tapes —
// so the sharded leg runs every event on the coordinator.
type parallelReplayResults struct {
	Tenants          int     `json:"tenants"`
	EngineWorkers    int     `json:"engine_workers"`
	Runs             int     `json:"runs_per_leg"`
	SerialNsPerRun   int64   `json:"serial_ns_per_run"`
	ShardedNsPerRun  int64   `json:"sharded_ns_per_run"`
	Speedup          float64 `json:"speedup"`
	GateFloor        float64 `json:"gate_floor"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	ResultsIdentical bool    `json:"results_identical"`
}

// parallelReplayGate returns the bench-compare floor for the sharded
// replay speedup: with >= 4 cores the sharded engine must buy at least
// 1.5x; with fewer cores wall-clock parallelism is unavailable and the
// gate only rejects the sharded engine regressing well below serial —
// the signature of dispatch overhead or a barrier stall swamping the
// event loop.
func parallelReplayGate(procs int) float64 {
	if procs >= 4 {
		return 1.5
	}
	return 0.9
}

// benchParallelReplay replays a four-tenant IceClave-mode mix through
// RunMulti with the serial engine and with the sharded engine, checks
// the Result slices are struct-identical, and times both legs.
func benchParallelReplay() (parallelReplayResults, error) {
	const runs = 10
	names := []string{"TPC-H Q1", "Aggregate", "TPC-B", "Filter"}
	traces := make([]*workload.Trace, len(names))
	for i, name := range names {
		w, err := workload.ByName(name)
		if err != nil {
			return parallelReplayResults{}, err
		}
		if traces[i], err = workload.Record(w, workload.TinyScale(), 4096); err != nil {
			return parallelReplayResults{}, err
		}
	}
	cfg := core.DefaultConfig()
	cfg.AdmissionSlots = 2 // queueing keeps the admission path in the loop
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}

	serialCfg, shardedCfg := cfg, cfg
	shardedCfg.EngineWorkers = workers
	// Warm runs: pool and trace caches settle before the timed reps, and
	// these are also the Result slices the identity gate compares.
	serialRes, err := core.RunMulti(traces, core.ModeIceClave, serialCfg)
	if err != nil {
		return parallelReplayResults{}, err
	}
	shardedRes, err := core.RunMulti(traces, core.ModeIceClave, shardedCfg)
	if err != nil {
		return parallelReplayResults{}, err
	}
	// The reps interleave the two legs and each leg reports its fastest:
	// min-of-N from alternating samples discards GC pauses and container
	// scheduling noise (which on a 1-CPU box dwarf the ~1ms runs being
	// compared) without letting a drifting environment bias one leg. The
	// forced GC starts the reps from a clean heap — -bench-json runs this
	// right after the full suite passes, which leave collection debt
	// behind.
	runtime.GC()
	rep := func(c core.Config, best *int64) error {
		start := time.Now()
		if _, err := core.RunMulti(traces, core.ModeIceClave, c); err != nil {
			return err
		}
		if ns := time.Since(start).Nanoseconds(); *best == 0 || ns < *best {
			*best = ns
		}
		return nil
	}
	var serialNs, shardedNs int64
	for i := 0; i < runs; i++ {
		if err := rep(serialCfg, &serialNs); err != nil {
			return parallelReplayResults{}, err
		}
		if err := rep(shardedCfg, &shardedNs); err != nil {
			return parallelReplayResults{}, err
		}
	}
	identical := len(serialRes) == len(shardedRes)
	if identical {
		for i := range serialRes {
			if serialRes[i] != shardedRes[i] {
				identical = false
				break
			}
		}
	}
	return parallelReplayResults{
		Tenants:          len(traces),
		EngineWorkers:    workers,
		Runs:             runs,
		SerialNsPerRun:   serialNs,
		ShardedNsPerRun:  shardedNs,
		Speedup:          float64(serialNs) / float64(shardedNs),
		GateFloor:        parallelReplayGate(runtime.GOMAXPROCS(0)),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		ResultsIdentical: identical,
	}, nil
}

// microResults bundles the microbenchmark sections that -micro prints and
// -bench-json embeds in the JSON record.
type microResults struct {
	Trivium     triviumResults
	FTL         ftlResults
	DieOverlap  dieOverlapResults
	Queueing    queueingResults
	WriteStorm  writeStormResults
	MEETraffic  meeTrafficResults
	TraceReplay traceReplayResults
	FaultReplay faultReplayResults
	FleetReplay fleetReplayResults
	ReplaySetup replaySetupResults
	Parallel    parallelReplayResults
}

// runMicro executes the cipher, FTL lock-sharding, die-pipelining,
// admission-queueing, and device write-storm microbenchmarks and prints a
// human summary; -bench-json embeds the same numbers in the JSON record.
func runMicro() (microResults, error) {
	var mr microResults
	var err error
	mr.Trivium = benchTrivium()
	if mr.FTL, err = benchFTL(); err != nil {
		return mr, err
	}
	if mr.DieOverlap, err = benchDieOverlap(); err != nil {
		return mr, err
	}
	mr.Queueing = benchQueueing()
	if mr.WriteStorm, err = benchWriteStorm(); err != nil {
		return mr, err
	}
	mr.MEETraffic = benchMEETraffic()
	if mr.TraceReplay, err = benchTraceReplay(); err != nil {
		return mr, err
	}
	if mr.FaultReplay, err = benchFaultReplay(); err != nil {
		return mr, err
	}
	if mr.FleetReplay, err = benchFleetReplay(); err != nil {
		return mr, err
	}
	if mr.ReplaySetup, err = benchReplaySetup(); err != nil {
		return mr, err
	}
	if mr.Parallel, err = benchParallelReplay(); err != nil {
		return mr, err
	}
	tr, fr, dr, qr, wr := mr.Trivium, mr.FTL, mr.DieOverlap, mr.Queueing, mr.WriteStorm
	fmt.Printf("trivium: bit-serial %s/page, word64 %s/page (%.1fx, %.0f MB/s)\n",
		time.Duration(tr.BitserialNsPerPage), time.Duration(tr.Word64NsPerPage),
		tr.Speedup, tr.Word64MBPerS)
	fmt.Printf("ftl: serial %.0f pages/s, %d-channel sharded %.0f pages/s (%.2fx on GOMAXPROCS=%d)\n",
		fr.SerialPagesPerSec, fr.Channels, fr.ShardedPagesPerSec,
		fr.ParallelSpeedup, runtime.GOMAXPROCS(0))
	fmt.Printf("die pipelining: %d programs on one channel, 1 die %s vs %d dies %s (%.2fx overlap)\n",
		dr.Programs, time.Duration(dr.SerializedNs), dr.DiesPerChannel,
		time.Duration(dr.PipelinedNs), dr.OverlapSpeedup)
	fmt.Printf("queueing: %d tenants / %d slots, mean admission wait %s of simulated time\n",
		qr.Tenants, qr.Slots, time.Duration(qr.MeanWaitNs))
	fmt.Printf("queueing (batched): %s ticks, %d grant passes, mean wait %s (vs %s per-release)\n",
		time.Duration(qr.BatchedQuantumNs), qr.BatchedTicks,
		time.Duration(qr.BatchedMeanWaitNs), time.Duration(qr.MeanWaitNs))
	fmt.Printf("write storm: serial %.0f pages/s, %d-channel parallel %.0f pages/s\n",
		wr.SerialPagesPerSec, wr.Channels, wr.ParallelPagesPerSec)
	fmt.Printf("write-storm speedup %.3f gate %.2f (GOMAXPROCS=%d, wall-clock; see docs/BENCHMARKS.md)\n",
		wr.ParallelSpeedup, wr.GateFloor, wr.GOMAXPROCS)
	mt := mr.MEETraffic
	fmt.Printf("mee traffic scan: per-line %.1f ns/acc, batched %.1f ns/acc, %.1f M acc/s, speedup %.2f\n",
		mt.ScanPerLineNs, mt.ScanBatchedNs, mt.ScanMAccPerS, mt.ScanSpeedup)
	fmt.Printf("mee traffic mixed: per-line %.1f ns/acc, batched %.1f ns/acc, speedup %.2f\n",
		mt.MixedPerLineNs, mt.MixedBatchedNs, mt.MixedSpeedup)
	fmt.Printf("mee traffic gate %.2f stats-identical %v\n", mt.GateFloor, mt.StatsIdentical)
	rr := mr.TraceReplay
	fmt.Printf("trace replay: %d tenants / %d slots over %s of arrivals, open-loop mean queue %s vs %s at t=0\n",
		rr.Tenants, rr.Slots, time.Duration(rr.SpanNs),
		time.Duration(rr.OpenMeanQueueNs), time.Duration(rr.T0MeanQueueNs))
	fmt.Printf("trace replay identical: %v\n", rr.Identical)
	fr2 := mr.FaultReplay
	for _, sc := range fr2.Scenarios {
		fmt.Printf("fault replay [%s]: %d/%d completed, goodput %.0f pages/s, p99 sojourn %s, "+
			"%d retries, %d breaker trips, %d bad blocks, %d dead dies\n",
			sc.Scenario, sc.Completed, sc.Tenants, sc.GoodputPerSec,
			time.Duration(sc.P99SojournNs), sc.Retries, sc.BreakerTrips, sc.BadBlocks, sc.DeadDies)
	}
	fmt.Printf("fault replay zero-fault identical: %v\n", fr2.ZeroFaultIdentical)
	fl := mr.FleetReplay
	for _, sc := range fl.Scenarios {
		fmt.Printf("fleet replay [%s]: %d failovers, goodput %.0f pages/s, util skew %.2f, "+
			"migration mean %s max %s, makespan %s\n",
			sc.Scenario, sc.Failovers, sc.GoodputPerSec, sc.UtilizationSkew,
			time.Duration(sc.MigrationMeanNs), time.Duration(sc.MigrationMaxNs),
			time.Duration(sc.MakespanNs))
	}
	death := fl.Scenarios[len(fl.Scenarios)-1]
	fmt.Printf("fleet recovered: %d/%d tenants, floor %d\n",
		death.Recovered, death.Recovered+death.Lost, fl.RecoveryFloor)
	fmt.Printf("fleet replay identical: %v\n", fl.OneDeviceIdentical)
	rs := mr.ReplaySetup
	fmt.Printf("replay setup: fresh %s/run, pooled %s/run over %d runs (pool hits %d, misses %d)\n",
		time.Duration(rs.FreshNsPerRun), time.Duration(rs.PooledNsPerRun),
		rs.Runs, rs.PoolHits, rs.PoolMisses)
	fmt.Printf("replay setup gate %.2f speedup %.2f stats-identical %v\n",
		rs.GateFloor, rs.SetupSpeedup, rs.StatsIdentical)
	pr := mr.Parallel
	fmt.Printf("parallel replay: serial %s/run, sharded (%d workers) %s/run over %d runs x %d tenants\n",
		time.Duration(pr.SerialNsPerRun), pr.EngineWorkers,
		time.Duration(pr.ShardedNsPerRun), pr.Runs, pr.Tenants)
	fmt.Printf("parallel replay speedup %.3f gate %.2f (GOMAXPROCS=%d, wall-clock; see docs/BENCHMARKS.md)\n",
		pr.Speedup, pr.GateFloor, pr.GOMAXPROCS)
	fmt.Printf("parallel replay identical: %v\n", pr.ResultsIdentical)
	return mr, nil
}
