package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"iceclave"
	"iceclave/internal/host"
	"iceclave/internal/query"
	"iceclave/internal/sched"
	"iceclave/internal/tee"
)

// offloadConfig sizes an offload workload.
type offloadConfig struct {
	txn     bool // TPC-B batches instead of read-only TPC-H programs
	tenants int
	clients int // closed-loop clients, and sched.Scheduler workers; client c owns tenants c, c+clients, ...
	rows    int // lineitem rows (scan) or account rows (txn) per tenant
	batch   int // TPC-B transactions per offload
	ssd     iceclave.Options
	setups  int // set-ups timed for setup_s (the traced run does one)
}

// fullScan is the encrypted read path: rotating read-only TPC-H programs
// over eight tenants' datasets on the default SSD.
func fullScan() offloadConfig {
	return offloadConfig{tenants: 8, clients: 2, rows: 20_000, setups: 15}
}

// fullTxn is the encrypted write path: TPC-B batches on a small device, so
// FTL garbage collection and erases cycle through the run.
func fullTxn() offloadConfig {
	return offloadConfig{txn: true, tenants: 8, clients: 2, rows: 20_000, batch: 50,
		ssd: iceclave.Options{BlocksPerPlane: 4}, setups: 15}
}

const pageSize = 4096

// offloadBinary is the program image every offload ships; only its size
// matters to the TEE.
var offloadBinary = make([]byte, 32<<10)

// scanPrograms rotate through the offload-scan workload.
var scanPrograms = []query.Program{query.Q1, query.Filter, query.Q14, query.Aggregate}

// tenant is one tenant's dataset and the record of its offloads. Only the
// client owning the tenant touches ops and outs.
type tenant struct {
	name  string
	seed  uint64
	image *query.MemStore // the dataset as loaded
	load  []uint32        // pages written at set-up
	lpas  []uint32        // pages an offload may touch
	sd    *query.StoredDataset
	want  [][]byte // scan: each program's result over image
	accts query.TableRef
	hist  uint32   // txn: the history page
	ops   int      // offloads submitted
	outs  [][]byte // txn: each batch's result, in order
}

// mix derives a sub-seed; splitmix64 finalizer over seed and index.
func mix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newTenants generates every tenant's dataset into an in-memory image, and
// for scan the reference result of each program over it.
func newTenants(cfg offloadConfig, seed uint64) ([]*tenant, error) {
	var out []*tenant
	var base uint32
	for i := 0; i < cfg.tenants; i++ {
		t := &tenant{name: fmt.Sprintf("tenant-%02d", i), seed: mix(seed, i), image: query.NewMemStore(pageSize)}
		if cfg.txn {
			ref, err := query.SetupAccounts(t.image, cfg.rows, base, t.seed)
			if err != nil {
				return nil, err
			}
			t.accts, t.load = ref, ref.LPAs(pageSize)
			t.hist = base + uint32(len(t.load))
			t.lpas = append(append([]uint32(nil), t.load...), t.hist)
		} else {
			sd, err := query.GenerateTPCH(cfg.rows, t.seed).Store(t.image, base)
			if err != nil {
				return nil, err
			}
			t.sd, t.load = sd, sd.AllLPAs(pageSize)
			t.lpas = t.load
			for _, p := range scanPrograms {
				res, err := p(t.image, sd, &query.Meter{})
				if err != nil {
					return nil, err
				}
				t.want = append(t.want, []byte(res))
			}
		}
		base += uint32(len(t.lpas))
		out = append(out, t)
	}
	return out, nil
}

// ownedBy returns the tenants client c owns: c, c+clients, ... Each tenant
// has one owner and at most one offload in flight, so no two live TEEs
// ever claim the same pages.
func ownedBy(tenants []*tenant, c, clients int) []*tenant {
	var own []*tenant
	for i := c; i < len(tenants); i += clients {
		own = append(own, tenants[i])
	}
	return own
}

// opRecord is one offload's timing, written by the scheduler worker that
// runs it and read by the client after Handle.Wait.
type opRecord struct {
	started       time.Time
	execute       time.Duration // SSD.Execute
	program       time.Duration // the program body inside the TEE
	reads, writes []time.Duration
	out           []byte
}

// timedStore times each call into the TEE's storage view.
type timedStore struct {
	query.Store
	rec *opRecord
}

func (s timedStore) ReadPage(lpa uint32) ([]byte, error) {
	t0 := time.Now()
	p, err := s.Store.ReadPage(lpa)
	s.rec.reads = append(s.rec.reads, time.Since(t0))
	return p, err
}

func (s timedStore) WritePage(lpa uint32, data []byte) error {
	t0 := time.Now()
	err := s.Store.WritePage(lpa, data)
	s.rec.writes = append(s.rec.writes, time.Since(t0))
	return err
}

// clientStats accumulates one client's offloads over a phase.
type clientStats struct {
	ops, failed, owned                            int64
	done                                          []opDone // successful offloads
	queueWait, reads, writes, lifecycle, progSelf []time.Duration
}

// opDone is one successful offload: when it completed and how long it took.
type opDone struct {
	at      time.Time
	latency time.Duration
}

func (a *clientStats) merge(b *clientStats) {
	a.ops += b.ops
	a.failed += b.failed
	a.owned += b.owned
	a.done = append(a.done, b.done...)
	a.queueWait = append(a.queueWait, b.queueWait...)
	a.reads = append(a.reads, b.reads...)
	a.writes = append(a.writes, b.writes...)
	a.lifecycle = append(a.lifecycle, b.lifecycle...)
	a.progSelf = append(a.progSelf, b.progSelf...)
}

// offloadRun is one offload workload's live state.
type offloadRun struct {
	cfg     offloadConfig
	ssd     *iceclave.SSD
	sched   *sched.Scheduler
	tenants []*tenant
}

// body returns the program of tenant t's next offload and, for scan, the
// result it must produce.
func (w *offloadRun) body(t *tenant) (iceclave.Program, []byte) {
	k := t.ops
	if w.cfg.txn {
		return func(st query.Store, m *query.Meter) ([]byte, error) {
			res, err := query.TPCB(st, t.accts, t.hist, w.cfg.batch, mix(t.seed, k), m)
			return []byte(res), err
		}, nil
	}
	p := scanPrograms[k%len(scanPrograms)]
	return func(st query.Store, m *query.Meter) ([]byte, error) {
		res, err := p(st, t.sd, m)
		return []byte(res), err
	}, t.want[k%len(scanPrograms)]
}

// client runs a closed loop over its own tenants until the deadline: it
// submits an offload, waits for it, and submits the next.
func (w *offloadRun) client(own []*tenant, deadline time.Time, traced bool, acc *clientStats) {
	rec := &opRecord{}
	for k := 0; time.Now().Before(deadline); k++ {
		t := own[k%len(own)]
		prog, want := w.body(t)
		t.ops++
		*rec = opRecord{reads: rec.reads[:0], writes: rec.writes[:0]}
		off := host.Offload{TaskID: uint32(t.ops), Binary: offloadBinary, LPAs: t.lpas}
		submitted := time.Now()
		h, err := w.sched.Submit(t.name, sched.PriorityNormal, func(context.Context) error {
			rec.started = time.Now()
			run := prog
			if traced {
				run = func(st query.Store, m *query.Meter) ([]byte, error) {
					p0 := time.Now()
					out, err := prog(timedStore{st, rec}, m)
					rec.program = time.Since(p0)
					return out, err
				}
			}
			out, err := w.ssd.Execute(off, run)
			rec.execute = time.Since(rec.started)
			rec.out = out
			return err
		})
		if err == nil {
			err = h.Wait()
		}
		lat := time.Since(submitted)
		acc.ops++
		if w.cfg.txn {
			t.outs = append(t.outs, rec.out)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: offload %d: %v\n", t.name, t.ops, err)
			acc.failed++
			if errors.Is(err, tee.ErrLPAOwned) {
				acc.owned++
			}
			continue
		}
		if want != nil && !bytes.Equal(rec.out, want) {
			fmt.Fprintf(os.Stderr, "%s: offload %d: result differs from the reference\n", t.name, t.ops)
			acc.failed++
			continue
		}
		acc.done = append(acc.done, opDone{at: time.Now(), latency: lat})
		if traced {
			acc.queueWait = append(acc.queueWait, rec.started.Sub(submitted))
			acc.reads = append(acc.reads, rec.reads...)
			acc.writes = append(acc.writes, rec.writes...)
			acc.lifecycle = append(acc.lifecycle, rec.execute-rec.program)
			store := time.Duration(0)
			for _, d := range rec.reads {
				store += d
			}
			for _, d := range rec.writes {
				store += d
			}
			acc.progSelf = append(acc.progSelf, rec.program-store)
		}
	}
}

// windowsPerPhase splits each measured phase into this many equal windows.
const windowsPerPhase = 20

// cpuMark is the process CPU time read at a window boundary, and the
// resident-set peak (MB) of the window ending there.
type cpuMark struct {
	at      time.Time
	cpu     time.Duration
	peakRSS float64
}

// window is the offloads that completed between two marks.
type window struct {
	from, to cpuMark
	latency  []float64 // ms
}

// phaseStats is what one phase measured: the merged client stats and the
// windows.
type phaseStats struct {
	*clientStats
	windows []window
}

// phase runs every client for d, marking the process CPU time and the
// resident-set peak at each window boundary.
func (w *offloadRun) phase(d time.Duration, traced bool) (phaseStats, error) {
	accs := make([]clientStats, w.cfg.clients)
	if err := resetPeakRSS(); err != nil {
		return phaseStats{}, err
	}
	start := time.Now()
	deadline := start.Add(d)
	marks := []cpuMark{{at: start, cpu: processCPU()}}
	var markErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= windowsPerPhase; i++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(i) / windowsPerPhase)))
			m := cpuMark{at: time.Now(), cpu: processCPU()}
			if m.peakRSS, markErr = procStatusMB("VmHWM"); markErr == nil {
				markErr = resetPeakRSS()
			}
			if markErr != nil {
				return
			}
			marks = append(marks, m)
		}
	}()
	for c := 0; c < w.cfg.clients; c++ {
		own := ownedBy(w.tenants, c, w.cfg.clients)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.client(own, deadline, traced, &accs[c])
		}()
	}
	wg.Wait()
	total := &clientStats{}
	for i := range accs {
		total.merge(&accs[i])
	}
	ws := make([]window, len(marks)-1)
	for i := range ws {
		ws[i].from, ws[i].to = marks[i], marks[i+1]
		for _, op := range total.done {
			if !op.at.Before(ws[i].from.at) && op.at.Before(ws[i].to.at) {
				ws[i].latency = append(ws[i].latency, float64(op.latency)/float64(time.Millisecond))
			}
		}
	}
	return phaseStats{clientStats: total, windows: ws}, markErr
}

// betterHalf reports the phase's figures over the half of its windows
// that completed the most offloads: their rate, the latency percentiles
// of the offloads completing in them, and their process CPU time per
// offload. Interference from other tenants of the machine only ever slows
// windows down, so the better windows are the ones that repeat from run
// to run. Offloads finishing after the last mark are left out.
func betterHalf(ws []window) (rate, p50, p90, cpuMs float64) {
	ws = append([]window(nil), ws...)
	sort.SliceStable(ws, func(i, j int) bool { return len(ws[i].latency) > len(ws[j].latency) })
	var lat []float64
	var secs float64
	var cpu time.Duration
	for _, w := range ws[:(len(ws)+1)/2] {
		lat = append(lat, w.latency...)
		secs += w.to.at.Sub(w.from.at).Seconds()
		cpu += w.to.cpu - w.from.cpu
	}
	if len(lat) == 0 {
		return 0, 0, 0, 0
	}
	cpuMs = float64(cpu) / float64(time.Millisecond) / float64(len(lat))
	return float64(len(lat)) / secs, quantile(lat, 0.5), quantile(lat, 0.9), cpuMs
}

// runOffload measures a closed loop of clients offloading through a
// sched.Scheduler into one SSD. Set-up writes every tenant's dataset
// through HostWrite.
func runOffload(cfg offloadConfig, o runOpts) (*report, error) {
	rep := newReport()
	tenants, err := newTenants(cfg, o.seed)
	if err != nil {
		return nil, fmt.Errorf("generating datasets: %w", err)
	}
	if o.corrupt && !cfg.txn {
		w := tenants[0].want[0]
		tenants[0].want[0] = append([]byte{w[0] ^ 0xff}, w[1:]...)
	}
	// The datasets' images and reference results are the benchmark's own:
	// peak_rss_mb counts only what the SSD and the offloads add to them.
	rssBase, err := rssBaseline()
	if err != nil {
		return nil, err
	}
	setups := cfg.setups
	if o.trace {
		setups = 1
	}
	ssd, setupCPU, setupWall, err := setupTimes(setups, func() (*iceclave.SSD, error) {
		ssd, err := iceclave.Open(cfg.ssd)
		if err != nil {
			return nil, err
		}
		if ssd.PageSize() != pageSize {
			return nil, fmt.Errorf("page size %d, want %d", ssd.PageSize(), pageSize)
		}
		for _, t := range tenants {
			for _, l := range t.load {
				p, err := t.image.ReadPage(l)
				if err != nil {
					return nil, err
				}
				if err := ssd.HostWrite(l, p); err != nil {
					return nil, fmt.Errorf("loading %s: %w", t.name, err)
				}
			}
		}
		return ssd, nil
	})
	if err != nil {
		return nil, err
	}
	rep.setSetup(setupCPU, setupWall)

	w := &offloadRun{cfg: cfg, ssd: ssd, tenants: tenants,
		sched: sched.New(sched.Config{Workers: cfg.clients})}
	// Error paths only; the success path closes the scheduler and checks.
	defer w.sched.Close(context.Background())
	untracedFor := o.duration
	if o.trace {
		untracedFor = o.duration / 2
	}
	plain, err := w.phase(untracedFor, false)
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = plain.ops, plain.failed
	owned := plain.owned
	rep.samples["offloads"] = len(plain.done)
	rep.samples["windows"] = len(plain.windows)
	rep.values["bench.ops_per_s"], rep.values["bench.op_p50_ms"], rep.values["bench.op_p90_ms"], rep.values["cpu_ms_per_op"] = betterHalf(plain.windows)
	peaks := make([]float64, len(plain.windows))
	for i, wd := range plain.windows {
		peaks[i] = wd.to.peakRSS
	}
	rep.values["peak_rss_mb"] = quantile(peaks, 0.5) - rssBase

	if o.trace {
		teeBefore, ftlBefore, flashBefore := ssd.Runtime().Stats(), ssd.FTL().Stats(), ssd.FlashStats()
		prof, err := startCPUProfile()
		if err != nil {
			return nil, err
		}
		traced, err := w.phase(o.duration-untracedFor, true)
		if err != nil {
			return nil, err
		}
		cpu, err := prof.stop()
		if err != nil {
			return nil, err
		}
		teeAfter, ftlAfter, flashAfter := ssd.Runtime().Stats(), ssd.FTL().Stats(), ssd.FlashStats()
		rep.attempted, rep.failed = rep.attempted+traced.ops, rep.failed+traced.failed
		owned += traced.owned
		rep.samples["traced_offloads"] = int(traced.ops)
		rep.samples["traced_page_reads"] = len(traced.reads)
		rep.samples["traced_page_writes"] = len(traced.writes)
		for pkg, pct := range cpu {
			rep.values["cpu."+pkg+"_pct"] = pct
		}
		rep.values["sched.queue_wait_p50_ms"] = quantile(inUnits(traced.queueWait, time.Millisecond), 0.5)
		reads, writes := inUnits(traced.reads, time.Microsecond), inUnits(traced.writes, time.Microsecond)
		rep.values["tee.read_page_p50_us"] = quantile(reads, 0.5)
		rep.values["tee.read_page_p90_us"] = quantile(reads, 0.9)
		rep.values["tee.write_page_p50_us"] = quantile(writes, 0.5)
		rep.values["tee.write_page_p90_us"] = quantile(writes, 0.9)
		rep.values["tee.lifecycle_p50_us"] = quantile(inUnits(traced.lifecycle, time.Microsecond), 0.5)
		rep.values["query.program_self_p50_ms"] = quantile(inUnits(traced.progSelf, time.Millisecond), 0.5)
		n := float64(traced.ops)
		perOp := func(before, after int64) float64 { return float64(after-before) / n }
		rep.values["tee.pages_read_per_offload"] = perOp(teeBefore.BusPages, teeAfter.BusPages)
		if look := (teeAfter.CMTHits - teeBefore.CMTHits) + (teeAfter.CMTMisses - teeBefore.CMTMisses); look > 0 {
			rep.values["tee.cmt_miss_rate"] = float64(teeAfter.CMTMisses-teeBefore.CMTMisses) / float64(look)
		}
		rep.values["ftl.translations_per_offload"] = perOp(ftlBefore.Translations, ftlAfter.Translations)
		rep.values["ftl.gc_runs_per_offload"] = perOp(ftlBefore.GCRuns, ftlAfter.GCRuns)
		if hw := ftlAfter.HostWrites - ftlBefore.HostWrites; hw > 0 {
			rep.values["ftl.write_amplification"] = float64(hw+ftlAfter.GCWrites-ftlBefore.GCWrites) / float64(hw)
		}
		rep.values["flash.reads_per_offload"] = perOp(flashBefore.Reads, flashAfter.Reads)
		rep.values["flash.programs_per_offload"] = perOp(flashBefore.Programs, flashAfter.Programs)
		rep.values["flash.erases_per_offload"] = perOp(flashBefore.Erases, flashAfter.Erases)
		tracedRate, _, _, _ := betterHalf(traced.windows)
		rep.values["bench.trace_overhead_pct"] = 100 * (rep.values["bench.ops_per_s"]/tracedRate - 1)
	}
	if err := w.sched.Close(context.Background()); err != nil {
		return nil, err
	}
	rep.samples["lpa_owned_errors"] = int(owned)
	if cfg.txn {
		rep.failed += checkTxn(cfg, ssd, tenants, o.corrupt)
	}
	return rep, nil
}

// checkTxn replays every tenant's TPC-B batches, with the same seeds in
// the same order, on a fresh in-memory copy of its accounts, and returns
// the number of batches whose result differs plus the number of tenants
// whose pages, read back through HostRead, differ from the replay's.
func checkTxn(cfg offloadConfig, ssd *iceclave.SSD, tenants []*tenant, corrupt bool) int64 {
	var failed int64
	for i, t := range tenants {
		ms := query.NewMemStore(pageSize)
		if _, err := query.SetupAccounts(ms, cfg.rows, t.accts.Base, t.seed); err != nil {
			fmt.Fprintf(os.Stderr, "%s: replay set-up: %v\n", t.name, err)
			failed++
			continue
		}
		for k, out := range t.outs {
			res, err := query.TPCB(ms, t.accts, t.hist, cfg.batch, mix(t.seed, k), &query.Meter{})
			if err != nil || !bytes.Equal([]byte(res), out) {
				fmt.Fprintf(os.Stderr, "%s: batch %d: result differs from the replay\n", t.name, k+1)
				failed++
			}
		}
		pages := t.load
		if len(t.outs) > 0 {
			pages = t.lpas
		}
		for j, l := range pages {
			want, err := ms.ReadPage(l)
			if err == nil && corrupt && i == 0 && j == 0 {
				want = append([]byte{want[0] ^ 0xff}, want[1:]...)
			}
			got, herr := ssd.HostRead(l)
			if err != nil || herr != nil || !bytes.Equal(got, want) {
				fmt.Fprintf(os.Stderr, "%s: page %d differs from the replay\n", t.name, l)
				failed++
				break
			}
		}
	}
	return failed
}
