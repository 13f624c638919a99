package workload

import (
	"fmt"

	"iceclave/internal/query"
)

// Op is a traced storage operation kind.
type Op uint8

// Trace operation kinds.
const (
	OpRead Op = iota
	OpWrite
)

// Step is one storage operation plus the compute the program performed
// since the previous operation: the unit the timing layer replays.
type Step struct {
	Op  Op
	LPA uint32
	// PreInstr is the instruction count retired between the previous
	// storage operation and this one.
	PreInstr int64
	// PreMemReads/PreMemWrites are the 64-byte memory accesses performed
	// in that compute window (DRAM-level, after cache absorption).
	PreMemReads  int64
	PreMemWrites int64
}

// Trace is a recorded workload execution. A trace is immutable once
// recorded: replays share it read-only, and core caches per-trace results
// (MEE charge tapes) keyed by the trace's identity, so changing a
// recorded trace's steps in place would replay stale charges.
type Trace struct {
	Name string
	// Steps in execution order.
	Steps []Step
	// Tail is the compute performed after the last storage operation.
	Tail Step
	// Result is the program's verified output.
	Result string
	// Meter is the whole-run accounting.
	Meter query.Meter
	// SetupPages is the number of distinct pages the dataset occupies.
	SetupPages int
	// PageSize is the page granularity the trace was recorded at.
	PageSize int
}

// InputBytes returns the flash bytes the program read.
func (t *Trace) InputBytes() int64 { return t.Meter.PagesRead * int64(t.PageSize) }

// WrittenBytes returns the flash bytes the program wrote.
func (t *Trace) WrittenBytes() int64 { return t.Meter.PagesWritten * int64(t.PageSize) }

// recordingStore wraps a MemStore, snapshotting meter deltas at each I/O.
type recordingStore struct {
	inner *query.MemStore
	meter *query.Meter
	steps []Step

	lastInstr, lastR, lastW int64
}

func (r *recordingStore) PageSize() int { return r.inner.PageSize() }

func (r *recordingStore) snap(op Op, lpa uint32) {
	r.steps = append(r.steps, Step{
		Op:           op,
		LPA:          lpa,
		PreInstr:     r.meter.Instructions - r.lastInstr,
		PreMemReads:  r.meter.MemReads - r.lastR,
		PreMemWrites: r.meter.MemWrites - r.lastW,
	})
	r.lastInstr, r.lastR, r.lastW = r.meter.Instructions, r.meter.MemReads, r.meter.MemWrites
}

func (r *recordingStore) ReadPage(lpa uint32) ([]byte, error) {
	r.snap(OpRead, lpa)
	return r.inner.ReadPage(lpa)
}

func (r *recordingStore) WritePage(lpa uint32, data []byte) error {
	r.snap(OpWrite, lpa)
	return r.inner.WritePage(lpa, data)
}

// Record sets up w at scale sc and executes it once against an in-memory
// store, recording the trace the timing layer replays. Setup I/O (dataset
// generation) is excluded from the trace.
func Record(w *Workload, sc Scale, pageSize int) (*Trace, error) {
	var m query.Meter
	rec := &recordingStore{inner: query.NewMemStore(pageSize), meter: &m}
	run, err := w.Setup(rec, sc)
	if err != nil {
		return nil, fmt.Errorf("workload %s: setup: %w", w.Name, err)
	}
	setupPages := rec.inner.Pages()
	rec.steps = nil // drop setup writes from the trace
	rec.lastInstr, rec.lastR, rec.lastW = m.Instructions, m.MemReads, m.MemWrites
	result, err := run(&m)
	if err != nil {
		return nil, fmt.Errorf("workload %s: run: %w", w.Name, err)
	}
	tail := Step{
		PreInstr:     m.Instructions - rec.lastInstr,
		PreMemReads:  m.MemReads - rec.lastR,
		PreMemWrites: m.MemWrites - rec.lastW,
	}
	return &Trace{
		Name:       w.Name,
		Steps:      rec.steps,
		Tail:       tail,
		Result:     result,
		Meter:      m,
		SetupPages: setupPages,
		PageSize:   pageSize,
	}, nil
}

// RecordAll records every standard workload at the given scale.
func RecordAll(sc Scale, pageSize int) ([]*Trace, error) {
	var out []*Trace
	for _, w := range Standard() {
		tr, err := Record(w, sc, pageSize)
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}
