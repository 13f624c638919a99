package tee

import (
	"testing"
)

// TestReadPageAllocs pins the data-path allocation budget: the pooled
// keystream scratch and the persistent bus buffer leave the returned
// plaintext page as the only per-read page-sized allocation. The bound is
// 2 allocations per read (the 4 KB plaintext plus slack for runtime
// bookkeeping such as pool-local churn under the race detector); the
// pre-pooling path allocated 3 page-sized buffers every call.
func TestReadPageAllocs(t *testing.T) {
	rt, f := testRuntime(t)
	lpas := writePages(t, f, 4, 0x10)
	tee, err := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pool and the persistent bus buffer.
	if _, err := rt.ReadPage(tee, 1); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := rt.ReadPage(tee, 2); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("ReadPage allocates %.1f objects per call, want <= 2", avg)
	}
}

// TestBusSnapshotSurvivesReuse pins that LastBusTransfer copies out of the
// reused bus buffer: a snapshot taken before another read must not change
// when the buffer is overwritten.
func TestBusSnapshotSurvivesReuse(t *testing.T) {
	rt, f := testRuntime(t)
	lpas := writePages(t, f, 4, 0x10)
	tee, err := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ReadPage(tee, 0); err != nil {
		t.Fatal(err)
	}
	snap := rt.LastBusTransfer()
	before := append([]byte(nil), snap...)
	if _, err := rt.ReadPage(tee, 3); err != nil {
		t.Fatal(err)
	}
	for i := range snap {
		if snap[i] != before[i] {
			t.Fatal("bus snapshot mutated by a later read")
		}
	}
}

// BenchmarkReadPage times one 4 KB read through the full data path:
// permission-checked translation, flash read, keystream generation, and
// the bus encryption.
func BenchmarkReadPage(b *testing.B) {
	rt, f := testRuntimeWith(b, Options{})
	lpas := writePages(b, f, 1, 0x5A)
	tee, err := rt.CreateTEE(Config{Binary: []byte{1}, LPAs: lpas})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(f.Device().Geometry().PageSize))
	for b.Loop() {
		if _, err := rt.ReadPage(tee, lpas[0]); err != nil {
			b.Fatal(err)
		}
	}
}
