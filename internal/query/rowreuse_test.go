package query

import (
	"fmt"
	"testing"
)

// TestScanRowReuseMatchesFreshDecode runs every TPC-H and synthetic scan
// program twice over one MemStore: once with Scan's reused row and
// interned strings, once with a fresh DecodeRow per row. Q3, Q12, Q14 and
// Q19 keep build-side rows in a HashJoin across the scan, so a kept row
// aliasing the reused one would change their results. Results and Meter
// counts must be identical.
func TestScanRowReuseMatchesFreshDecode(t *testing.T) {
	programs := []struct {
		name string
		p    Program
	}{
		{"Q1", Q1}, {"Q3", Q3}, {"Q12", Q12}, {"Q14", Q14}, {"Q19", Q19},
		{"Arithmetic", Arithmetic}, {"Aggregate", Aggregate}, {"Filter", Filter},
	}
	for _, seed := range []uint64{3, 77} {
		store := NewMemStore(4096)
		sd, err := GenerateTPCH(4000, seed).Store(store, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range programs {
			t.Run(fmt.Sprintf("%s/seed%d", pr.name, seed), func(t *testing.T) {
				var reused, fresh Meter
				got, err := pr.p(store, sd, &reused)
				if err != nil {
					t.Fatal(err)
				}
				decodeEachRow = true
				want, err := pr.p(store, sd, &fresh)
				decodeEachRow = false
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("reused-row result %q, fresh-decode result %q", got, want)
				}
				if reused != fresh {
					t.Fatalf("reused-row meter %+v, fresh-decode meter %+v", reused, fresh)
				}
			})
		}
	}
}

// TestHashJoinKeepsRowsPastScan pins Build's copy: rows kept from a scan
// must still read back as their stored values after the scan has decoded
// every later row into the reused Row.
func TestHashJoinKeepsRowsPastScan(t *testing.T) {
	store := NewMemStore(4096)
	ds := GenerateTPCH(2000, 5)
	sd, err := ds.Store(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	var m Meter
	j := NewHashJoin(&m)
	sc := &Scanner{Store: store, Ref: sd.Part, Meter: &m}
	if err := sc.Scan(func(r Row) error { j.Build(r.Int(0), r); return nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Part.Rows(); i++ {
		kept := j.Probe(ds.Part.Int(i, 0))
		if len(kept) != 1 {
			t.Fatalf("part %d: %d matches", i, len(kept))
		}
		want := ds.Part.Row(i)
		for c, col := range PartSchema {
			if col.Type == Str16 && kept[0].Str(c) != want.Str(c) ||
				col.Type != Str16 && kept[0].Int(c) != want.Int(c) {
				t.Fatalf("part %d column %s: kept row %+v, stored %+v", i, col.Name, kept[0], want)
			}
		}
	}
}

// TestAggregateAllocsPerPage pins that a scan allocates per page, not per
// row: doubling the table adds at most one allocation per added page,
// where decoding each row into a new Row would add several per row (about
// 30 rows fit a lineitem page).
func TestAggregateAllocsPerPage(t *testing.T) {
	allocs := func(rows int) (float64, int) {
		store := NewMemStore(4096)
		sd, err := GenerateTPCH(rows, 9).Store(store, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, pages := sd.Lineitem.PageSpan(4096)
		return testing.AllocsPerRun(5, func() {
			if _, err := Aggregate(store, sd, &Meter{}); err != nil {
				t.Fatal(err)
			}
		}), pages
	}
	small, smallPages := allocs(3000)
	large, largePages := allocs(6000)
	if added := large - small; added > float64(largePages-smallPages) {
		t.Fatalf("Aggregate: %.0f allocs over %d pages, %.0f over %d pages; want <= 1 added per added page",
			small, smallPages, large, largePages)
	}
}

// BenchmarkScan decodes a 20,000-row lineitem table from a MemStore, the
// per-row work of a scan offload without the TEE data path below it.
func BenchmarkScan(b *testing.B) {
	store := NewMemStore(4096)
	sd, err := GenerateTPCH(20_000, 1).Store(store, 0)
	if err != nil {
		b.Fatal(err)
	}
	var sum float64
	for b.Loop() {
		sc := &Scanner{Store: store, Ref: sd.Lineitem, Meter: &Meter{}}
		if err := sc.Scan(func(r Row) error { sum += r.Float(3); return nil }); err != nil {
			b.Fatal(err)
		}
	}
	_ = sum
}
