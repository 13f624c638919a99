package query

import (
	"fmt"
	"strings"

	"iceclave/internal/sim"
)

// AccountSchema is the TPC-B account/branch/teller record layout.
var AccountSchema = Schema{
	{Name: "a_id", Type: I64},
	{Name: "a_branch", Type: I64},
	{Name: "a_balance", Type: F64},
	{Name: "a_pad", Type: Str16},
}

// HistorySchema is the TPC-B history append record.
var HistorySchema = Schema{
	{Name: "h_account", Type: I64},
	{Name: "h_delta", Type: F64},
	{Name: "h_pad", Type: Str16},
}

// SetupAccounts generates and stores n account rows starting at page base.
func SetupAccounts(store Store, n int, base uint32, seed uint64) (TableRef, error) {
	rng := sim.NewRNG(seed)
	t := NewTable("accounts", AccountSchema)
	for i := 0; i < n; i++ {
		r := NewRow(AccountSchema)
		r.SetInt(0, int64(i))
		r.SetInt(1, int64(i%100))
		r.SetFloat(2, float64(rng.Intn(100000)))
		r.SetStr(3, "padpadpadpad")
		t.Append(r)
	}
	if _, err := StoreTable(store, t, base); err != nil {
		return TableRef{}, err
	}
	return TableRef{Schema: AccountSchema, Base: base, NRows: n}, nil
}

// rowPage locates the page and in-page index of row i of a stored table.
func rowPage(ref TableRef, pageSize int, i int) (lpa uint32, idx int) {
	rpp := RowsPerPage(ref.Schema, pageSize)
	return ref.Base + uint32(i/rpp), i % rpp
}

// updateRow performs a metered read-modify-write of one row in place.
// readFootprint is the DRAM read traffic the lookup incurs (buffer-pool
// page install plus index-path reads) — a calibration lever for the
// Table 1 write ratios. The page is staged in scratch (PageSize bytes,
// reused across a transaction batch); every Store copies what WritePage
// hands it, so scratch is free again once the write returns.
func updateRow(store Store, ref TableRef, m *Meter, i int, readFootprint int64, scratch []byte, mutate func(Row) Row) error {
	ps := store.PageSize()
	lpa, idx := rowPage(ref, ps, i)
	data, err := store.ReadPage(lpa)
	if err != nil {
		return err
	}
	m.PagesRead++
	rowSize := ref.Schema.RowSize()
	m.ReadBytes(readFootprint)
	row := DecodeRow(ref.Schema, data[idx*rowSize:])
	m.AddInstr(InstrRowDecode)
	row = mutate(row)
	page := scratch[:copy(scratch, data)]
	tmp := NewTable("tmp", ref.Schema)
	tmp.Append(row)
	tmp.EncodeRow(0, page[idx*rowSize:])
	m.AddInstr(InstrRowDecode)
	m.WriteBytes(int64(rowSize))
	if err := store.WritePage(lpa, page); err != nil {
		return err
	}
	m.PagesWritten++
	return nil
}

// TPCB runs ntxn TPC-B style transactions against the account table:
// read-modify-write a random account, a branch row, and append to the
// history table at page histBase. It returns the final balance checksum.
func TPCB(store Store, accounts TableRef, histBase uint32, ntxn int, seed uint64, m *Meter) (string, error) {
	rng := sim.NewRNG(seed)
	ps := store.PageSize()
	histRows := RowsPerPage(HistorySchema, ps)
	histBuf := NewTable("history", HistorySchema)
	histPage := histBase
	scratch := make([]byte, ps)
	var checksum float64
	for i := 0; i < ntxn; i++ {
		acct := rng.Intn(accounts.NRows)
		delta := float64(rng.Intn(2000) - 1000)
		m.AddInstr(2500) // SQL parse/plan, locking, logging, B-tree descent
		err := updateRow(store, accounts, m, acct, int64(ps), scratch, func(r Row) Row {
			m.AddInstr(2 * InstrArith)
			r.SetFloat(2, r.Float(2)+delta)
			checksum += delta
			return r
		})
		if err != nil {
			return "", err
		}
		// Branch row update: TPC-B touches the branch of the account.
		branch := acct % 100
		if branch < accounts.NRows {
			if err := updateRow(store, accounts, m, branch, int64(ps), scratch, func(r Row) Row {
				r.SetFloat(2, r.Float(2)+delta)
				m.AddInstr(InstrArith)
				return r
			}); err != nil {
				return "", err
			}
		}
		m.WriteBytes(256) // commit log record (WAL)
		// History append, flushed a page at a time.
		h := NewRow(HistorySchema)
		h.SetInt(0, int64(acct))
		h.SetFloat(1, delta)
		histBuf.Append(h)
		m.WriteBytes(int64(HistorySchema.RowSize()))
		if histBuf.Rows() == histRows {
			if err := flushTable(store, histBuf, histPage, m); err != nil {
				return "", err
			}
			histPage++
			histBuf = NewTable("history", HistorySchema)
		}
	}
	if histBuf.Rows() > 0 {
		if err := flushTable(store, histBuf, histPage, m); err != nil {
			return "", err
		}
	}
	m.RowsEmitted++
	return fmt.Sprintf("tpcb_delta:%.2f\n", checksum), nil
}

// flushTable writes a small table into one page.
func flushTable(store Store, t *Table, lpa uint32, m *Meter) error {
	ps := store.PageSize()
	buf := make([]byte, ps)
	rowSize := t.Schema.RowSize()
	for i := 0; i < t.Rows(); i++ {
		t.EncodeRow(i, buf[i*rowSize:])
	}
	if err := store.WritePage(lpa, buf); err != nil {
		return err
	}
	m.PagesWritten++
	m.Allocate(int64(ps))
	return nil
}

// StockSchema is the TPC-C stock/district record layout.
var StockSchema = Schema{
	{Name: "s_id", Type: I64},
	{Name: "s_qty", Type: F64},
	{Name: "s_ytd", Type: F64},
	{Name: "s_pad", Type: Str16},
}

// SetupStock generates and stores n stock rows starting at page base.
func SetupStock(store Store, n int, base uint32, seed uint64) (TableRef, error) {
	rng := sim.NewRNG(seed)
	t := NewTable("stock", StockSchema)
	for i := 0; i < n; i++ {
		r := NewRow(StockSchema)
		r.SetInt(0, int64(i))
		r.SetFloat(1, float64(10+rng.Intn(90)))
		r.SetFloat(2, 0)
		r.SetStr(3, "stockstock")
		t.Append(r)
	}
	if _, err := StoreTable(store, t, base); err != nil {
		return TableRef{}, err
	}
	return TableRef{Schema: StockSchema, Base: base, NRows: n}, nil
}

// TPCC runs ntxn simplified TPC-C transactions: 45% new-order (read 10
// stock rows, decrement quantities, append order lines), 43% payment
// (read-modify-write one row), 12% order-status (read-only probes).
func TPCC(store Store, stock TableRef, olBase uint32, ntxn int, seed uint64, m *Meter) (string, error) {
	rng := sim.NewRNG(seed)
	ps := store.PageSize()
	olRows := RowsPerPage(HistorySchema, ps)
	olBuf := NewTable("orderline", HistorySchema)
	olPage := olBase
	scratch := make([]byte, ps)
	var orders, payments, statuses int64
	for i := 0; i < ntxn; i++ {
		m.AddInstr(3000) // transaction logic: plan, locking, logging, index walks
		switch p := rng.Float64(); {
		case p < 0.45: // new-order
			orders++
			m.WriteBytes(512) // order header + commit log record
			for j := 0; j < 10; j++ {
				item := rng.Intn(stock.NRows)
				if err := updateRow(store, stock, m, item, int64(ps/2), scratch, func(r Row) Row {
					m.AddInstr(3 * InstrArith)
					q := r.Float(1) - 1
					if q < 0 {
						q = 91
					}
					r.SetFloat(1, q)
					r.SetFloat(2, r.Float(2)+1)
					return r
				}); err != nil {
					return "", err
				}
				ol := NewRow(HistorySchema)
				ol.SetInt(0, int64(item))
				ol.SetFloat(1, 1)
				olBuf.Append(ol)
				m.WriteBytes(int64(HistorySchema.RowSize()))
				if olBuf.Rows() == olRows {
					if err := flushTable(store, olBuf, olPage, m); err != nil {
						return "", err
					}
					olPage++
					olBuf = NewTable("orderline", HistorySchema)
				}
			}
		case p < 0.88: // payment
			payments++
			m.WriteBytes(256) // commit log record
			if err := updateRow(store, stock, m, rng.Intn(stock.NRows), int64(ps/2), scratch, func(r Row) Row {
				m.AddInstr(InstrArith)
				r.SetFloat(2, r.Float(2)+10)
				return r
			}); err != nil {
				return "", err
			}
		default: // order-status: read-only
			statuses++
			lpa, idx := rowPage(stock, ps, rng.Intn(stock.NRows))
			data, err := store.ReadPage(lpa)
			if err != nil {
				return "", err
			}
			m.PagesRead++
			m.ReadBytes(int64(ps / 2))
			_ = DecodeRow(stock.Schema, data[idx*stock.Schema.RowSize():])
			m.AddInstr(InstrRowDecode)
		}
	}
	if olBuf.Rows() > 0 {
		if err := flushTable(store, olBuf, olPage, m); err != nil {
			return "", err
		}
	}
	m.RowsEmitted++
	return fmt.Sprintf("tpcc:orders=%d,payments=%d,status=%d\n", orders, payments, statuses), nil
}

// SetupText generates npages of pseudo-text (space-separated words drawn
// from a skewed vocabulary) starting at page base.
func SetupText(store Store, npages int, base uint32, seed uint64) error {
	rng := sim.NewRNG(seed)
	vocab := make([]string, 1000)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("word%03d", i)
	}
	ps := store.PageSize()
	for p := 0; p < npages; p++ {
		var b strings.Builder
		for b.Len() < ps-16 {
			b.WriteString(vocab[rng.Zipf(int64(len(vocab)), 0.8, 0.05)])
			b.WriteByte(' ')
		}
		buf := make([]byte, ps)
		copy(buf, b.String())
		if err := store.WritePage(base+uint32(p), buf); err != nil {
			return err
		}
	}
	return nil
}

// Wordcount scans npages of text from page base and counts word
// frequencies — the Biscuit-derived workload of Table 4, and the most
// write-intensive one (every word updates a hash bucket).
func Wordcount(store Store, base uint32, npages int, m *Meter) (string, error) {
	counts := make(map[string]int64)
	var words int64
	for p := 0; p < npages; p++ {
		data, err := store.ReadPage(base + uint32(p))
		if err != nil {
			return "", err
		}
		m.PagesRead++
		m.ReadBytes(int64(len(data)))
		start := -1
		for i, c := range data {
			isWord := c > ' ' && c != 0
			switch {
			case isWord && start < 0:
				start = i
			case !isWord && start >= 0:
				w := string(data[start:i])
				if counts[w] == 0 {
					m.Allocate(16)
				}
				counts[w]++
				words++
				// SIMD-friendly tokenization plus one hash update: the
				// per-word cost, with the DRAM traffic of the (large)
				// count table.
				m.AddInstr(InstrWordStep + InstrWordStep/2 + 6)
				m.ReadBytes(16)
				m.WriteBytes(16)
				start = -1
			}
		}
	}
	m.RowsEmitted++
	return fmt.Sprintf("wordcount:words=%d,distinct=%d\n", words, len(counts)), nil
}
