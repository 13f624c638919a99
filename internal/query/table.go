// Package query implements the mini columnar engine behind the paper's
// evaluation workloads (Table 4): fixed-width row storage paged onto the
// simulated SSD, scan/filter/hash-join/aggregate operators with
// instruction and memory-access accounting, the five TPC-H queries (Q1,
// Q3, Q12, Q14, Q19), simplified TPC-B and TPC-C transaction mixes,
// Wordcount, and the three synthetic operators (Arithmetic, Aggregate,
// Filter).
//
// Programs execute against a Store (flash pages reached through the FTL
// or the TEE) and record their work in a Meter; the timing layer converts
// metered operation counts into simulated time.
//
// Concurrency contract: a Meter, a Store handle, and the operator types
// built over them belong to one program invocation on one goroutine.
// Concurrent offloaded programs are isolated by giving each its own
// Meter/Store pair (see iceclave.SSD.Execute); the shared device beneath
// those handles enforces its own thread safety.
package query

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ColType is a column's physical type.
type ColType uint8

// Column types. Dates are stored as int64 days since an epoch.
const (
	I64 ColType = iota
	F64
	Str16 // fixed-width 16-byte string
)

// Width returns the encoded width in bytes.
func (t ColType) Width() int {
	if t == Str16 {
		return 16
	}
	return 8
}

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered column list.
type Schema []Column

// RowSize returns the fixed encoded row width.
func (s Schema) RowSize() int {
	n := 0
	for _, c := range s {
		n += c.Type.Width()
	}
	return n
}

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Row is one decoded record: numeric values as uint64 bit patterns
// (float64 via math.Float64bits) and strings in Strs, indexed per column
// position for their kind.
type Row struct {
	schema Schema
	ints   []uint64
	strs   []string
}

// NewRow returns an empty row for a schema.
func NewRow(s Schema) Row {
	return Row{schema: s, ints: make([]uint64, len(s)), strs: make([]string, len(s))}
}

// Int returns column i as int64.
func (r Row) Int(i int) int64 { return int64(r.ints[i]) }

// Float returns column i as float64.
func (r Row) Float(i int) float64 { return math.Float64frombits(r.ints[i]) }

// Str returns column i as a string.
func (r Row) Str(i int) string { return r.strs[i] }

// SetInt stores an int64 in column i.
func (r Row) SetInt(i int, v int64) { r.ints[i] = uint64(v) }

// SetFloat stores a float64 in column i.
func (r Row) SetFloat(i int, v float64) { r.ints[i] = math.Float64bits(v) }

// SetStr stores a string in column i (truncated to 16 bytes on encode).
func (r *Row) SetStr(i int, v string) { r.strs[i] = v }

// Table is an in-memory table: decoded rows in column-major storage.
type Table struct {
	Name   string
	Schema Schema
	nrows  int
	ints   [][]uint64 // per column; nil for string columns
	strs   [][]string // per column; nil for numeric columns
}

// NewTable returns an empty table.
func NewTable(name string, schema Schema) *Table {
	t := &Table{Name: name, Schema: schema,
		ints: make([][]uint64, len(schema)), strs: make([][]string, len(schema))}
	return t
}

// Rows returns the row count.
func (t *Table) Rows() int { return t.nrows }

// Append adds a row; the row's schema must match.
func (t *Table) Append(r Row) {
	for i, c := range t.Schema {
		if c.Type == Str16 {
			t.strs[i] = append(t.strs[i], r.strs[i])
		} else {
			t.ints[i] = append(t.ints[i], r.ints[i])
		}
	}
	t.nrows++
}

// Row materializes row i.
func (t *Table) Row(i int) Row {
	r := NewRow(t.Schema)
	for c, col := range t.Schema {
		if col.Type == Str16 {
			r.strs[c] = t.strs[c][i]
		} else {
			r.ints[c] = t.ints[c][i]
		}
	}
	return r
}

// Int returns column col of row i as int64.
func (t *Table) Int(i, col int) int64 { return int64(t.ints[col][i]) }

// Float returns column col of row i as float64.
func (t *Table) Float(i, col int) float64 { return math.Float64frombits(t.ints[col][i]) }

// Str returns column col of row i.
func (t *Table) Str(i, col int) string { return t.strs[col][i] }

// EncodeRow serializes row i into dst (len >= RowSize).
func (t *Table) EncodeRow(i int, dst []byte) {
	off := 0
	for c, col := range t.Schema {
		switch col.Type {
		case Str16:
			var buf [16]byte
			copy(buf[:], t.strs[c][i])
			copy(dst[off:], buf[:])
			off += 16
		default:
			binary.LittleEndian.PutUint64(dst[off:], t.ints[c][i])
			off += 8
		}
	}
}

// Clone returns a copy of r that owns its storage, so it stays valid
// after the scan that produced r decodes the next row into it.
func (r Row) Clone() Row {
	return Row{schema: r.schema,
		ints: append([]uint64(nil), r.ints...),
		strs: append([]string(nil), r.strs...)}
}

// DecodeRow parses one encoded row.
func DecodeRow(s Schema, src []byte) Row {
	r := NewRow(s)
	r.decode(src, nil)
	return r
}

// decode parses one encoded row into r's existing storage, taking each
// Str16 value from strs.
func (r Row) decode(src []byte, strs strIntern) {
	off := 0
	for c, col := range r.schema {
		switch col.Type {
		case Str16:
			b := src[off : off+16]
			n := 0
			for n < 16 && b[n] != 0 {
				n++
			}
			r.strs[c] = strs.get(b[:n])
			off += 16
		default:
			r.ints[c] = binary.LittleEndian.Uint64(src[off:])
			off += 8
		}
	}
}

// maxInterned caps a strIntern's distinct values, so a high-cardinality
// string column costs one allocation per value, as DecodeRow does,
// instead of an ever-growing table.
const maxInterned = 1024

// strIntern shares one string per distinct Str16 value: a scan decodes
// the same few flags, modes and segments over and over, and looking a
// value up by its bytes allocates nothing. A nil strIntern interns
// nothing.
type strIntern map[string]string

func (t strIntern) get(b []byte) string {
	if s, ok := t[string(b)]; ok {
		return s
	}
	s := string(b)
	if t != nil && len(t) < maxInterned {
		t[s] = s
	}
	return s
}

// RowsPerPage returns how many rows of this schema fit a page.
func RowsPerPage(s Schema, pageSize int) int {
	n := pageSize / s.RowSize()
	if n == 0 {
		panic(fmt.Sprintf("query: row of %d bytes exceeds page size %d", s.RowSize(), pageSize))
	}
	return n
}

// PageCount returns how many pages a table of nrows occupies.
func PageCount(s Schema, nrows, pageSize int) int {
	rpp := RowsPerPage(s, pageSize)
	return (nrows + rpp - 1) / rpp
}
