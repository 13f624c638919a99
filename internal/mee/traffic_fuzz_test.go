package mee

import (
	"encoding/binary"
	"testing"
)

// FuzzTrafficBatchedVsReference is the trivium.Reference pattern applied
// to the traffic model: an arbitrary op stream — permission flips, strided
// AccessSeq scans, AccessMany batches, single Accesses, mixed RO/RW pages
// — is replayed against both the batched TrafficModel and the per-line
// TrafficReference oracle across the mode x sample-weight x cache-size
// matrix, asserting identical TrafficStats, counter-cache statistics, and
// latency sums after every op. The 512-byte cache selection forces the
// degenerate-geometry fallback of the group fast path. Seeds live in
// testdata/fuzz as the committed regression corpus.
func FuzzTrafficBatchedVsReference(f *testing.F) {
	// Mode x weight matrix over a scan-then-heap stream (the core MEE
	// charge shape), plus a degenerate-cache seed and a permission-flip seed.
	scanHeap := []byte{}
	scanHeap = appendOp(scanHeap, 0, 1024|1<<40)          // set page 1024 writable
	scanHeap = appendOp(scanHeap, 1, 0)                   // RO seq scan
	scanHeap = appendOp(scanHeap, 1, 1024*PageSize|3<<32) // writable seq scan
	scanHeap = appendOp(scanHeap, 2, 0x9E3779B97F4A7C15)  // heap batch
	scanHeap = appendOp(scanHeap, 3, 1024*PageSize+7)     // single access
	for _, mode := range []uint8{0, 1, 2} {
		for _, w := range []uint8{0, 7, 255} {
			f.Add(mode, w, uint8(0), scanHeap)
		}
	}
	f.Add(uint8(1), uint8(0), uint8(2), scanHeap) // 512 B cache: fallback path
	flip := appendOp(appendOp(appendOp([]byte{}, 1, 0), 0, 0|1<<40), 1, 1<<33)
	f.Add(uint8(2), uint8(3), uint8(1), flip)

	f.Fuzz(func(t *testing.T, modeB, weightB, cacheB uint8, ops []byte) {
		caches := []uint64{128 << 10, 4 << 10, 512}
		cfg := TrafficConfig{
			Mode:              Mode(modeB % 3),
			SampleWeight:      int(weightB%16) + 1,
			CounterCacheBytes: caches[int(cacheB)%len(caches)],
		}
		p := newPair(cfg)
		for len(ops) >= 9 {
			kind := ops[0]
			u := binary.LittleEndian.Uint64(ops[1:9])
			ops = ops[9:]
			switch kind % 4 {
			case 0: // permission flip on a page near the op's address
				p.setWritable(u%(1<<22), u>>40&1 == 1)
			case 1: // strided scan; strides cross MAC lines and pages
				base := u % (1 << 34)
				n := int64(u>>34%200) + 1
				strides := []uint64{LineSize, 8 * LineSize, PageSize, 3 * LineSize / 2, 1}
				p.seq(base, n, u>>60&1 == 1, strides[int(u>>44)%len(strides)])
			case 2: // scattered batch seeded from the op word
				x := u | 1
				addrs := make([]uint64, int(u>>58%31)+1)
				for i := range addrs {
					x ^= x >> 12
					x ^= x << 25
					x ^= x >> 27
					addrs[i] = (x * 0x2545F4914F6CDD1D) % (1 << 34)
				}
				p.many(addrs, u>>59&1 == 1)
			case 3: // single access
				p.access(u%(1<<34), u>>60&1 == 1)
			}
			p.check(t, "fuzz op")
		}
	})
}

// appendOp encodes one fuzz op record: a kind byte plus a 64-bit operand.
func appendOp(b []byte, kind uint8, operand uint64) []byte {
	b = append(b, kind)
	return binary.LittleEndian.AppendUint64(b, operand)
}
