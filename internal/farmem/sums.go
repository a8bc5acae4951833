package farmem

import "hash/crc32"

// castagnoli is the CRC32C table: the polynomial iSCSI and RoCE's ICRC
// successors use, and the one amd64 and arm64 compute in hardware.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the end-to-end integrity checksum carried alongside one-sided
// payloads (CRC32C). The far node computes it over what it sends — or
// answers it from the region's table, see memRegion.sums — and the
// transport recomputes it over what arrived.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// GranuleBytes is the span one stored checksum covers: 4 KiB of a region,
// counted from the region's base. The last granule of a region whose size
// is not a multiple of it is shorter.
const GranuleBytes = 4096

// sumKnown marks a table entry that holds a checksum; an entry without it
// (the zero value) must be computed.
const sumKnown = 1 << 32

// sum returns the CRC32C of the n bytes at region offset off. A read of
// exactly one whole granule is answered from the table, and computed into it
// when the table does not know it yet; any other range is hashed.
func (r *memRegion) sum(off uint64, n int) uint32 {
	b := r.data[off : off+uint64(n)]
	if n == 0 || off%GranuleBytes != 0 || n != min(GranuleBytes, len(r.data)-int(off)) {
		return Checksum(b)
	}
	if r.sums == nil {
		r.sums = make([]uint64, (len(r.data)+GranuleBytes-1)/GranuleBytes)
	}
	g := off / GranuleBytes
	if s := r.sums[g]; s&sumKnown != 0 {
		return uint32(s)
	}
	s := Checksum(b)
	r.sums[g] = sumKnown | uint64(s)
	return s
}

// invalidate forgets the stored checksum of every granule that [off, off+n)
// touches. Every path that changes a region's bytes calls it (WriteAt, Slice)
// or clears the whole table (WipeMemory, regionList.take).
func (r *memRegion) invalidate(off uint64, n int) {
	if r.sums == nil || n <= 0 {
		return
	}
	clear(r.sums[off/GranuleBytes : (off+uint64(n)-1)/GranuleBytes+1])
}
