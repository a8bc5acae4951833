// Package codec implements the wire codecs of the compressed far-memory
// data path: a byte-run (RLE) compressor for line/page payloads and a
// delta-from-previous-version encoder for dirty write-back, plus the
// deterministic cost model that charges their CPU time into the virtual
// clock.
//
// The codecs are real: they round-trip actual bytes, so every compressed
// size is a pure function of the payload and two runs of the same workload
// report byte-identical wire traffic. The transport uses EncodedLen to
// charge netmodel.Bandwidth for the encoded payload instead of the raw one
// (a sender that sees encoding inflate falls back to raw — the chosen codec
// ID rides in the message header, which PerMessageOverhead already covers),
// and the runtime uses AppendDiffRanges/MergeRanges to ship a patch instead
// of a full dirty line.
package codec

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"mira/internal/sim"
)

// ID identifies a wire codec.
type ID uint8

const (
	// None ships raw bytes (the zero-cost default).
	None ID = iota
	// ByteRun is the LZ-style byte-run (RLE) codec: repeated-byte runs
	// collapse to two-byte tokens, literals are length-prefixed.
	ByteRun
)

func (id ID) String() string {
	switch id {
	case None:
		return "none"
	case ByteRun:
		return "byterun"
	default:
		return fmt.Sprintf("codec(%d)", uint8(id))
	}
}

// ByteRun token format: a control byte c followed by its operand —
//
//	c < 0x80:  literal run; the next c+1 bytes (1..128) are copied verbatim
//	c >= 0x80: repeat run; the next byte repeats (c-0x80)+minRun times (3..130)
//
// Runs shorter than minRun are cheaper as literals (a repeat token costs
// two bytes), so the encoder only emits repeat tokens for runs of three or
// more equal bytes.
const (
	maxLiteral = 128
	minRun     = 3
	maxRun     = 130
)

// AppendByteRun appends the ByteRun encoding of src to dst and returns the
// extended slice.
func AppendByteRun(dst, src []byte) []byte {
	i := 0
	litStart := 0
	flushLit := func(end int) {
		for litStart < end {
			n := end - litStart
			if n > maxLiteral {
				n = maxLiteral
			}
			dst = append(dst, byte(n-1))
			dst = append(dst, src[litStart:litStart+n]...)
			litStart += n
		}
	}
	for i < len(src) {
		j := i + 1
		for j < len(src) && src[j] == src[i] {
			j++
		}
		run := j - i
		if run >= minRun {
			flushLit(i)
			for run > 0 {
				n := run
				if n > maxRun {
					n = maxRun
				}
				if n < minRun {
					// A 1-2 byte tail after maximal repeat tokens: emit it
					// as single-byte literal tokens (2 bytes each).
					for k := 0; k < n; k++ {
						dst = append(dst, byte(0x00), src[i])
					}
					run = 0
					continue
				}
				dst = append(dst, byte(0x80+(n-minRun)), src[i])
				run -= n
			}
			i = j
			litStart = j
			continue
		}
		i = j
	}
	flushLit(len(src))
	return dst
}

// byteRunLen computes len(AppendByteRun(nil, src)) without allocating the
// encoding — the hot path for wire-length accounting. It counts eight bytes
// a step, without finding a single run.
//
// Call position p "deep" when src[p-2] == src[p-1] == src[p]: the third or a
// later byte of a repeat run. A repeat run of up to maxRun bytes is one
// two-byte token, and a literal stretch of up to maxLiteral bytes costs one
// control byte plus its bytes, so the encoding is len(src), less the deep
// bytes, plus one control byte per literal stretch. A stretch is counted at
// the repeat run that ends it — a run starting at s after a literal at s-1,
// i.e. whose third byte s+2 sees a shallow s-1 — or at the end of src. Only a
// run or stretch too long for one token costs more (streakExtra): its bytes
// are a streak of equal deep flags over 128 long, so only streaks that reach
// from one word's last flag change to a later word's first are measured.
func byteRunLen(src []byte) int {
	n := len(src)
	if n == 0 {
		return 0
	}
	// Each mask below keeps one flag per byte, in the byte's high bit.
	// prevX's top byte stands for a src[-1] that differs from src[0], so
	// neither src[0] nor src[1] is deep; prevD's top byte marks src[-1]
	// deep, so a run at 0 has no literal stretch before it.
	prevX, prevA, prevD := uint64(^src[0])<<56, uint64(0), uint64(0x80)<<56
	total, since := n, 0 // since: where the current streak of equal flags began
	for q := 0; q < n; q += 8 {
		x, valid := uint64(0), ^uint64(0)
		if q+8 <= n {
			x = word(src, q)
		} else {
			for i, c := range src[q:] {
				x |= uint64(c) << (8 * i)
			}
			valid = 1<<(8*(n-q)) - 1
		}
		a := x ^ (x<<8 | prevX>>56) // byte t: src[p] ^ src[p-1], for p = q+t
		d := zeroBytes(a) & zeroBytes(a<<8|prevA>>56) & valid
		before := d<<8 | prevD>>56 // byte t: whether p-1 is deep
		thirds := d &^ before
		total += bits.OnesCount64(thirds&^(d<<24|prevD>>40)) - bits.OnesCount64(d)
		if t := (d ^ before) & valid; t != 0 {
			first := q + bits.TrailingZeros64(t)/8
			total += streakExtra(first-since, d>>(8*(first-q))&0x80 == 0, false)
			since = q + (63-bits.LeadingZeros64(t))/8
		} else if d == highBits {
			// Deep throughout: the run goes on while whole words repeat x,
			// each of them deep throughout and leaving every mask as is.
			for q+16 <= n && word(src, q+8) == x {
				q += 8
				total -= 8
			}
		}
		prevX, prevA, prevD = x, a, d
	}
	lastDeep := prevD>>(8*((n-1)&7))&0x80 != 0
	total += streakExtra(n-since, lastDeep, true)
	if !lastDeep {
		total++ // the control byte of the literal stretch src ends with
	}
	return total
}

// streakExtra is what a streak of k equal deep flags costs beyond the count
// byteRunLen makes. A deep streak is a repeat run of k+2 bytes, one token if
// it fits maxRun. A shallow streak is a literal stretch — the last two bytes
// are the next run's first unless src ends there — with one control byte if
// it fits maxLiteral.
func streakExtra(k int, deep, atEnd bool) int {
	if deep {
		run := k + 2
		if run <= maxRun {
			return 0
		}
		extra := 2*(run/maxRun) - 2
		if tail := run % maxRun; tail >= minRun {
			extra += 2
		} else {
			// A 1-2 byte tail ships as single-byte literal tokens.
			extra += 2 * tail
		}
		return extra
	}
	lit := k
	if !atEnd {
		lit -= 2
	}
	if lit <= maxLiteral {
		return 0
	}
	return (lit+maxLiteral-1)/maxLiteral - 1
}

// Word-at-a-time helpers. A word holds eight consecutive bytes of a payload,
// loaded little-endian so byte t of the payload is byte t of the word and
// bits.TrailingZeros64 finds the lowest-addressed byte of interest.
const (
	lowBits  = 0x0101010101010101
	highBits = 0x8080808080808080
)

func word(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

// zeroBytes sets the high bit of exactly the zero bytes of x.
func zeroBytes(x uint64) uint64 {
	return ^((x&^highBits + ^uint64(highBits)) | x) & highBits
}

// DecodeByteRun decodes enc into dst, returning the number of bytes
// produced. dst must be large enough for the decoded payload.
func DecodeByteRun(enc, dst []byte) (int, error) {
	out := 0
	i := 0
	for i < len(enc) {
		c := enc[i]
		i++
		if c < 0x80 {
			n := int(c) + 1
			if i+n > len(enc) || out+n > len(dst) {
				return 0, fmt.Errorf("codec: truncated byterun literal (need %d)", n)
			}
			copy(dst[out:], enc[i:i+n])
			i += n
			out += n
			continue
		}
		n := int(c-0x80) + minRun
		if i >= len(enc) || out+n > len(dst) {
			return 0, fmt.Errorf("codec: truncated byterun repeat (need %d)", n)
		}
		b := enc[i]
		i++
		for k := 0; k < n; k++ {
			dst[out+k] = b
		}
		out += n
	}
	return out, nil
}

// EncodedLen reports the bytes src occupies on the wire under id: the codec
// payload when it wins, len(src) otherwise (raw fallback — a real sender
// would never ship an inflated encoding, and the choice travels in the
// per-message header covered by PerMessageOverhead). None always reports
// len(src).
func EncodedLen(id ID, src []byte) int {
	if id == None || len(src) == 0 {
		return len(src)
	}
	if n := byteRunLen(src); n < len(src) {
		return n
	}
	return len(src)
}

// Ratio reports EncodedLen(ByteRun, sample)/len(sample) — the planner's
// compressibility screen. An empty sample reports 1 (incompressible).
func Ratio(sample []byte) float64 {
	if len(sample) == 0 {
		return 1
	}
	return float64(EncodedLen(ByteRun, sample)) / float64(len(sample))
}

// Range is a half-open changed byte range [Off, Off+Len) of a payload.
type Range struct {
	Off, Len int
}

// DiffRanges compares cur against base (same length) and returns the
// changed ranges, merging ranges separated by fewer than joinGap unchanged
// bytes — every merged gap saves a scatter SGE at the cost of re-shipping
// the gap bytes. A nil/short base yields one full-payload range.
func DiffRanges(base, cur []byte, joinGap int) []Range {
	return AppendDiffRanges(nil, base, cur, joinGap)
}

// AppendDiffRanges appends DiffRanges(base, cur, joinGap) to dst and returns
// the extended slice; a dst with room for them makes it allocate nothing. It
// compares eight bytes a step.
func AppendDiffRanges(dst []Range, base, cur []byte, joinGap int) []Range {
	if len(base) != len(cur) {
		return append(dst, Range{Off: 0, Len: len(cur)})
	}
	i := nextDiff(base, cur, 0)
	for i < len(cur) {
		end := nextSame(base, cur, i+1)
		j := nextDiff(base, cur, end)
		for j < len(cur) && j-end < joinGap {
			end = nextSame(base, cur, j+1)
			j = nextDiff(base, cur, end)
		}
		dst = append(dst, Range{Off: i, Len: end - i})
		i = j
	}
	return dst
}

// MergeRanges merges, in place, the ranges of rs (sorted and disjoint, as
// DiffRanges returns them) that are separated by fewer than joinGap bytes,
// and returns the merged prefix of rs. For g2 >= g1,
// MergeRanges(DiffRanges(b, c, g1), g2) equals DiffRanges(b, c, g2).
func MergeRanges(rs []Range, joinGap int) []Range {
	if len(rs) == 0 {
		return rs
	}
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if r.Off-(last.Off+last.Len) < joinGap {
			last.Len = r.Off + r.Len - last.Off
			continue
		}
		out = append(out, r)
	}
	return out
}

// nextDiff returns the first k >= i with a[k] != b[k], or len(a).
func nextDiff(a, b []byte, i int) int {
	for ; i+8 <= len(a); i += 8 {
		if x := word(a, i) ^ word(b, i); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < len(a) && a[i] == b[i] {
		i++
	}
	return i
}

// nextSame returns the first k >= i with a[k] == b[k], or len(a). The
// borrow-based zero-byte mask is exact up to the lowest zero byte, which is
// all it is asked for.
func nextSame(a, b []byte, i int) int {
	for ; i+8 <= len(a); i += 8 {
		x := word(a, i) ^ word(b, i)
		if m := (x - lowBits) &^ x & highBits; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for i < len(a) && a[i] != b[i] {
		i++
	}
	return i
}

// appendUvarint appends v in unsigned LEB128 form.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// uvarint decodes a LEB128 value, returning it and the bytes consumed
// (0 on truncation).
func uvarint(b []byte) (uint64, int) {
	var v uint64
	var s uint
	for i, c := range b {
		if c < 0x80 {
			return v | uint64(c)<<s, i + 1
		}
		v |= uint64(c&0x7f) << s
		s += 7
		if s > 63 {
			return 0, 0
		}
	}
	return 0, 0
}

// EncodeDelta encodes cur as a patch against base: a sequence of
// [offset-delta uvarint][length uvarint][length bytes] tokens with strictly
// increasing offsets. Decoding the patch over base reproduces cur exactly.
func EncodeDelta(base, cur []byte) []byte {
	var out []byte
	prev := 0
	for _, r := range DiffRanges(base, cur, 8) {
		out = appendUvarint(out, uint64(r.Off-prev))
		out = appendUvarint(out, uint64(r.Len))
		out = append(out, cur[r.Off:r.Off+r.Len]...)
		prev = r.Off
	}
	return out
}

// ApplyDelta reconstructs the current version into dst: dst is first filled
// from base, then the patch's ranges are applied.
func ApplyDelta(base, patch, dst []byte) error {
	if len(base) != len(dst) {
		return fmt.Errorf("codec: delta base %d bytes, dst %d", len(base), len(dst))
	}
	copy(dst, base)
	off := 0
	i := 0
	for i < len(patch) {
		d, n := uvarint(patch[i:])
		if n == 0 {
			return fmt.Errorf("codec: truncated delta offset at %d", i)
		}
		i += n
		l, n := uvarint(patch[i:])
		if n == 0 {
			return fmt.Errorf("codec: truncated delta length at %d", i)
		}
		i += n
		off += int(d)
		if off < 0 || int(l) < 0 || off+int(l) > len(dst) || i+int(l) > len(patch) {
			return fmt.Errorf("codec: delta range [%d,+%d) out of bounds", off, l)
		}
		copy(dst[off:off+int(l)], patch[i:i+int(l)])
		i += int(l)
	}
	return nil
}

// CostModel charges the codec's CPU time into simulated time. The defaults
// model an inline (on-NIC) compression engine: a fixed per-operation setup
// cost plus a per-byte streaming cost far below the wire's own per-byte
// cost (0.16 ns/B at the default 6.25 GB/s link), so compression can win on
// bandwidth-bound sections and the planner's per-section verdict decides
// where it actually pays. Every figure is a constant — two runs charge
// identical time.
type CostModel struct {
	// PerOp is the fixed engine setup cost per encode or decode call.
	PerOp sim.Duration
	// EncodeNsPerByte and DecodeNsPerByte are the streaming costs per raw
	// payload byte.
	EncodeNsPerByte float64
	DecodeNsPerByte float64
}

// DefaultCostModel returns the inline-engine calibration (DESIGN.md §14).
func DefaultCostModel() CostModel {
	return CostModel{
		PerOp:           20 * sim.Nanosecond,
		EncodeNsPerByte: 0.02,
		DecodeNsPerByte: 0.01,
	}
}

// EncodeCost is the CPU time to encode n raw bytes.
func (m CostModel) EncodeCost(n int) sim.Duration {
	return m.PerOp + sim.Duration(float64(n)*m.EncodeNsPerByte)
}

// DecodeCost is the CPU time to decode back to n raw bytes.
func (m CostModel) DecodeCost(n int) sim.Duration {
	return m.PerOp + sim.Duration(float64(n)*m.DecodeNsPerByte)
}
