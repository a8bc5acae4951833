// Package transporttest holds the shared transport.Backend conformance
// suite. Every backend on the far-memory data path — the plain in-memory
// node backend, the fault injector wrapped around it, and each cluster
// per-node backend — must pass the same behavioral contract, so the three
// stay aligned as they evolve.
package transporttest

import (
	"bytes"
	"errors"
	"testing"

	"mira/internal/codec"
	"mira/internal/farmem"
	"mira/internal/netmodel"
	"mira/internal/sim"
	"mira/internal/transport"
)

// Instance is one backend under test plus the node it ultimately serves
// (needed to allocate addresses and register procedures).
type Instance struct {
	Backend transport.Backend
	Node    *farmem.Node
}

// Factory builds a fresh, independent instance. The suite calls it several
// times: behavior must depend only on construction parameters, never on
// shared global state.
type Factory func(t *testing.T) Instance

// Conformance runs the shared transport.Backend contract against mk.
//
// The contract (for a backend whose probabilistic faults are disabled and
// whose schedule has no window covering virtual time zero):
//
//   - Write then Read round-trips bytes, and the returned checksum matches
//     farmem.Checksum over the delivered payload — also for a whole granule
//     whose sum the far side answers from its table of sums at rest, after
//     an overwrite of part or all of it and after a wipe.
//   - Gather returns the requested pieces concatenated in request order,
//     checksummed; Scatter makes its pieces visible to subsequent Reads.
//   - Accesses outside any allocation fail with farmem.ErrUnmapped and are
//     NOT transient (retrying cannot help).
//   - Call of an unregistered procedure fails with farmem.ErrUnknownProc;
//     a registered procedure executes with far-memory access and its
//     compute time is scaled by the node's CPU slowdown.
//   - With a wire codec installed on the transport above it, a bit flipped
//     in a read reply is still caught by the checksum — which covers the
//     decoded payload, not the wire-accounted bytes — and the retried
//     operation replays identically. The same holds for a read whose sum
//     came from the table.
//   - Two instances from the same factory replay an identical operation
//     sequence identically (checksums, payloads, injected extra delay) —
//     the determinism clause that makes fault schedules bisectable.
func Conformance(t *testing.T, mk Factory) {
	t.Run("ReadWriteRoundTrip", func(t *testing.T) {
		in := mk(t)
		addr := mustAlloc(t, in.Node, 256)
		want := pattern(256, 1)
		if _, err := in.Backend.Write(0, addr, want); err != nil {
			t.Fatalf("write: %v", err)
		}
		got := make([]byte, 256)
		sum, _, err := in.Backend.Read(0, addr, got)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read returned wrong bytes")
		}
		if sum != farmem.Checksum(want) {
			t.Fatalf("checksum %#x does not cover the true payload (want %#x)", sum, farmem.Checksum(want))
		}
	})

	t.Run("GatherOrderAndChecksum", func(t *testing.T) {
		in := mk(t)
		a := mustAlloc(t, in.Node, 128)
		b := mustAlloc(t, in.Node, 128)
		da, db := pattern(128, 3), pattern(128, 7)
		if _, err := in.Backend.Write(0, a, da); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Backend.Write(0, b, db); err != nil {
			t.Fatal(err)
		}
		// Request order b-then-a must be preserved in the reply.
		data, sum, _, err := in.Backend.Gather(0, []uint64{b, a}, []int{128, 64})
		if err != nil {
			t.Fatalf("gather: %v", err)
		}
		want := append(append([]byte{}, db...), da[:64]...)
		if !bytes.Equal(data, want) {
			t.Fatalf("gather reply out of order or wrong")
		}
		if sum != farmem.Checksum(want) {
			t.Fatalf("gather checksum mismatch")
		}
	})

	t.Run("ScatterVisible", func(t *testing.T) {
		in := mk(t)
		a := mustAlloc(t, in.Node, 64)
		b := mustAlloc(t, in.Node, 64)
		pa, pb := pattern(64, 11), pattern(64, 13)
		if _, err := in.Backend.Scatter(0, []uint64{a, b}, [][]byte{pa, pb}); err != nil {
			t.Fatalf("scatter: %v", err)
		}
		got := make([]byte, 64)
		if _, _, err := in.Backend.Read(0, b, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pb) {
			t.Fatalf("scatter piece not visible to read")
		}
	})

	t.Run("UnmappedIsPermanent", func(t *testing.T) {
		in := mk(t)
		buf := make([]byte, 8)
		_, _, err := in.Backend.Read(0, 0xdead, buf)
		if err == nil {
			t.Fatalf("read of unmapped address succeeded")
		}
		if !errors.Is(err, farmem.ErrUnmapped) {
			t.Fatalf("unmapped read error %v is not farmem.ErrUnmapped", err)
		}
		if transport.IsTransient(err) {
			t.Fatalf("unmapped access classified transient — retries would spin forever")
		}
	})

	t.Run("CallContract", func(t *testing.T) {
		in := mk(t)
		if _, _, _, err := in.Backend.Call(0, "nope", nil); !errors.Is(err, farmem.ErrUnknownProc) {
			t.Fatalf("unknown proc error = %v, want farmem.ErrUnknownProc", err)
		}
		addr := mustAlloc(t, in.Node, 8)
		if _, err := in.Backend.Write(0, addr, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
			t.Fatal(err)
		}
		in.Node.Register("sum8", func(mem *farmem.Mem, args []byte) ([]byte, sim.Duration, error) {
			b, err := mem.Slice(addr, 8)
			if err != nil {
				return nil, 0, err
			}
			var s byte
			for _, x := range b {
				s += x
			}
			return []byte{s}, 10 * sim.Nanosecond, nil
		})
		res, farCPU, _, err := in.Backend.Call(0, "sum8", nil)
		if err != nil {
			t.Fatalf("call: %v", err)
		}
		if len(res) != 1 || res[0] != 36 {
			t.Fatalf("proc result = %v, want [36]", res)
		}
		wantCPU := sim.Duration(float64(10*sim.Nanosecond) * in.Node.CPUSlowdown())
		if farCPU != wantCPU {
			t.Fatalf("far CPU %v not scaled by slowdown (want %v)", farCPU, wantCPU)
		}
	})

	t.Run("CodecCRCOverDecodedBytes", func(t *testing.T) {
		// With a wire codec active, the end-to-end checksum still covers
		// the DECODED payload: a bit flipped in a reply is detected and
		// retried even though the wire accounting saw compressed bytes.
		// The codec is a cost model, not a framing change — corruption
		// detection must be unaffected by it.
		run := func() (transport.Stats, sim.Time, []byte) {
			in := mk(t)
			flip := &bitFlipBackend{Backend: in.Backend}
			tr := transport.NewWithPolicy(in.Node, netmodel.DefaultConfig(), transport.DefaultPolicy())
			tr.SetBackend(flip)
			tr.SetWireCodec(codec.ByteRun)
			addr := mustAlloc(t, in.Node, 512)
			want := bytes.Repeat([]byte{0xAB}, 512) // compressible: the codec engages
			if _, err := tr.WriteOneSided(0, addr, want); err != nil {
				t.Fatalf("write: %v", err)
			}
			flip.flips = 1
			got := make([]byte, 512)
			end, err := tr.ReadOneSided(sim.Time(sim.Microsecond), addr, got)
			if err != nil {
				t.Fatalf("read did not survive a single bit flip: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("retried read delivered corrupt bytes")
			}
			return tr.Stats(), end, got
		}
		s1, end1, p1 := run()
		if s1.Corruptions == 0 {
			t.Fatalf("bit flip not detected by the decoded-bytes checksum: %+v", s1)
		}
		if s1.Retries == 0 {
			t.Fatalf("detected corruption was not retried: %+v", s1)
		}
		if s1.WireSaved == 0 || s1.CodecOps == 0 {
			t.Fatalf("wire codec never engaged (WireSaved=%d CodecOps=%d)", s1.WireSaved, s1.CodecOps)
		}
		// The corrupted-then-retried op must replay identically.
		s2, end2, p2 := run()
		if s1 != s2 || end1 != end2 || !bytes.Equal(p1, p2) {
			t.Fatalf("corrupted read replayed differently: %+v @ %v vs %+v @ %v", s1, end1, s2, end2)
		}
	})

	t.Run("GranuleSumFollowsOverwriteAndWipe", func(t *testing.T) {
		// The far side may answer a whole granule's checksum from its table
		// of sums at rest. Whatever changed the granule since — part or all
		// of it overwritten, or the memory wiped — the sum a read returns is
		// the checksum of the bytes it returned, and a second read (a table
		// hit) returns the same bytes and sum.
		in := mk(t)
		const granules = 6
		addr := mustAlloc(t, in.Node, granules*farmem.GranuleBytes+512)
		at := func(i int) uint64 { return addr + uint64(i)*farmem.GranuleBytes }
		want := make([][]byte, granules)
		for i := range want {
			want[i] = pattern(farmem.GranuleBytes, byte(17*i+1))
			if _, err := in.Backend.Write(0, at(i), want[i]); err != nil {
				t.Fatal(err)
			}
		}
		zero := make([]byte, farmem.GranuleBytes)
		readAll := func(stage string, wiped bool) {
			t.Helper()
			for i := range want {
				var first []byte
				for rep := 0; rep < 2; rep++ {
					got := make([]byte, farmem.GranuleBytes)
					sum, _, err := in.Backend.Read(0, at(i), got)
					if err != nil {
						t.Fatalf("%s: read of granule %d: %v", stage, i, err)
					}
					if sum != farmem.Checksum(got) {
						t.Fatalf("%s: granule %d read with sum %#x, its bytes hash to %#x", stage, i, sum, farmem.Checksum(got))
					}
					// A wipe zeroes DRAM; a capacity tier's flash copy of a
					// demoted granule survives it.
					if !bytes.Equal(got, want[i]) && !(wiped && bytes.Equal(got, zero)) {
						t.Fatalf("%s: granule %d read back wrong bytes", stage, i)
					}
					if rep == 1 && !bytes.Equal(got, first) {
						t.Fatalf("%s: granule %d read differently twice", stage, i)
					}
					first = got
				}
			}
		}
		readAll("written", false)
		patch := []byte{0xEE, 0xEF, 0xF0}
		if _, err := in.Backend.Write(0, at(1)+100, patch); err != nil {
			t.Fatal(err)
		}
		copy(want[1][100:], patch)
		want[2] = pattern(farmem.GranuleBytes, 0x5A)
		if _, err := in.Backend.Write(0, at(2), want[2]); err != nil {
			t.Fatal(err)
		}
		readAll("overwritten", false)
		in.Node.WipeMemory()
		readAll("wiped", true)
	})

	t.Run("BitFlipOnTableSumCaught", func(t *testing.T) {
		// A read whose far checksum comes from the table of sums at rest is
		// verified in full like any other: a bit flipped in its reply is
		// caught and retried, and the retried read replays identically.
		run := func() (transport.Stats, sim.Time, []byte) {
			in := mk(t)
			flip := &bitFlipBackend{Backend: in.Backend}
			tr := transport.NewWithPolicy(in.Node, netmodel.DefaultConfig(), transport.DefaultPolicy())
			tr.SetBackend(flip)
			addr := mustAlloc(t, in.Node, 2*farmem.GranuleBytes) + farmem.GranuleBytes
			want := pattern(farmem.GranuleBytes, 9)
			if _, err := tr.WriteOneSided(0, addr, want); err != nil {
				t.Fatalf("write: %v", err)
			}
			got := make([]byte, farmem.GranuleBytes)
			if _, err := tr.ReadOneSided(sim.Time(sim.Microsecond), addr, got); err != nil {
				t.Fatalf("first read: %v", err) // stores the granule's sum
			}
			flip.flips = 1
			end, err := tr.ReadOneSided(sim.Time(2*sim.Microsecond), addr, got)
			if err != nil {
				t.Fatalf("read did not survive a single bit flip: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("retried read delivered corrupt bytes")
			}
			return tr.Stats(), end, got
		}
		s1, end1, p1 := run()
		if s1.Corruptions == 0 || s1.Retries == 0 {
			t.Fatalf("bit flip on a table-answered read not caught and retried: %+v", s1)
		}
		s2, end2, p2 := run()
		if s1 != s2 || end1 != end2 || !bytes.Equal(p1, p2) {
			t.Fatalf("corrupted read replayed differently: %+v @ %v vs %+v @ %v", s1, end1, s2, end2)
		}
	})

	t.Run("DeterministicReplay", func(t *testing.T) {
		run := func() (sums []uint32, extras []sim.Duration, payload []byte) {
			in := mk(t)
			addr := mustAlloc(t, in.Node, 512)
			if _, err := in.Backend.Write(0, addr, pattern(512, 5)); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 512)
			for i := 0; i < 16; i++ {
				sum, extra, err := in.Backend.Read(sim.Time(i)*100, addr, buf)
				if err != nil {
					// Injected transient errors are part of the replayed
					// behavior: record them as a sentinel.
					sums = append(sums, 0xffffffff)
					extras = append(extras, -1)
					continue
				}
				sums = append(sums, sum)
				extras = append(extras, extra)
			}
			return sums, extras, append([]byte{}, buf...)
		}
		s1, e1, p1 := run()
		s2, e2, p2 := run()
		for i := range s1 {
			if s1[i] != s2[i] || e1[i] != e2[i] {
				t.Fatalf("replay diverged at op %d: (%#x,%v) vs (%#x,%v)", i, s1[i], e1[i], s2[i], e2[i])
			}
		}
		if !bytes.Equal(p1, p2) {
			t.Fatalf("replay delivered different final payloads")
		}
	})
}

// bitFlipBackend delegates to the wrapped backend and flips one bit in the
// next `flips` successful Read replies — after the backend computed its
// checksum, so the mismatch models on-the-wire corruption.
type bitFlipBackend struct {
	transport.Backend
	flips int
}

func (b *bitFlipBackend) Read(at sim.Time, addr uint64, buf []byte) (uint32, sim.Duration, error) {
	sum, extra, err := b.Backend.Read(at, addr, buf)
	if err == nil && b.flips > 0 {
		b.flips--
		buf[len(buf)/2] ^= 0x40
	}
	return sum, extra, err
}

func mustAlloc(t *testing.T, n *farmem.Node, size uint64) uint64 {
	t.Helper()
	addr, err := n.Alloc(size)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	return addr
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)*3
	}
	return b
}
