package farmem

import (
	"bytes"
	"fmt"
	"testing"

	"mira/internal/sim"
)

// atRestSizes are the allocation sizes an op stream draws from: few, so a
// released region comes back to a later allocation of its size with its
// table, and most of them not a multiple of a granule.
var atRestSizes = []uint64{GranuleBytes, 2 * GranuleBytes, 3*GranuleBytes + 8, GranuleBytes + 512, 200, 5*GranuleBytes - 8}

// atRestRig drives one node with a decoded op stream and keeps what every
// live allocation must hold.
type atRestRig struct {
	t      *testing.T
	n      *Node
	ops    []byte
	step   int
	live   []uint64          // allocation addresses, in allocation order
	shadow map[uint64][]byte // address -> the bytes it must hold
}

// next consumes one byte of the stream (zero once it is exhausted).
func (r *atRestRig) next() int {
	if len(r.ops) == 0 {
		return 0
	}
	b := r.ops[0]
	r.ops = r.ops[1:]
	return int(b)
}

func (r *atRestRig) next16() int { return r.next()<<8 | r.next() }

// pick chooses a live allocation, or reports there is none.
func (r *atRestRig) pick() (addr uint64, shadow []byte, ok bool) {
	if len(r.live) == 0 {
		return 0, nil, false
	}
	addr = r.live[r.next()%len(r.live)]
	return addr, r.shadow[addr], true
}

// span chooses a non-empty range [off, off+n) of a size-byte allocation,
// often inside one granule and sometimes across several.
func (r *atRestRig) span(size int) (off, n int) {
	off = r.next16() % size
	return off, 1 + r.next16()%min(size-off, 3*GranuleBytes)
}

// payload is n bytes of a pattern the stream chooses.
func (r *atRestRig) payload(n int) []byte {
	v := byte(r.next())
	b := make([]byte, n)
	for i := range b {
		b[i] = v + byte(i)*7
	}
	return b
}

// check asserts a read returned what the allocation holds, and that the
// checksum it returned is the CRC32C of exactly those bytes.
func (r *atRestRig) check(what string, addr uint64, sum uint32, got, want []byte) {
	r.t.Helper()
	if !bytes.Equal(got, want) {
		r.t.Fatalf("step %d: %s at %#x+%d returned the wrong bytes", r.step, what, addr, len(got))
	}
	if fresh := Checksum(got); sum != fresh {
		r.t.Fatalf("step %d: %s at %#x+%d answered sum %#x, its bytes hash to %#x", r.step, what, addr, len(got), sum, fresh)
	}
}

func (r *atRestRig) must(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatalf("step %d: %v", r.step, err)
	}
}

// runAtRestOps decodes ops into Alloc, Free, Release, Write, Scatter,
// CopyIn, WipeMemory, a write through a Slice window, View, and whole-granule
// and partial ReadSums, and checks every read against the allocation's
// bytes and a fresh checksum of what it returned.
func runAtRestOps(t *testing.T, ops []byte) {
	r := &atRestRig{t: t, n: newTestNode(), ops: ops, shadow: map[uint64][]byte{}}
	defer r.n.Release()
	for ; len(r.ops) > 0; r.step++ {
		switch op := r.next() % 11; op {
		case 0: // Alloc
			if len(r.live) >= 6 {
				continue
			}
			size := atRestSizes[r.next()%len(atRestSizes)]
			addr, err := r.n.Alloc(size)
			r.must(err)
			r.live = append(r.live, addr)
			r.shadow[addr] = make([]byte, size)
		case 1: // Free
			addr, _, ok := r.pick()
			if !ok {
				continue
			}
			r.must(r.n.Free(addr))
			delete(r.shadow, addr)
			for i, a := range r.live {
				if a == addr {
					r.live = append(r.live[:i], r.live[i+1:]...)
					break
				}
			}
		case 2: // Release
			r.n.Release()
			r.live = r.live[:0]
			clear(r.shadow)
		case 3, 4, 5, 6: // Write, Scatter, CopyIn, a write through a Slice window
			addr, sh, ok := r.pick()
			if !ok {
				continue
			}
			off, n := r.span(len(sh))
			p := r.payload(n)
			switch op {
			case 3:
				r.must(r.n.Write(addr+uint64(off), p))
			case 4:
				r.must(r.n.Scatter([]uint64{addr + uint64(off)}, [][]byte{p}))
			case 5:
				r.must(r.n.CopyIn(addr+uint64(off), p))
			case 6:
				w, err := r.n.Mem().Slice(addr+uint64(off), n)
				r.must(err)
				copy(w, p)
			}
			copy(sh[off:], p)
		case 7: // WipeMemory
			r.n.WipeMemory()
			for _, sh := range r.shadow {
				clear(sh)
			}
		case 8: // View
			addr, sh, ok := r.pick()
			if !ok {
				continue
			}
			off, n := r.span(len(sh))
			v, err := r.n.View(addr+uint64(off), n)
			r.must(err)
			r.check("View", addr+uint64(off), Checksum(v), v, sh[off:off+n])
		case 9: // whole-granule read
			addr, sh, ok := r.pick()
			if !ok {
				continue
			}
			off := r.next() % ((len(sh) + GranuleBytes - 1) / GranuleBytes) * GranuleBytes
			n := min(GranuleBytes, len(sh)-off)
			buf := make([]byte, n)
			sum, err := r.n.ReadSum(addr+uint64(off), buf)
			r.must(err)
			r.check("whole-granule ReadSum", addr+uint64(off), sum, buf, sh[off:off+n])
		case 10: // partial read
			addr, sh, ok := r.pick()
			if !ok {
				continue
			}
			off, n := r.span(len(sh))
			buf := make([]byte, n)
			sum, err := r.n.ReadSum(addr+uint64(off), buf)
			r.must(err)
			r.check("ReadSum", addr+uint64(off), sum, buf, sh[off:off+n])
		}
	}
}

// Every checksum the node answers — from its table or hashed afresh — is the
// CRC32C of the bytes it returned, over 300 seeded op streams that allocate,
// free and release regions, write them every way far memory is written, wipe
// them and read them whole-granule and partially.
func TestAtRestSumsMatchRecompute(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := sim.NewRNG(sim.SplitSeed(seed, "farmem.atrest"))
		ops := make([]byte, 1500)
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runAtRestOps(t, ops) })
	}
}

// FuzzAtRestSums is TestAtRestSumsMatchRecompute over arbitrary op streams.
func FuzzAtRestSums(f *testing.F) {
	f.Add([]byte{0, 0, 9, 0, 0, 3, 0, 0, 0, 0, 0, 0, 9, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1<<12 {
			t.Skip()
		}
		runAtRestOps(t, ops)
	})
}
