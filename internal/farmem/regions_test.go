package farmem

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

func fill(t *testing.T, n *Node, addr uint64, size int, b byte) {
	t.Helper()
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = b
	}
	if err := n.Write(addr, buf); err != nil {
		t.Fatal(err)
	}
}

func mustAlloc(t *testing.T, n *Node, size uint64) uint64 {
	t.Helper()
	addr, err := n.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// backing is the buffer behind the allocation at addr.
func backing(t *testing.T, n *Node, addr uint64, size int) []byte {
	t.Helper()
	b, err := n.Mem().Slice(addr, size)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A region that was dirtied, released and handed to the next allocation of
// its size reads all-zero, like a fresh one; an allocation of any other size
// never receives it.
func TestRecycledRegionIsZeroedAndSizeKeyed(t *testing.T) {
	const size = 3<<12 + 8 // unlikely to collide with another test's regions
	a := newTestNode()
	addr := mustAlloc(t, a, size)
	fill(t, a, addr, size, 0xFF)
	old := backing(t, a, addr, size)
	a.Release()

	b := newTestNode()
	other := mustAlloc(t, b, size+8)
	if got := backing(t, b, other, size+8); &got[0] == &old[0] {
		t.Fatal("an allocation of another size received the released region")
	}
	again := mustAlloc(t, b, size)
	got := backing(t, b, again, size)
	if &got[0] != &old[0] {
		t.Fatal("the released region was not recycled for an allocation of its size")
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("recycled region byte %d = %#x, want 0", i, v)
		}
	}
	// Taken once: a third allocation of the size is not the same memory.
	third := mustAlloc(t, b, size)
	if got3 := backing(t, b, third, size); &got3[0] == &old[0] {
		t.Fatal("one released region backs two live allocations")
	}
}

// A region released with a full checksum table comes back with that table —
// recycled, not made again — and answers every read as a fresh region does:
// zero bytes, and the checksum of zero bytes, whole granules and partial
// ranges alike.
func TestRecycledRegionTableIsIndistinguishable(t *testing.T) {
	const size = 3*GranuleBytes + 24 // a short last granule; no other test's size
	a := newTestNode()
	addr := mustAlloc(t, a, size)
	fill(t, a, addr, size, 0xA5)
	buf := make([]byte, GranuleBytes)
	granule := func(off int) []byte { return buf[:min(GranuleBytes, size-off)] }
	for off := 0; off < size; off += GranuleBytes {
		if _, err := a.ReadSum(addr+uint64(off), granule(off)); err != nil {
			t.Fatal(err)
		}
	}
	table := a.mem.regions[0].sums
	a.Release()

	b := newTestNode()
	again := mustAlloc(t, b, size)
	if got := b.mem.regions[0].sums; len(got) == 0 || &got[0] != &table[0] {
		t.Fatal("the checksum table was not recycled with its region")
	}
	zero := make([]byte, GranuleBytes)
	for off := 0; off < size; off += GranuleBytes {
		g := granule(off)
		sum, err := b.ReadSum(again+uint64(off), g)
		if err != nil {
			t.Fatal(err)
		}
		if want := Checksum(zero[:len(g)]); sum != want || !bytes.Equal(g, zero[:len(g)]) {
			t.Fatalf("granule at +%d: sum %#x, want %#x of %d zero bytes", off, sum, want, len(g))
		}
	}
	sum, err := b.ReadSum(again+8, buf[:100])
	if err != nil || sum != Checksum(zero[:100]) {
		t.Fatalf("partial read of a recycled region: sum %#x, %v", sum, err)
	}
}

// Release leaves an empty node: every old address answers ErrUnmapped,
// nothing counts as allocated, and the node can be allocated from again.
func TestReleasedNodeAnswersUnmapped(t *testing.T) {
	n := newTestNode()
	addr := mustAlloc(t, n, 4096)
	fill(t, n, addr, 4096, 1)
	n.Release()
	buf := make([]byte, 8)
	if err := n.Read(addr, buf); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("Read after Release: %v, want ErrUnmapped", err)
	}
	if err := n.Write(addr, buf); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("Write after Release: %v, want ErrUnmapped", err)
	}
	if _, err := n.Gather([]uint64{addr}, []int{8}); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("Gather after Release: %v, want ErrUnmapped", err)
	}
	if got := n.AllocatedBytes(); got != 0 {
		t.Fatalf("AllocatedBytes after Release = %d", got)
	}
	n.Release() // nothing left to hand back
	if again := mustAlloc(t, n, 4096); again != addr {
		t.Fatalf("first allocation of an emptied node at %#x, want %#x", again, addr)
	}
}

// The free list never holds more than its bound, whatever is released into
// it, and what it holds is what it counts.
func TestRegionListStaysUnderItsBound(t *testing.T) {
	l := regionList{max: 1 << 16, bySize: map[int][]memRegion{}}
	check := func() {
		t.Helper()
		sum := 0
		for size, rs := range l.bySize {
			for _, r := range rs {
				if len(r.data) != size {
					t.Fatalf("a %d-byte buffer filed under %d", len(r.data), size)
				}
				sum += len(r.data)
			}
		}
		if sum != l.held || l.held > l.max {
			t.Fatalf("holds %d bytes, counts %d, bound %d", sum, l.held, l.max)
		}
	}
	sizes := []int{4096, 8192, 100, 1 << 15, 1 << 16, 1<<16 + 8, 24}
	for i := 0; i < 200; i++ {
		l.put(memRegion{data: make([]byte, sizes[i%len(sizes)])})
		check()
		if i%3 == 0 {
			if got := l.take(sizes[(i/3)%len(sizes)]); len(got.data) != sizes[(i/3)%len(sizes)] {
				t.Fatalf("take(%d) returned %d bytes", sizes[(i/3)%len(sizes)], len(got.data))
			}
			check()
		}
	}
	if l.held == 0 {
		t.Fatal("nothing was kept at all")
	}
	if got := len(l.bySize[1<<16+8]); got != 0 {
		t.Fatalf("kept %d buffers larger than the bound", got)
	}
}

// Nodes come and go on several goroutines at once (tests of one package run
// in parallel; a serving process opens tenants as they arrive): every node
// must see its own bytes only, and zeroes where it has not written. Run with
// -race.
func TestConcurrentAllocReleaseRace(t *testing.T) {
	const workers, rounds, size = 8, 60, 2 << 12
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, size)
			for r := 0; r < rounds; r++ {
				n := newTestNode()
				a, err := n.Alloc(size)
				if err != nil {
					t.Error(err)
					return
				}
				b, err := n.Alloc(size / 2)
				if err != nil {
					t.Error(err)
					return
				}
				if err := n.Read(a, buf); err != nil {
					t.Error(err)
					return
				}
				for i, v := range buf {
					if v != 0 {
						t.Errorf("worker %d round %d: fresh region byte %d = %#x", g, r, i, v)
						return
					}
				}
				for i := range buf {
					buf[i] = byte(g + 1)
				}
				if err := n.Write(a, buf); err != nil {
					t.Error(err)
					return
				}
				if err := n.Write(b, buf[:size/2]); err != nil {
					t.Error(err)
					return
				}
				got, err := n.Gather([]uint64{a, b}, []int{64, 64})
				if err != nil {
					t.Error(err)
					return
				}
				for _, v := range got {
					if v != byte(g+1) {
						t.Errorf("worker %d round %d: read back %#x", g, r, v)
						return
					}
				}
				n.Release()
			}
		}(g)
	}
	wg.Wait()
}

// A released node hands its Gather reply on: the next node's first gather
// that fits it assembles its own bytes there instead of growing a reply.
func TestReleasedNodeHandsOnItsReply(t *testing.T) {
	replyCache.mu.Lock()
	replyCache.spare = nil
	replyCache.mu.Unlock()
	a := newTestNode()
	base := mustAlloc(t, a, 1<<14)
	fill(t, a, base, 1<<14, 7)
	ra, err := a.Gather([]uint64{base, base + 8192}, []int{4096, 4096})
	if err != nil {
		t.Fatal(err)
	}
	a.Release()
	b := newTestNode()
	base = mustAlloc(t, b, 1<<14)
	fill(t, b, base, 1<<14, 9)
	rb, err := b.Gather([]uint64{base + 100}, []int{5000})
	if err != nil {
		t.Fatal(err)
	}
	if &rb[0] != &ra[0] {
		t.Error("the second node grew a reply of its own")
	}
	if len(rb) != 5000 || bytes.Count(rb, []byte{9}) != 5000 {
		t.Errorf("the handed-on reply holds %d bytes, %d of them the node's", len(rb), bytes.Count(rb, []byte{9}))
	}
}

// replyList hands on the smallest spare that fits, keeps at most its bound
// (the oldest goes first), and makes a buffer when none fits.
func TestReplyListTakesTheSmallestFit(t *testing.T) {
	l := replyList{max: 2}
	l.put(make([]byte, 10))
	l.put(make([]byte, 30))
	l.put(make([]byte, 20)) // the 10-byte spare goes
	for _, c := range []struct{ n, cap int }{{15, 20}, {25, 30}, {5, 5}} {
		if got := l.take(c.n); len(got) < c.n || cap(got) != c.cap {
			t.Errorf("take(%d): len %d cap %d, want cap %d", c.n, len(got), cap(got), c.cap)
		}
	}
}
