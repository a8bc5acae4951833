package rt

import (
	"bytes"
	"errors"
	"testing"

	"mira/internal/cache"
	"mira/internal/sim"
	"mira/internal/transport"
)

// A drain coalesces adjacent queued lines by copying the run into the
// runtime's scratch. It must never grow a queue entry's own slice: that slice
// is a recycled line buffer, and when it has spare capacity — here all three
// entries are windows of one array, laid out so that appending onto the first
// would overwrite the third before it is read — the append lands in somebody
// else's memory.
func TestWbqDrainLeavesQueuedSlicesAlone(t *testing.T) {
	r, clk := wbqRuntime(t, 16)
	s, o := r.secs[0], r.objs["items"]
	backing := make([]byte, 3*128)
	for i := range backing {
		backing[i] = byte(1 + i/128) // 1…, 2…, 3…
	}
	want := append([]byte(nil), backing...)
	// Tag order base, +128, +256; memory order first, third, second.
	for i, win := range []int{0, 2, 1} {
		data := backing[win*128 : (win+1)*128]
		if cap(data) == len(data) && win != 2 {
			t.Fatal("setup: window has no spare capacity")
		}
		s.wbq.add(s.sec, o.farBase+uint64(i)*128, data, o, deltaPatch{})
	}
	if _, err := r.drainWbq(clk, s); err != nil {
		t.Fatal(err)
	}
	if st := r.WritebackQueueStats(); st.Lines != 3 || st.Pieces != 1 {
		t.Fatalf("drain stats %+v, want 3 lines in 1 piece", st)
	}
	if !bytes.Equal(backing, want) {
		t.Fatal("the drain wrote into the queued lines' memory")
	}
	dump, err := r.DumpObject("items")
	if err != nil {
		t.Fatal(err)
	}
	far := append(append(bytes.Repeat([]byte{1}, 128), bytes.Repeat([]byte{3}, 128)...), bytes.Repeat([]byte{2}, 128)...)
	if !bytes.Equal(dump[:3*128], far) {
		t.Fatalf("far bytes wrong after the drain (first mismatch at %d)", firstMismatch(dump[:3*128], far))
	}
}

// failingLink fails the transport operations the test arms.
type failingLink struct {
	transport.Link
	failReads, failGathers bool
}

var errInjected = errors.New("injected failure")

func (l *failingLink) ReadOneSided(now sim.Time, addr uint64, buf []byte) (sim.Time, error) {
	if l.failReads {
		return now, errInjected
	}
	return l.Link.ReadOneSided(now, addr, buf)
}

func (l *failingLink) GatherOneSided(now sim.Time, addrs []uint64, sizes []int) ([]byte, sim.Time, error) {
	if l.failGathers {
		return nil, now, errInjected
	}
	return l.Link.GatherOneSided(now, addrs, sizes)
}

// A claimed slot whose bytes never arrive is given back (unclaim), and its
// buffer with it: however many fetches and gathers fail, the section hands
// out no more distinct buffers than it has lines, plus the ones the queue and
// Reserve's look-ahead hold.
func TestFailedFetchGivesSlotAndBufferBack(t *testing.T) {
	const lines, limit = 8, 4
	r, clk := wbqRuntime(t, limit)
	link := &failingLink{Link: r.tr}
	r.tr = link
	s := r.secs[0]
	seen := map[*byte]bool{}
	resident := func() (n int) {
		s.sec.ForEachResident(func(l *cache.Line) {
			seen[&l.Data[0]] = true
			n++
		})
		return n
	}
	write := func(elem int64) error {
		return r.Access(clk, "items", elem, fld(0, 8), []byte{byte(elem), 1, 2, 3, 4, 5, 6, 7}, true, AccessOpts{})
	}
	for round := int64(0); round < 60; round++ {
		e := (round * 2) % 128 // one 128 B line per two 64 B elements
		link.failReads = true
		before := resident()
		if err := write(e); !errors.Is(err, errInjected) {
			t.Fatalf("round %d: miss with a failing read returned %v", round, err)
		}
		if _, ok := s.sec.Peek(r.objs["items"].farBase + uint64(e)*64); ok {
			t.Fatalf("round %d: the line stayed resident without its bytes", round)
		}
		if after := resident(); after > before {
			t.Fatalf("round %d: %d lines resident after a failed miss, %d before", round, after, before)
		}
		link.failReads = false
		if err := write(e); err != nil {
			t.Fatal(err)
		}
		link.failGathers = true
		var pf []BatchEntry
		for _, d := range []int64{20, 22, 24} {
			pf = append(pf, BatchEntry{Obj: "items", Elem: (e + d) % 128, Field: fld(0, 8)})
		}
		before = resident()
		_ = r.PrefetchBatch(clk, pf) // advisory or not, the slots must come back
		if after := resident(); after > before {
			t.Fatalf("round %d: %d lines resident after a failed gather, %d before", round, after, before)
		}
		link.failGathers = false
	}
	if err := r.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	if len(seen) > lines+limit+1 {
		t.Fatalf("%d distinct line buffers for %d lines and a queue of %d", len(seen), lines, limit)
	}
	dump, err := r.DumpObject("items")
	if err != nil {
		t.Fatal(err)
	}
	for round := int64(0); round < 60; round++ {
		e := (round * 2) % 128
		if want := []byte{byte(e), 1, 2, 3, 4, 5, 6, 7}; !bytes.Equal(dump[e*64:e*64+8], want) {
			t.Fatalf("elem %d lost: %x", e, dump[e*64:e*64+8])
		}
	}
}
