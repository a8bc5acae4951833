package rt

import (
	"bytes"
	"testing"

	"mira/internal/cache"
	"mira/internal/cluster"
	"mira/internal/farmem"
	"mira/internal/faults"
	"mira/internal/sim"
	"mira/internal/transport"
)

// wbqRuntime builds a runtime whose items section has a small direct-mapped
// cache (8 lines of 128 B) so evictions are easy to force, with the
// write-back queue bounded at limit lines.
func wbqRuntime(t *testing.T, limit int) (*Runtime, *sim.Clock) {
	t.Helper()
	r, clk := mkRuntime(t, func(c *Config) {
		c.Sections[0].Cache = cache.Config{Name: "items", Structure: cache.Direct, LineBytes: 128, SizeBytes: 1 << 10}
		c.WritebackQueueLines = limit
	})
	return r, clk
}

func TestWbqCoalescesAdjacentLinesIntoOnePiece(t *testing.T) {
	r, clk := wbqRuntime(t, 16)
	// Dirty four adjacent lines (elems 0,2,4,6 → tags 0,128,256,384) and
	// park them all via eviction hints.
	for _, e := range []int64{0, 2, 4, 6} {
		if err := r.Access(clk, "items", e, fld(0, 8), []byte{byte(e), 1, 2, 3, 4, 5, 6, 7}, true, AccessOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := r.EvictHint(clk, "items", e); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.WritebackQueueStats().Enqueued; got != 4 {
		t.Fatalf("enqueued = %d, want 4", got)
	}
	r.Fence(clk) // fence drains every queue
	st := r.WritebackQueueStats()
	if st.Drains != 1 || st.Lines != 4 || st.Pieces != 1 {
		t.Fatalf("drain stats = %+v, want 1 drain, 4 lines, 1 coalesced piece", st)
	}
	// Far memory must now hold every line.
	dump, err := r.DumpObject("items")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []int64{0, 2, 4, 6} {
		want := []byte{byte(e), 1, 2, 3, 4, 5, 6, 7}
		if !bytes.Equal(dump[e*64:e*64+8], want) {
			t.Fatalf("elem %d not drained: %x", e, dump[e*64:e*64+8])
		}
	}
}

func TestWbqBoundTriggersDrain(t *testing.T) {
	r, clk := wbqRuntime(t, 2)
	for _, e := range []int64{0, 4} { // tags 0 and 256: distinct lines
		if err := r.Access(clk, "items", e, fld(0, 8), []byte{1}, true, AccessOpts{}); err != nil {
			t.Fatal(err)
		}
		if err := r.EvictHint(clk, "items", e); err != nil {
			t.Fatal(err)
		}
	}
	st := r.WritebackQueueStats()
	if st.Drains != 1 {
		t.Fatalf("hitting the bound did not drain: %+v", st)
	}
	if st.Lines != 2 {
		t.Fatalf("drained %d lines, want 2", st.Lines)
	}
}

func TestWbqLatestWriteWins(t *testing.T) {
	r, clk := wbqRuntime(t, 16)
	if err := r.Access(clk, "items", 3, fld(0, 8), []byte{1, 1, 1, 1, 1, 1, 1, 1}, true, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.EvictHint(clk, "items", 3); err != nil {
		t.Fatal(err)
	}
	// Re-touch the queued line (recovered locally), overwrite, park again:
	// the queue must keep only the newest copy.
	w2 := []byte{2, 2, 2, 2, 2, 2, 2, 2}
	if err := r.Access(clk, "items", 3, fld(0, 8), w2, true, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.EvictHint(clk, "items", 3); err != nil {
		t.Fatal(err)
	}
	if err := r.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	dump, err := r.DumpObject("items")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump[3*64:3*64+8], w2) {
		t.Fatalf("far memory holds %x, want latest write %x", dump[3*64:3*64+8], w2)
	}
}

func TestWbqFlushAllDrainsQueues(t *testing.T) {
	r, clk := wbqRuntime(t, 16)
	w := []byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0x11, 0x22}
	if err := r.Access(clk, "items", 5, fld(0, 8), w, true, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.EvictHint(clk, "items", 5); err != nil {
		t.Fatal(err)
	}
	if err := r.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	// DumpObject bypasses the cache: FlushAll returning means the queued
	// line already reached far memory.
	dump, err := r.DumpObject("items")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump[5*64:5*64+8], w) {
		t.Fatal("FlushAll returned before the write-back queue drained")
	}
}

func TestWbqDisabledWritesBackOnEviction(t *testing.T) {
	r, clk := wbqRuntime(t, -1)
	w := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := r.Access(clk, "items", 3, fld(0, 8), w, true, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.EvictHint(clk, "items", 3); err != nil {
		t.Fatal(err)
	}
	r.Fence(clk)
	if st := r.WritebackQueueStats(); st.Enqueued != 0 {
		t.Fatalf("disabled queue still used: %+v", st)
	}
	dump, err := r.DumpObject("items")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump[3*64:3*64+8], w) {
		t.Fatal("immediate write-back path lost the data")
	}
}

// TestWbqDegradedDrainReExpandsPatches pins the delta write-back safety
// rule: an entry planned as a patch while the link was healthy must ship as
// the FULL line when the drain lands with the breaker open. The degraded
// write parks in the transport's overlay against a far node whose memory
// the crash wipes — a patch would merge over base bytes that no longer
// exist. The queue carries the full line for exactly this re-expansion.
func TestWbqDegradedDrainReExpandsPatches(t *testing.T) {
	crash := sim.Time(200 * sim.Microsecond)
	restart := sim.Time(400 * sim.Microsecond)
	pol := transport.Policy{
		MaxAttempts:      2,
		BaseBackoff:      1 * sim.Microsecond,
		MaxBackoff:       8 * sim.Microsecond,
		DeadlineBase:     10 * sim.Microsecond,
		DeadlineMult:     2,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * sim.Microsecond,
		JitterSeed:       7,
	}
	r, clk := mkRuntime(t, func(c *Config) {
		c.Sections[0].Cache = cache.Config{Name: "items", Structure: cache.Direct, LineBytes: 128, SizeBytes: 1 << 10}
		c.Sections[0].Compress = true
		c.WritebackQueueLines = 16
		c.Cluster = &cluster.Options{
			Nodes:   1,
			NodeCfg: farmem.NodeConfig{Capacity: 1 << 26, CPUSlowdown: 1},
			Policy:  &pol,
			Faults: []*faults.Config{{Seed: 7, Schedule: []faults.Event{
				{At: crash, Kind: faults.Crash, LoseMemory: true},
				{At: restart, Kind: faults.Restart},
			}}},
		}
	})
	data := make([]byte, 128*64)
	for i := range data {
		data[i] = byte(i%251) + 1
	}
	if err := r.InitObject("items", data); err != nil {
		t.Fatal(err)
	}

	// Healthy phase: fetch the elems-2/3 line (the compressed section
	// snapshots it), dirty two well-separated fields, and park the victim.
	g := make([]byte, 8)
	if err := r.Access(clk, "items", 2, fld(0, 8), g, false, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	w1 := []byte{0xE0, 0xE1, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7}
	w2 := []byte{0xD0, 0xD1, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7}
	if err := r.Access(clk, "items", 2, fld(0, 8), w1, true, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Access(clk, "items", 3, fld(0, 8), w2, true, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := r.EvictHint(clk, "items", 2); err != nil {
		t.Fatal(err)
	}
	// Elem 18 is tag 1152 → the same direct slot as tag 128: evicts it.
	if err := r.Access(clk, "items", 18, fld(0, 8), g, false, AccessOpts{}); err != nil {
		t.Fatal(err)
	}
	if st := r.WritebackQueueStats(); st.DeltaLines != 1 {
		t.Fatalf("eviction did not plan a delta patch: %+v", st)
	}
	qb0 := r.NetStats().QueuedWritebacks

	// Trip the breaker inside the crash window with failing demand reads.
	clk.AdvanceTo(crash.Add(sim.Microsecond))
	for i := int64(0); !r.tr.BreakerOpen(clk.Now()) && i < 16; i++ {
		_ = r.Access(clk, "items", 32+2*i, fld(0, 8), g, false, AccessOpts{})
	}
	if !r.tr.BreakerOpen(clk.Now()) {
		t.Fatal("breaker never opened inside the crash window")
	}

	// Degraded drain: the patch entry must re-expand to one full line.
	if _, err := r.drainWbq(clk, r.secs[0]); err != nil {
		t.Fatal(err)
	}
	if got := r.NetStats().QueuedWritebacks - qb0; got != 1 {
		t.Fatalf("degraded drain queued %d overlay pieces, want 1 full line (a patch would queue 2)", got)
	}

	// Heal, flush the overlay into the wiped node, and check the line. The
	// wipe leaves the node stale — with no replica to restore the rest of
	// its memory from, the pool refuses to read it — so read the line off
	// the node at its home address.
	clk.AdvanceTo(restart.Add(5 * sim.Microsecond))
	if err := r.FlushAll(clk); err != nil {
		t.Fatal(err)
	}
	far, err := r.FarAddr("items", 0)
	if err != nil {
		t.Fatal(err)
	}
	var home uint64
	for _, e := range r.Pool().Table() {
		if far >= e.VBase && far < e.VBase+e.Size {
			home = e.Homes[0].Base + (far - e.VBase)
		}
	}
	got := make([]byte, 128)
	if err := r.Pool().FarNode(0).Read(home+128, got); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data[128:256]...)
	copy(want[0:], w1)
	copy(want[64:], w2)
	if !bytes.Equal(got, want) {
		t.Fatalf("far line after wipe+flush wrong at %d: a patch merged over wiped base bytes",
			firstMismatch(got, want))
	}
}

func firstMismatch(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
