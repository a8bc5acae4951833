package rt

import (
	"bytes"
	"fmt"
	"testing"

	"mira/internal/cache"
	"mira/internal/sim"
)

// The line-lifecycle table: every way a line can come into a section (rows)
// against every state it can find the line in (columns). One target line —
// items[2..3], 128 B at direct-mapped slot 1 of wbqRuntime's 8-line section —
// is put into a state, entered, then read back whole and flushed; every cell
// checks the bytes (through the cache and in far memory), the write-back
// queue's read-your-writes hits, that no queue entry survives the entry,
// that the clock never ends before the bytes have landed, and the prefetch
// accounting.

const (
	lineElem     = 2  // first element of the target line (elems 2,3 share it)
	conflictElem = 18 // tag 1152: the target line's direct-mapped slot
	triggerElem  = 40 // tag 2560, slot 4: the miss the section policy rides on
)

// proposeUnit is a section policy that proposes one fixed line unit.
type proposeUnit int64

func (proposeUnit) Name() string                          { return "propose" }
func (p proposeUnit) OnMiss(_ int64, out []int64) []int64 { return append(out, int64(p)) }
func (proposeUnit) PerMissOverhead() sim.Duration         { return 0 }

func fullLine(b byte) []byte { return bytes.Repeat([]byte{b}, 128) }

func mustNot(t *testing.T, what string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// lineSetup leaves the target line in one state and returns the line's
// newest image.
type lineSetup struct {
	name string
	// parked: the newest bytes sit in the write-back queue, so entering the
	// line is one read-your-writes hit and needs no network.
	parked bool
	// far: only far memory has the bytes.
	far bool
	// useless is how many prefetches the setup itself wastes.
	useless int64
	do      func(t *testing.T, r *Runtime, clk *sim.Clock, base []byte) []byte
}

var newest = []byte{9, 8, 7, 6, 5, 4, 3, 2}

func lineSetups() []lineSetup {
	dirtied := func(base []byte) []byte {
		img := append([]byte(nil), base...)
		copy(img, newest)
		return img
	}
	return []lineSetup{
		{"absent", false, true, 0, func(t *testing.T, r *Runtime, clk *sim.Clock, base []byte) []byte {
			return base
		}},
		{"resident", false, false, 0, func(t *testing.T, r *Runtime, clk *sim.Clock, base []byte) []byte {
			mustNot(t, "write", r.Access(clk, "items", lineElem, fld(0, 8), newest, true, AccessOpts{}))
			return dirtied(base)
		}},
		{"in flight", false, false, 0, func(t *testing.T, r *Runtime, clk *sim.Clock, base []byte) []byte {
			mustNot(t, "prefetch", r.Prefetch(clk, "items", lineElem, fld(0, 8)))
			return base
		}},
		{"parked", true, false, 0, func(t *testing.T, r *Runtime, clk *sim.Clock, base []byte) []byte {
			// Dirty the line, hint it evictable, and evict it with a
			// conflicting access: its only newest copy sits in the queue.
			mustNot(t, "write", r.Access(clk, "items", lineElem, fld(0, 8), newest, true, AccessOpts{}))
			mustNot(t, "hint", r.EvictHint(clk, "items", lineElem))
			mustNot(t, "conflict", r.Access(clk, "items", conflictElem, fld(0, 8), make([]byte, 8), false, AccessOpts{}))
			if got := r.WritebackQueueStats().Enqueued; got == 0 {
				t.Fatal("dirty victim did not enter the write-back queue")
			}
			return dirtied(base)
		}},
		{"evicted in flight", false, true, 1, func(t *testing.T, r *Runtime, clk *sim.Clock, base []byte) []byte {
			// The prefetched placeholder is evicted before any use: its
			// stale marks must not suppress a later prefetch of the line.
			mustNot(t, "prefetch", r.Prefetch(clk, "items", lineElem, fld(0, 8)))
			mustNot(t, "conflict", r.Access(clk, "items", conflictElem, fld(0, 8), make([]byte, 8), false, AccessOpts{}))
			return base
		}},
	}
}

// lineEntry is one way in. do enters the target line and returns the image
// the line must hold afterwards, given the image img it held before.
type lineEntry struct {
	name string
	// demand entries hand bytes to (or take bytes from) the caller, so the
	// clock must have passed the line's landing instant when they return;
	// advisory ones only start a fetch.
	demand bool
	// needsFar entries cannot complete on an absent line without far bytes.
	needsFar bool
	// ridesMiss entries are triggered by a demand miss of another line,
	// which goes to the network on its own account.
	ridesMiss bool
	do        func(t *testing.T, r *Runtime, clk *sim.Clock, img []byte) []byte
}

func lineEntries() []lineEntry {
	patch := func(img []byte, off int, p []byte) []byte {
		out := append([]byte(nil), img...)
		copy(out[off:], p)
		return out
	}
	return []lineEntry{
		{"demand read", true, true, false, func(t *testing.T, r *Runtime, clk *sim.Clock, img []byte) []byte {
			got := make([]byte, 8)
			mustNot(t, "read", r.Access(clk, "items", lineElem, fld(0, 8), got, false, AccessOpts{}))
			if !bytes.Equal(got, img[:8]) {
				t.Fatalf("demand read got %x, want %x", got, img[:8])
			}
			return img
		}},
		{"demand partial write", true, true, false, func(t *testing.T, r *Runtime, clk *sim.Clock, img []byte) []byte {
			p := []byte{0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8}
			mustNot(t, "write", r.Access(clk, "items", lineElem+1, fld(0, 8), p, true, AccessOpts{}))
			return patch(img, 64, p)
		}},
		{"full-line write", true, false, false, func(t *testing.T, r *Runtime, clk *sim.Clock, img []byte) []byte {
			mustNot(t, "write", r.Access(clk, "items", lineElem, fld(0, 128), fullLine(0xF1), true, AccessOpts{}))
			return fullLine(0xF1)
		}},
		{"NoFetch write", true, false, false, func(t *testing.T, r *Runtime, clk *sim.Clock, img []byte) []byte {
			// The compiler's promise: the loop overwrites the whole line.
			want := append(fullLine(0xB0)[:64:64], fullLine(0xB1)[:64]...)
			for i := int64(0); i < 2; i++ {
				mustNot(t, "write", r.Access(clk, "items", lineElem+i, fld(0, 64), want[i*64:i*64+64], true, AccessOpts{NoFetch: true}))
			}
			return want
		}},
		{"Prefetch", false, false, false, func(t *testing.T, r *Runtime, clk *sim.Clock, img []byte) []byte {
			mustNot(t, "prefetch", r.Prefetch(clk, "items", lineElem, fld(0, 8)))
			return img
		}},
		{"PrefetchBatch", false, false, false, func(t *testing.T, r *Runtime, clk *sim.Clock, img []byte) []byte {
			mustNot(t, "batch", r.PrefetchBatch(clk, []BatchEntry{{Obj: "items", Elem: lineElem, Field: fld(0, 8)}}))
			return img
		}},
		{"section policy", false, false, true, func(t *testing.T, r *Runtime, clk *sim.Clock, img []byte) []byte {
			o, s := r.objs["items"], r.secs[0]
			unit := (o.farBase + lineElem*64) / uint64(s.spec.Cache.LineBytes)
			mustNot(t, "install", r.InstallSectionPolicy(0, proposeUnit(unit)))
			defer func() { mustNot(t, "uninstall", r.InstallSectionPolicy(0, nil)) }()
			mustNot(t, "trigger miss", r.Access(clk, "items", triggerElem, fld(0, 8), make([]byte, 8), false, AccessOpts{}))
			return img
		}},
		{"BulkRead", true, true, false, func(t *testing.T, r *Runtime, clk *sim.Clock, img []byte) []byte {
			got := make([]byte, 128)
			mustNot(t, "bulk read", r.BulkRead(clk, "items", lineElem, got))
			if !bytes.Equal(got, img) {
				t.Fatalf("BulkRead got %x…, want %x…", got[:8], img[:8])
			}
			return img
		}},
		{"partial BulkWrite", true, true, false, func(t *testing.T, r *Runtime, clk *sim.Clock, img []byte) []byte {
			// Elem 3 only: the line's other half must survive.
			mustNot(t, "bulk write", r.BulkWrite(clk, "items", lineElem+1, fullLine(0xAB)[:64]))
			return patch(img, 64, fullLine(0xAB)[:64])
		}},
		{"covering BulkWrite", true, false, false, func(t *testing.T, r *Runtime, clk *sim.Clock, img []byte) []byte {
			mustNot(t, "bulk write", r.BulkWrite(clk, "items", lineElem, fullLine(0xCD)))
			return fullLine(0xCD)
		}},
	}
}

func TestLineLifecycleTable(t *testing.T) {
	for _, entry := range lineEntries() {
		for _, setup := range lineSetups() {
			entry, setup := entry, setup
			t.Run(fmt.Sprintf("%s/%s", entry.name, setup.name), func(t *testing.T) {
				r, clk := wbqRuntime(t, 16)
				data := make([]byte, 128*64)
				for i := range data {
					data[i] = byte(i%251) + 1
				}
				mustNot(t, "init", r.InitObject("items", data))
				o, s := r.objs["items"], r.secs[0]
				tag := o.farBase + lineElem*64

				img := setup.do(t, r, clk, data[lineElem*64:lineElem*64+128])
				landing := readyOf(s, tag) // the setup's prefetch, if it left the line in flight
				inFlight := landing != 0
				var hits int64
				if setup.parked {
					hits = 1
				}
				msgs, start := r.Link().Messages(), clk.Now()

				want := entry.do(t, r, clk, img)

				if s.wbq.has(tag) {
					t.Fatal("the line's queue entry survived: a later drain would clobber it")
				}
				if got := r.WritebackQueueStats().Hits; got != hits {
					t.Fatalf("wbq hits = %d, want %d", got, hits)
				}
				if setup.parked && !entry.ridesMiss && r.Link().Messages() != msgs {
					t.Fatal("entering a parked line went to the network")
				}
				if entry.demand {
					if clk.Now() < landing {
						t.Fatalf("returned at %v, before the line's in-flight bytes land at %v", clk.Now(), landing)
					}
					if inFlight && s.pf.Useful != 1 {
						t.Fatalf("a used prefetch was not counted useful: %+v", s.pf)
					}
					if rtt := r.cfg.Net.OneSidedRTT; entry.needsFar && setup.far && clk.Now().Sub(start) < rtt {
						t.Fatalf("took %v: less than the %v a far read needs", clk.Now().Sub(start), rtt)
					}
				} else if ready := readyOf(s, tag); ready > landing {
					landing = ready // the entry's own prefetch
				}

				// Read the whole line back: it must hit, wait for whatever is
				// still on the wire, and hold exactly the expected image.
				misses := r.SectionStats(0).Misses
				got := make([]byte, 128)
				mustNot(t, "read back", r.Access(clk, "items", lineElem, fld(0, 128), got, false, AccessOpts{}))
				if r.SectionStats(0).Misses != misses {
					t.Fatal("the line was not resident after it was entered")
				}
				if clk.Now() < landing {
					t.Fatalf("read back at %v, before the bytes land at %v", clk.Now(), landing)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("line holds %x… want %x… (first mismatch at %d)", got[:8], want[:8], firstMismatch(got, want))
				}
				if got := r.WritebackQueueStats().Hits; got != hits {
					t.Fatalf("wbq hits after read back = %d, want %d", got, hits)
				}
				pf := s.pf
				if resident := pf.Issued - pf.Useful - pf.Useless; resident != 0 {
					t.Fatalf("prefetch accounting: %+v leaves %d speculative lines after every line was touched or evicted", pf, resident)
				}
				if pf.Useless != setup.useless {
					t.Fatalf("useless prefetches = %d, want %d: %+v", pf.Useless, setup.useless, pf)
				}

				mustNot(t, "flush", r.FlushAll(clk))
				dump, err := r.DumpObject("items")
				mustNot(t, "dump", err)
				if !bytes.Equal(dump[lineElem*64:lineElem*64+128], want) {
					t.Fatalf("far memory holds %x… want %x…", dump[lineElem*64:lineElem*64+8], want[:8])
				}
			})
		}
	}
}

// TestBatchReclaimingALineIssuesItOnce: a batch naming a line, a line that
// maps to its slot, and the first line again claims the first line twice —
// the second claim evicts the conflicting one, which had evicted the first.
// The line lands and counts issued once; the other two pieces are dropped.
func TestBatchReclaimingALineIssuesItOnce(t *testing.T) {
	r, clk := wbqRuntime(t, 16)
	e := func(elem int64) BatchEntry { return BatchEntry{Obj: "items", Elem: elem, Field: fld(0, 8)} }
	mustNot(t, "batch", r.PrefetchBatch(clk, []BatchEntry{e(lineElem), e(conflictElem), e(lineElem)}))
	s := r.secs[0]
	if pf := s.pf; pf.Issued != 1 || pf.Dropped != 2 || speculative(s) != 1 {
		t.Fatalf("%+v with %d lines speculative, want the line issued once and two pieces dropped", pf, speculative(s))
	}
}

// proposeTwice is a section policy whose chain comes back to the line it
// started from: it proposes one line unit twice in one list.
type proposeTwice int64

func (proposeTwice) Name() string                          { return "twice" }
func (p proposeTwice) OnMiss(_ int64, out []int64) []int64 { return append(out, int64(p), int64(p)) }
func (proposeTwice) PerMissOverhead() sim.Duration         { return 0 }

// TestPolicyProposingALineTwiceFetchesItOnce: in every section structure a
// line proposed twice in one list is claimed and fetched once, never
// reserved again while the batch holds it.
func TestPolicyProposingALineTwiceFetchesItOnce(t *testing.T) {
	for _, st := range []cache.Structure{cache.Direct, cache.SetAssoc, cache.FullAssoc} {
		r, clk := mkRuntime(t, func(c *Config) { c.Sections[0].Cache.Structure = st })
		_, unit, _ := r.LineUnit("items", lineElem)
		mustNot(t, "install", r.InstallSectionPolicy(0, proposeTwice(unit)))
		mustNot(t, "trigger miss", r.Access(clk, "items", triggerElem, fld(0, 8), make([]byte, 8), false, AccessOpts{}))
		if pf := r.SectionPrefetchStats(0); pf.Issued != 1 || pf.Dropped != 0 {
			t.Fatalf("%v: %+v, want the line issued once and nothing dropped", st, pf)
		}
		misses := r.SectionStats(0).Misses
		mustNot(t, "touch", r.Access(clk, "items", lineElem, fld(0, 8), make([]byte, 8), false, AccessOpts{}))
		if r.SectionStats(0).Misses != misses {
			t.Fatalf("%v: the proposed line missed", st)
		}
	}
}
