package rt

import (
	"fmt"
	"sort"

	"mira/internal/cache"
	"mira/internal/codec"
	"mira/internal/sim"
	"mira/internal/trace"
)

// DefaultWritebackQueueLines is the per-section write-back queue bound used
// when Config.WritebackQueueLines is zero.
const DefaultWritebackQueueLines = 16

// writebackQueue is the per-section asynchronous eviction pipeline: dirty
// victims park here instead of paying their write latency on the miss path,
// and the queue drains in background simulated time as coalesced vectored
// writes (adjacent lines merge into one contiguous piece, pieces share one
// doorbell-batched message). The queue is a read-your-writes overlay over
// far memory — the miss path consults it before fetching, so a line evicted
// and re-touched before its write-back drained is recovered locally.
//
// The queue copies nothing: a parked entry holds the victim's own line
// buffer (cache.Victim), and whoever ends the entry — a newer write of the
// tag, the drain, or the miss path that takes it — gives the buffer back to
// the section.
type writebackQueue struct {
	limit   int
	entries map[uint64]wbqEntry
	tags    []uint64 // sorted mirror of entries' keys
}

type wbqEntry struct {
	data []byte
	o    *objectRT // owning object (selective write-back resolution)
	// ranges, when non-nil, restricts the drain to the line's changed
	// byte ranges (delta write-back): only data[r.Off:r.Off+r.Len] pieces
	// ship. data always holds the FULL line regardless, so the
	// read-your-writes take path recovers complete bytes.
	ranges []codec.Range
}

func newWritebackQueue(limit int) *writebackQueue {
	if limit <= 0 {
		return nil
	}
	return &writebackQueue{limit: limit, entries: make(map[uint64]wbqEntry)}
}

// add parks one dirty line in data, which becomes the queue's; latest write
// wins, and the buffer it displaces goes back to sec. ranges nil means a
// full-line write-back; non-nil restricts the drain to the changed ranges.
// Reports whether the queue is now over its bound and must drain.
func (q *writebackQueue) add(sec cache.Section, tag uint64, data []byte, o *objectRT, ranges []codec.Range) (mustDrain bool) {
	if old, exists := q.entries[tag]; exists {
		sec.Recycle(old.data)
	} else {
		i := sort.Search(len(q.tags), func(i int) bool { return q.tags[i] >= tag })
		q.tags = append(q.tags, 0)
		copy(q.tags[i+1:], q.tags[i:])
		q.tags[i] = tag
	}
	q.entries[tag] = wbqEntry{data: data, o: o, ranges: ranges}
	return len(q.tags) >= q.limit
}

// take removes and returns the queued line for tag — the read-your-writes
// path. The caller owns the returned buffer (sectionRT.restore gives it
// back), which is always the full line even when the entry carried a delta
// plan.
func (q *writebackQueue) take(tag uint64) (wbqEntry, bool) {
	e, ok := q.entries[tag]
	if !ok {
		return wbqEntry{}, false
	}
	delete(q.entries, tag)
	i := sort.Search(len(q.tags), func(i int) bool { return q.tags[i] >= tag })
	if i < len(q.tags) && q.tags[i] == tag {
		q.tags = append(q.tags[:i], q.tags[i+1:]...)
	}
	return e, true
}

func (q *writebackQueue) len() int { return len(q.tags) }

// clear empties the queue once a drain has written every entry out, giving
// the line buffers back to sec.
func (q *writebackQueue) clear(sec cache.Section) {
	for _, tag := range q.tags {
		sec.Recycle(q.entries[tag].data)
	}
	clear(q.entries)
	q.tags = q.tags[:0]
}

// has reports whether tag's line is parked in the queue.
func (q *writebackQueue) has(tag uint64) bool {
	_, ok := q.entries[tag]
	return ok
}

// WbqStats counts the write-back pipeline's activity.
type WbqStats struct {
	Enqueued int64 // dirty victims parked in a queue
	Hits     int64 // misses served from a queue (read-your-writes)
	Drains   int64 // vectored drain messages issued
	Lines    int64 // lines drained
	Pieces   int64 // coalesced pieces those lines collapsed into
	// Delta write-back counters (compressed sections only).
	DeltaSkipped int64 // dirty lines identical to their snapshot: no write at all
	DeltaLines   int64 // dirty lines shipped as changed-range patches
	DeltaSaved   int64 // full-line bytes the patches kept off the write path
}

// deltaJoinGap merges changed ranges separated by fewer than this many
// unchanged bytes: each merge trades re-shipped gap bytes for one scatter
// element.
const deltaJoinGap = 8

// maxDeltaPieces bounds a patch's scatter elements. Every piece pays the
// vectored posting and per-piece chunking overheads, so a line shattered
// into many small ranges (a scan touching one field per element, say) costs
// more to patch than to re-ship whole. deltaPlan widens the join gap until
// the patch fits the bound, trading re-shipped gap bytes for pieces, and
// gives up on delta entirely when even that doesn't converge or no longer
// saves real bytes.
const maxDeltaPieces = 8

// deltaPlan consumes the section's last-fetched snapshot of tag and plans
// the dirty line's write-back. ranges nil = ship the full line; skip = the
// bytes never actually changed, no write needed. The diff pass is charged
// to the evicting thread as one codec encode over the line.
func (r *Runtime) deltaPlan(clk *sim.Clock, s *sectionRT, o *objectRT, tag uint64, data []byte) (ranges []codec.Range, skip bool) {
	if s.snaps == nil {
		return nil, false
	}
	snap, ok := s.snaps[tag]
	if !ok {
		// NoFetch allocation or degraded write-allocate: no base to diff
		// against — the full line is the only safe write.
		return nil, false
	}
	delete(s.snaps, tag)
	if len(o.selFields) > 0 || len(snap) != len(data) {
		return nil, false
	}
	// Degraded mode: the write will park in the transport's overlay against
	// a far node whose memory may have been crash-wiped. A full line
	// restores it; a patch would assume surviving base bytes.
	if r.tr.BreakerOpen(clk.Now()) {
		return nil, false
	}
	clk.Advance(codec.DefaultCostModel().EncodeCost(len(data)))
	rs := codec.DiffRanges(snap, data, deltaJoinGap)
	if len(rs) == 0 {
		r.wbqStats.DeltaSkipped++
		return nil, true
	}
	for gap := deltaJoinGap * 4; len(rs) > maxDeltaPieces && gap <= len(data); gap *= 4 {
		rs = codec.DiffRanges(snap, data, gap)
	}
	if len(rs) > maxDeltaPieces {
		return nil, false
	}
	patch := 0
	for _, rg := range rs {
		patch += rg.Len
	}
	// A patch must save a solid majority of the line: each piece still pays
	// its posting and chunking overheads, and a near-full patch loses the
	// adjacency coalescing whole lines get in the drain.
	if patch*4 > len(data)*3 {
		return nil, false
	}
	r.wbqStats.DeltaLines++
	r.wbqStats.DeltaSaved += int64(len(data) - patch)
	return rs, false
}

// WritebackQueueStats reports the runtime-wide write-back queue counters.
func (r *Runtime) WritebackQueueStats() WbqStats { return r.wbqStats }

// wbqEnqueue parks a dirty victim in the section's queue, draining it when
// the bound is hit — the only time an evicting access pays write-back
// latency. With the queue disabled it falls back to issuing the write
// immediately (the pre-pipeline behavior) and returns its completion
// instant, which flush paths block on; a parked line returns zero. data is
// the victim's own buffer (cache.Victim): it moves into the queue, or goes
// back to the section once the bytes are written or found unchanged.
func (r *Runtime) wbqEnqueue(clk *sim.Clock, s *sectionRT, tag uint64, data []byte) (sim.Time, error) {
	// Sections serve objects with disjoint far ranges, so resolving the
	// owner by tag is unambiguous.
	o := r.ownerOf(tag)
	if o == nil {
		return 0, fmt.Errorf("rt: dirty line %#x has no owning object", tag)
	}
	ranges, skip := r.deltaPlan(clk, s, o, tag, data)
	if skip {
		s.sec.Recycle(data)
		return 0, nil // dirty flag lied: the bytes match far memory exactly
	}
	if s.wbq == nil {
		var done sim.Time
		var err error
		if ranges != nil {
			done, err = r.writebackPatch(clk.Now(), s, tag, data, ranges)
		} else {
			done, err = r.writebackLine(clk.Now(), s, o, tag, data)
		}
		if err != nil {
			return 0, err
		}
		s.sec.Recycle(data) // the transport keeps no reference to what it sent
		if done > r.lastFlush {
			r.lastFlush = done
		}
		return done, nil
	}
	r.wbqStats.Enqueued++
	if r.trc != nil {
		r.trc.Instant(clk.Now(), "rt", "wbq.park", trace.S("section", s.spec.Cache.Name))
	}
	if s.wbq.add(s.sec, tag, data, o, ranges) {
		_, err := r.drainWbq(clk, s)
		return 0, err
	}
	return 0, nil
}

// drainWbq flushes the section's write-back queue as one doorbell-batched
// vectored write, coalescing adjacent lines into contiguous pieces. The
// issuing thread pays the posting cost; completion lands in lastFlush (the
// Fence horizon) and is returned so flush paths can block on it.
//
// The vectors and the bytes of coalesced runs live in scratch the runtime
// keeps. A run is copied there, never appended onto the first entry's own
// slice: that slice is a recycled line buffer, and what lies behind its
// length belongs to somebody else.
func (r *Runtime) drainWbq(clk *sim.Clock, s *sectionRT) (sim.Time, error) {
	if s.wbq == nil || s.wbq.len() == 0 {
		return clk.Now(), nil
	}
	addrs, pieces := r.drainAddrs[:0], r.drainPieces[:0]
	// Sized for every queued line up front, so that growing it cannot move
	// the runs earlier pieces already point into.
	if need := s.wbq.len() * s.spec.Cache.LineBytes; cap(r.drainRuns) < need {
		r.drainRuns = make([]byte, 0, need)
	}
	runs := r.drainRuns[:0]
	inRuns := false // whether the piece before this entry is the tail of runs
	// Entries planned as patches while the link was healthy must re-expand
	// to full lines when the drain lands in degraded mode: the write will
	// park in the transport's overlay against a far node whose memory may
	// have been crash-wiped, and a patch would merge over base bytes that
	// no longer exist. The queue always carries the full line for exactly
	// this reason.
	degraded := r.tr.BreakerOpen(clk.Now())
	for _, tag := range s.wbq.tags {
		e := s.wbq.entries[tag]
		wasRun := inRuns
		inRuns = false
		if len(e.o.selFields) > 0 {
			sa, sz, offs := r.selectivePieces(e.o, tag, len(e.data))
			for i := range sa {
				addrs = append(addrs, sa[i])
				pieces = append(pieces, e.data[offs[i]:offs[i]+sz[i]])
			}
			continue
		}
		if e.ranges != nil && !degraded {
			// Delta write-back: only the changed ranges ship, each as a raw
			// sub-range piece at its own sub-line address.
			for _, rg := range e.ranges {
				addrs = append(addrs, tag+uint64(rg.Off))
				pieces = append(pieces, e.data[rg.Off:rg.Off+rg.Len])
			}
			continue
		}
		// A whole line adjacent to the piece before it extends that piece
		// (one WR for the run).
		if n := len(addrs); n > 0 && addrs[n-1]+uint64(len(pieces[n-1])) == tag {
			start := len(runs) - len(pieces[n-1])
			if !wasRun {
				start = len(runs)
				runs = append(runs, pieces[n-1]...)
			}
			runs = append(runs, e.data...)
			pieces[n-1], inRuns = runs[start:len(runs):len(runs)], true
			continue
		}
		addrs = append(addrs, tag)
		pieces = append(pieces, e.data)
	}
	r.drainAddrs, r.drainPieces = addrs, pieces
	if len(addrs) == 0 {
		s.wbq.clear(s.sec)
		return clk.Now(), nil
	}
	clk.Advance(r.cfg.Net.VectoredPostCost(len(addrs)))
	post := clk.Now()
	if s.spec.Compress {
		r.setCodec(codec.ByteRun)
		defer r.setCodec(codec.None)
	}
	done, err := r.tr.ScatterWrite(post, addrs, pieces)
	if err != nil {
		// Nothing left the queue: the queued copies are the only copies.
		return clk.Now(), fmt.Errorf("rt: write-back drain: %w", err)
	}
	lines := s.wbq.len()
	s.wbq.clear(s.sec)
	r.wbqStats.Drains++
	r.wbqStats.Lines += int64(lines)
	r.wbqStats.Pieces += int64(len(addrs))
	if r.trc != nil {
		r.trc.Span(post, done, "rt", "wbq.drain",
			trace.I("lines", int64(lines)), trace.I("pieces", int64(len(addrs))))
	}
	if done > r.lastFlush {
		r.lastFlush = done
	}
	return done, nil
}

// drainAllWbq drains every section's queue (program-end flush ordering:
// queued lines must reach far memory before the transport-level overlay is
// flushed and DumpObject bypasses the cache).
func (r *Runtime) drainAllWbq(clk *sim.Clock) (sim.Time, error) {
	last := clk.Now()
	for _, s := range r.secs {
		done, err := r.drainWbq(clk, s)
		if err != nil {
			return last, err
		}
		if done > last {
			last = done
		}
	}
	return last, nil
}
