package rt

import (
	"fmt"
	"math"
	"slices"
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
	entries []wbqEntry // sorted by tag
	// patches restricts the drain of an entry planned as a delta patch to
	// the line's changed byte ranges: only data[r.Off:r.Off+r.Len] pieces
	// ship. The entry's data always holds the FULL line regardless, so the
	// read-your-writes take path recovers complete bytes. Nil until a
	// compressed section parks its first patch.
	patches map[uint64]deltaPatch
}

type wbqEntry struct {
	tag  uint64
	data []byte
	o    *objectRT // owning object (selective write-back resolution)
}

// deltaPatch is a delta write-back plan: the changed ranges of a dirty line
// that ship instead of all of it, at most maxDeltaPieces. They are kept
// inline as 32-bit line offsets, so the queue holds a plan by value, without
// a slice of its own. n == 0 is no patch: the full line ships.
type deltaPatch struct {
	n       int
	off, ln [maxDeltaPieces]uint32
}

// at returns the patch's i-th range.
func (p *deltaPatch) at(i int) codec.Range {
	return codec.Range{Off: int(p.off[i]), Len: int(p.ln[i])}
}

func newWritebackQueue(limit int) *writebackQueue {
	if limit <= 0 {
		return nil
	}
	return &writebackQueue{limit: limit}
}

// find returns where tag's entry is, or would go, in entries.
func (q *writebackQueue) find(tag uint64) (int, bool) {
	i := sort.Search(len(q.entries), func(i int) bool { return q.entries[i].tag >= tag })
	return i, i < len(q.entries) && q.entries[i].tag == tag
}

// add parks one dirty line in data, which becomes the queue's; latest write
// wins, and the buffer it displaces goes back to sec. A patch without ranges
// means a full-line write-back; one with ranges restricts the drain to them.
// Reports whether the queue is now over its bound and must drain.
func (q *writebackQueue) add(sec cache.Section, tag uint64, data []byte, o *objectRT, p deltaPatch) (mustDrain bool) {
	e := wbqEntry{tag: tag, data: data, o: o}
	if i, exists := q.find(tag); exists {
		sec.Recycle(q.entries[i].data)
		q.entries[i] = e
	} else {
		q.entries = slices.Insert(q.entries, i, e)
	}
	if p.n > 0 {
		if q.patches == nil {
			q.patches = make(map[uint64]deltaPatch)
		}
		q.patches[tag] = p
	} else {
		delete(q.patches, tag)
	}
	return len(q.entries) >= q.limit
}

// take removes and returns the queued line for tag, and its plan — the
// read-your-writes path. The caller owns the returned buffer
// (sectionRT.restore gives it back), which is always the full line even
// when the entry carried a delta plan.
func (q *writebackQueue) take(tag uint64) (wbqEntry, deltaPatch, bool) {
	i, ok := q.find(tag)
	if !ok {
		return wbqEntry{}, deltaPatch{}, false
	}
	e, p := q.entries[i], q.patches[tag]
	q.entries = slices.Delete(q.entries, i, i+1)
	delete(q.patches, tag)
	return e, p, true
}

func (q *writebackQueue) len() int { return len(q.entries) }

// clear empties the queue once a drain has written every entry out, giving
// the line buffers back to sec.
func (q *writebackQueue) clear(sec cache.Section) {
	for _, e := range q.entries {
		sec.Recycle(e.data)
	}
	clear(q.entries)
	q.entries = q.entries[:0]
	clear(q.patches)
}

// has reports whether tag's line is parked in the queue.
func (q *writebackQueue) has(tag uint64) bool {
	_, ok := q.find(tag)
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

// deltaPlan consumes the section's last-fetched snapshot of tag, gives its
// buffer back to the section, and plans the dirty line's write-back: a patch
// without ranges ships the full line; skip = the bytes never actually
// changed, no write needed. The diff pass is charged to the evicting thread
// as one codec encode over the line.
//
// The line is read once: one pass lists its changed runs at deltaJoinGap
// into the runtime's scratch, and every wider join gap is worked out from
// that list (joinedAt) — as is the patch, merged from it once accepted.
func (r *Runtime) deltaPlan(clk *sim.Clock, s *sectionRT, o *objectRT, tag uint64, data []byte) (p deltaPatch, skip bool) {
	snap, ok := s.snaps[tag]
	if !ok {
		// Not compressed, NoFetch allocation or degraded write-allocate: no
		// base to diff against — the full line is the only safe write.
		return p, false
	}
	delete(s.snaps, tag)
	defer s.sec.Recycle(snap)
	// A patch's offsets are 32-bit.
	if len(o.selFields) > 0 || len(snap) != len(data) || uint64(len(data)) > math.MaxUint32 {
		return p, false
	}
	// Degraded mode: the write will park in the transport's overlay against
	// a far node whose memory may have been crash-wiped. A full line
	// restores it; a patch would assume surviving base bytes.
	if r.tr.BreakerOpen(clk.Now()) {
		return p, false
	}
	clk.Advance(codec.DefaultCostModel().EncodeCost(len(data)))
	runs := codec.AppendDiffRanges(r.deltaRuns[:0], snap, data, deltaJoinGap)
	r.deltaRuns = runs
	if len(runs) == 0 {
		r.wbqStats.DeltaSkipped++
		return p, true
	}
	gap := deltaJoinGap
	pieces, patch := joinedAt(runs, gap)
	for g := gap * 4; pieces > maxDeltaPieces && g <= len(data); g *= 4 {
		gap = g
		pieces, patch = joinedAt(runs, gap)
	}
	// A patch must save a solid majority of the line: each piece still pays
	// its posting and chunking overheads, and a near-full patch loses the
	// adjacency coalescing whole lines get in the drain.
	if pieces > maxDeltaPieces || patch*4 > len(data)*3 {
		return p, false
	}
	for i, rg := range codec.MergeRanges(runs, gap) {
		p.off[i], p.ln[i] = uint32(rg.Off), uint32(rg.Len)
	}
	p.n = pieces
	r.wbqStats.DeltaLines++
	r.wbqStats.DeltaSaved += int64(len(data) - patch)
	return p, false
}

// joinedAt reports what the changed runs (sorted, disjoint, as
// codec.DiffRanges lists them) come to when every gap shorter than joinGap is
// merged: the pieces left — one more than the gaps that stay open — and
// their bytes, the runs' span less those gaps.
func joinedAt(runs []codec.Range, joinGap int) (pieces, bytes int) {
	last := runs[len(runs)-1]
	pieces, bytes = 1, last.Off+last.Len-runs[0].Off
	for i := 1; i < len(runs); i++ {
		if g := runs[i].Off - (runs[i-1].Off + runs[i-1].Len); g >= joinGap {
			pieces++
			bytes -= g
		}
	}
	return pieces, bytes
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
	p, skip := r.deltaPlan(clk, s, o, tag, data)
	if skip {
		s.sec.Recycle(data)
		return 0, nil // dirty flag lied: the bytes match far memory exactly
	}
	if s.wbq == nil {
		var done sim.Time
		var err error
		if p.n > 0 {
			done, err = r.writebackPatch(clk.Now(), s, tag, data, &p)
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
	if s.wbq.add(s.sec, tag, data, o, p) {
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
	for _, e := range s.wbq.entries {
		tag := e.tag
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
		if p, ok := s.wbq.patches[tag]; ok && !degraded {
			// Delta write-back: only the changed ranges ship, each as a raw
			// sub-range piece at its own sub-line address.
			for i := range p.n {
				rg := p.at(i)
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
