package rt

import (
	"mira/internal/cache"
	"mira/internal/codec"
	"mira/internal/sim"
)

// This file is the line-lifecycle seam: the only code that moves a line
// across a section boundary. A line comes in through claim (a slot, with the
// victim retired and the write-back queue consulted) and gets far bytes
// through fetch (one line) or land (a doorbell-batched gather of speculative
// lines); it goes out through drop. Prefetch paths first run locate, and
// unpark what it finds in the queue. Callers keep what differs between them —
// who pays which posting cost and when, whether a failure is hard or
// advisory, stall versus overlap — and never touch sec.Reserve, sec.Drop,
// the queue's take or a far read themselves (TestLineSeam scans for it).
// A line's marks (cache.Line.Ready, Spec) live on its slot, so only resident
// lines have any; only this file writes them.

// lineState says where a line's newest bytes are, as far as a prefetch cares.
type lineState uint8

const (
	lineFar    lineState = iota // only far memory has them: worth a fetch
	lineHere                    // resident (its bytes may still be on the wire)
	lineParked                  // in the write-back queue: unpark recovers them locally
)

// locate is the filter every prefetch path runs before claiming a line.
func (s *sectionRT) locate(tag uint64) lineState {
	if _, resident := s.sec.Peek(tag); resident {
		return lineHere
	}
	if s.wbq != nil && s.wbq.has(tag) {
		return lineParked
	}
	return lineFar
}

// claim reserves the slot of the line containing addr — a reserved slot
// starts without marks — retires the displaced victim, and only then
// consults the write-back queue. A line parked there is the newest copy: it
// is recovered locally (recovered=true, the line comes back dirty) and its
// entry dies — also under a store that will overwrite the whole line, or a
// later drain would clobber the store. A hard write-back failure gives the
// slot back.
func (r *Runtime) claim(clk *sim.Clock, s *sectionRT, addr uint64) (l *cache.Line, recovered bool, err error) {
	l, v := s.sec.Reserve(addr)
	if v.Data != nil {
		s.mEvict.Inc()
		r.bumpTid(s, &s.tidEvicts, &s.mTidEvict, "evict")
		if _, err := r.retire(clk, s, v); err != nil {
			s.unclaim(l.Tag, l)
			return nil, false, err
		}
	}
	if e, _, ok := r.takeParked(s, l.Tag); ok {
		s.restore(l, e)
		return l, true, nil
	}
	return l, false, nil
}

// takeParked removes tag's line and its plan from the write-back queue, if
// it is parked there, and counts the read-your-writes hit.
func (r *Runtime) takeParked(s *sectionRT, tag uint64) (wbqEntry, deltaPatch, bool) {
	if s.wbq == nil {
		return wbqEntry{}, deltaPatch{}, false
	}
	e, p, ok := s.wbq.take(tag)
	if ok {
		r.wbqStats.Hits++
	}
	return e, p, ok
}

// restore fills a claimed line from its parked copy, which is always the
// full line, and gives the parked buffer back to the section. The line comes
// back dirty: the newest copy still lives only locally.
func (s *sectionRT) restore(l *cache.Line, e wbqEntry) {
	copy(l.Data, e.data)
	l.Dirty = true
	s.sec.Recycle(e.data)
}

// unpark serves a prefetch of a line that locate found parked: the queued
// copy is the newest data, so no network is needed. Unlike a demand claim it
// takes the entry out of the queue before the victim is retired, so the
// victim's own parking cannot drain the entry to far memory just ahead of
// its recovery. Advisory like its callers: if the victim's write-back fails,
// the line goes back to the queue.
func (r *Runtime) unpark(clk *sim.Clock, s *sectionRT, tag uint64) {
	e, p, ok := r.takeParked(s, tag)
	if !ok {
		return
	}
	l, _, err := r.claim(clk, s, tag)
	if err != nil {
		s.wbq.add(s.sec, tag, e.data, e.o, p)
		return
	}
	s.restore(l, e)
}

// unclaim gives a claimed slot back when its bytes never arrived — unless a
// later claim already took the slot for another line. The line is clean, so
// its buffer stays with the section.
func (s *sectionRT) unclaim(tag uint64, l *cache.Line) {
	if s.owns(tag, l) {
		s.sec.Drop(tag)
	}
}

// owns reports whether l is still the slot claimed for tag.
func (s *sectionRT) owns(tag uint64, l *cache.Line) bool {
	cur, ok := s.sec.Peek(tag)
	return ok && cur == l && l.Tag == tag
}

// retire settles the state of a line that left the cache with its marks: an
// untouched prefetch counts Useless, a clean line's snapshot dies with it —
// its buffer back to the section — so the map stays bounded by the cache
// size, and dirty bytes go to wbqEnqueue, whose completion instant is
// returned.
func (r *Runtime) retire(clk *sim.Clock, s *sectionRT, v cache.Victim) (sim.Time, error) {
	if v.Spec {
		s.pf.Useless++
		s.mPfUseless.Inc()
	}
	if !v.Dirty {
		if snap, ok := s.snaps[v.Tag]; ok {
			delete(s.snaps, v.Tag)
			s.sec.Recycle(snap)
		}
		return 0, nil
	}
	return r.wbqEnqueue(clk, s, v.Tag, v.Data)
}

// drop evicts tag's line on the runtime's own initiative (flush, release,
// resize) and retires it like any victim.
func (r *Runtime) drop(clk *sim.Clock, s *sectionRT, tag uint64) (sim.Time, error) {
	v, ok := s.sec.Drop(tag)
	if !ok {
		return 0, nil
	}
	return r.retire(clk, s, v)
}

// linesIn lists the resident lines of s with tags in [lo, hi), in the
// section's own iteration order. The list is the section's scratch: it is
// valid until the next linesIn on s.
func (s *sectionRT) linesIn(lo, hi uint64) []*cache.Line {
	ls := s.lines[:0]
	s.sec.ForEachResident(func(l *cache.Line) {
		if l.Tag >= lo && l.Tag < hi {
			ls = append(ls, l)
		}
	})
	s.lines = ls
	return ls
}

// snapshotLine records the line's just-fetched bytes as the delta
// write-back base, in a buffer the section lends (retire or deltaPlan gives
// it back). Selective objects are excluded: a selective fetch fills only
// field ranges, so the rest of l.Data is not far memory's content.
func snapshotLine(s *sectionRT, o *objectRT, l *cache.Line) {
	if s.snaps == nil || len(o.selFields) > 0 {
		return
	}
	snap := s.sec.Spare()
	copy(snap, l.Data)
	s.snaps[l.Tag] = snap
}

// fetch pulls a claimed line's bytes from far memory in a message posted at
// now — whole line one-sided, or only the selective field ranges two-sided
// (§4.5, §4.7) — and returns the instant they land. On failure the slot is
// given back: a resident line always holds real bytes.
func (r *Runtime) fetch(now sim.Time, s *sectionRT, o *objectRT, l *cache.Line) (sim.Time, error) {
	if s.spec.Compress {
		r.setCodec(codec.ByteRun)
		defer r.setCodec(codec.None)
	}
	if len(o.selFields) == 0 {
		done, err := r.tr.ReadOneSided(now, l.Tag, l.Data)
		if err != nil {
			s.unclaim(l.Tag, l)
			return done, err
		}
		snapshotLine(s, o, l)
		return done, nil
	}
	addrs, sizes, offs := r.selectivePieces(o, l.Tag, len(l.Data))
	data, done, err := r.tr.GatherTwoSided(now, addrs, sizes)
	if err != nil {
		s.unclaim(l.Tag, l)
		return now, err
	}
	pos := 0
	for i, off := range offs {
		copy(l.Data[off:off+sizes[i]], data[pos:pos+sizes[i]])
		pos += sizes[i]
	}
	return done, nil
}

// speculate marks a line whose prefetched bytes land at ready: in flight
// until then, speculative until its first demand touch.
func (s *sectionRT) speculate(l *cache.Line, ready sim.Time) {
	l.Ready, l.Spec = ready, true
	s.pf.Issued++
	s.mPfIssued.Inc()
}

// onWire marks a line whose demand-fetched bytes (bulk's) land at ready.
func onWire(l *cache.Line, ready sim.Time) { l.Ready = ready }

// touchSpec retires a line's speculative mark on its first demand touch: the
// prefetch was useful, and late if its bytes are still on the wire. Reports
// whether it did, so the caller can feed stream-maintaining policies.
func (s *sectionRT) touchSpec(clk *sim.Clock, l *cache.Line) bool {
	if !l.Spec {
		return false
	}
	l.Spec = false
	s.pf.Useful++
	s.mPfUseful.Inc()
	if l.Ready > clk.Now() {
		s.pf.Late++
	}
	return true
}

// waitReady blocks until a line's in-flight bytes land.
func waitReady(clk *sim.Clock, l *cache.Line) {
	clk.AdvanceTo(l.Ready)
	l.Ready = 0
}

// latestReady returns the later of t and every resident line's Ready; its
// visitor is made once per section, so a Fence allocates nothing.
func (s *sectionRT) latestReady(t sim.Time) sim.Time {
	if s.foldReady == nil {
		s.foldReady = func(l *cache.Line) { s.latest = max(s.latest, l.Ready) }
	}
	s.latest = t
	s.sec.ForEachResident(s.foldReady)
	return s.latest
}

// settleReady forgets when s's in-flight bytes land, as if all had.
func (s *sectionRT) settleReady() {
	s.sec.ForEachResident(func(l *cache.Line) { l.Ready = 0 })
}

// dropped counts one prefetch proposal that fetched nothing — dropped
// proposals are the denominator policy accuracy needs.
func (s *sectionRT) dropped() {
	s.pf.Dropped++
	s.mPfDropped.Inc()
}

// claimed is one claimed line waiting for land to bring its bytes.
type claimed struct {
	s   *sectionRT
	o   *objectRT
	l   *cache.Line
	tag uint64
}

// land fetches claimed lines — possibly of different sections — in a single
// doorbell-batched chain of one-sided reads posted at post, and marks each
// speculative with its own arrival instant: the reply streams pieces in
// request order, so piece i is ready once its own bytes are off the wire,
// the chain's completion minus the trailing pieces' wire time. One chain
// carries every piece, so the codec is all-or-nothing: only a batch entirely
// of compressed sections ships compressed.
//
// A line evicted by a later claim of the same batch (set conflict or
// capacity pressure) has a new tenant: copying into it would corrupt that
// tenant, and marking it in flight would mark that tenant. Pieces whose
// slot is no longer theirs are counted dropped — as is a line's second piece
// in one batch, and every piece when the gather fails, after giving its slot
// back; the caller decides whether that error is advisory.
func (r *Runtime) land(post sim.Time, ps []claimed) (sim.Time, error) {
	addrs, sizes := r.landAddrs[:0], r.landSizes[:0]
	compress := true
	for _, p := range ps {
		addrs, sizes = append(addrs, p.tag), append(sizes, len(p.l.Data))
		compress = compress && p.s.spec.Compress
	}
	r.landAddrs, r.landSizes = addrs, sizes
	if compress {
		r.setCodec(codec.ByteRun)
		defer r.setCodec(codec.None)
	}
	data, done, err := r.tr.GatherOneSided(post, addrs, sizes)
	if err != nil {
		for _, p := range ps {
			p.s.unclaim(p.tag, p.l)
			p.s.dropped()
		}
		return done, err
	}
	pos, behind := 0, len(data)
	for i, p := range ps {
		behind -= sizes[i]
		// A claimed slot is unmarked until here: a marked one holds a line the
		// batch claimed again after evicting it, and its first piece landed.
		if p.s.owns(p.tag, p.l) && !p.l.Spec {
			copy(p.l.Data, data[pos:pos+sizes[i]])
			snapshotLine(p.s, p.o, p.l)
			p.s.speculate(p.l, done.Add(-r.cfg.Net.WireTime(behind)))
		} else {
			p.s.dropped()
		}
		pos += sizes[i]
	}
	return done, nil
}
