package cluster

import (
	"errors"
	"fmt"
	"slices"

	"mira/internal/sim"
	"mira/internal/trace"
	"mira/internal/transport"
)

// errStale marks a read that landed on a node whose memory was wiped: the
// bytes came back with a valid checksum (the node checksummed its own
// zeroed memory), so only the wipe flag — not the CRC — can unmask them.
var errStale = errors.New("cluster: node lost its memory since last re-sync")

// Pool implements transport.Link: the runtime and the swap cache drive a
// cluster through exactly the interface they drive a single transport.
var _ transport.Link = (*Pool)(nil)

func (p *Pool) isStale(node int) bool { return p.nodes[node].stale }

// chooseHome picks the home a segment read should be served from: the
// first home that has its memory and a closed breaker. A home with an open
// breaker is skipped only when a healthy alternative exists — if every
// home is dark, the first non-stale one takes the degraded path (overlay
// serve or half-open wait) rather than failing outright.
func (p *Pool) chooseHome(now sim.Time, homes []Home) (int, error) {
	fallback := -1
	for i, h := range homes {
		n := p.nodes[h.Node]
		if n.stale {
			continue
		}
		if n.link.BreakerOpen(now) {
			if fallback < 0 {
				fallback = i
			}
			continue
		}
		return i, nil
	}
	if fallback >= 0 {
		return fallback, nil
	}
	return -1, errStale
}

func (p *Pool) noteRead(now sim.Time, node, nbytes int, failedOver bool, primary int) {
	s := &p.nodes[node].stats
	s.Reads++
	s.ReadBytes += int64(nbytes)
	if failedOver {
		p.nodes[primary].stats.Failovers++
		p.cFailover.Inc()
		p.trc.Instant(now, "cluster", "failover",
			trace.I("primary", int64(primary)), trace.I("served_by", int64(node)))
	}
}

func (p *Pool) noteWrite(node, nbytes int) {
	s := &p.nodes[node].stats
	s.Writes++
	s.WriteBytes += int64(nbytes)
}

// readSegment serves one segment, failing over across the replica chain.
// Homes are tried in placement order starting from chooseHome's pick; a
// success is re-checked against the stale flag because a crash-wipe that
// restarts mid-operation returns zeroed bytes under a *valid* checksum.
func (p *Pool) readSegment(now sim.Time, s seg, buf []byte) (sim.Time, error) {
	homes := s.entry.Homes
	primary := homes[0].Node
	start, err := p.chooseHome(now, homes)
	if err != nil {
		return now, fmt.Errorf("cluster: read [%#x,+%d): every home wiped or dark: %w",
			s.entry.VBase+s.off, s.n, err)
	}
	var lastErr error
	var repair []Home // homes that returned a live error — read-repair targets
	for k := 0; k < len(homes); k++ {
		i := (start + k) % len(homes)
		h := homes[i]
		if k > 0 && p.isStale(h.Node) {
			lastErr = errStale
			continue
		}
		done, err := p.nodes[h.Node].link.ReadOneSided(now, h.Base+s.off, buf)
		if err != nil {
			lastErr = err
			repair = append(repair, h)
			continue
		}
		if p.isStale(h.Node) {
			// Wipe fired during this very operation: discard the zeros.
			lastErr = errStale
			continue
		}
		p.noteRead(now, h.Node, s.n, h.Node != primary, primary)
		if h.Node != primary {
			p.readRepair(now, repair, s, buf)
			p.resyncStale(now)
		}
		return done, nil
	}
	// Every home refused. A wipe surfaced mid-loop still deserves a
	// re-sync attempt so the next read can succeed.
	p.resyncStale(now)
	return now, fmt.Errorf("cluster: read [%#x,+%d) failed on all %d homes: %w",
		s.entry.VBase+s.off, s.n, len(homes), lastErr)
}

// readRepair pushes the bytes a replica served back to homes that returned
// a live read error and are reachable again. Best-effort: failures are
// ignored (the overlay queue or the next re-sync catches them) and the
// repair's completion never extends the caller's read.
func (p *Pool) readRepair(now sim.Time, targets []Home, s seg, buf []byte) {
	for _, h := range targets {
		if p.isStale(h.Node) {
			continue // re-sync owns wiped nodes
		}
		if _, err := p.nodes[h.Node].link.WriteOneSided(now, h.Base+s.off, buf); err == nil {
			p.nodes[h.Node].stats.Repairs++
		}
	}
}

// resyncStale rebuilds every stale node from healthy replicas: each
// placement range homed on a stale node is copied from its first healthy
// co-home, charging wire time on both links. A node still inside a crash
// or partition window is left stale for a later pass (restoring it now
// would either be physically impossible or erased by the pending wipe),
// and the flag only clears once every range homed on the node was
// restored — a range with no healthy co-home (R=1, or every replica wiped
// at once) keeps the node stale so its data loss surfaces as read errors
// instead of silent zeros. Runs as background recovery: it charges the
// links (delaying later traffic) but its completion is not folded into
// the operation that detected the wipe.
func (p *Pool) resyncStale(now sim.Time) sim.Time {
	// Apply pending wipes first: a wipe marks its node stale.
	p.Sync(now)
	if !slices.ContainsFunc(p.nodes, func(n *farNode) bool { return n.stale }) {
		return now
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	done := now
	ranges, moved := 0, int64(0)
	for idx, n := range p.nodes {
		if !n.stale || n.inj != nil && n.inj.Down(now) {
			continue
		}
		// The node's memory is gone; its transport's queued degraded-mode
		// write-backs duplicate data the replica copy below already
		// includes. Drop them — a later drain would overwrite the
		// restored bytes with stale ones.
		n.tr.DropQueued()
		recovered := true
		for _, e := range p.table {
			var at *Home
			var src *Home
			for i := range e.Homes {
				h := &e.Homes[i]
				if h.Node == idx {
					at = h
				} else if src == nil && !p.nodes[h.Node].stale {
					src = h
				}
			}
			if at == nil {
				continue // node does not home this range
			}
			if src == nil {
				recovered = false // sole copy was lost — nothing to restore
				continue
			}
			buf := make([]byte, e.Size)
			if err := p.nodes[src.Node].fm.Read(src.Base, buf); err != nil {
				recovered = false
				continue
			}
			if err := n.fm.Write(at.Base, buf); err != nil {
				recovered = false
				continue
			}
			if n.tier != nil {
				// The restored bytes went straight into DRAM; a stale flash
				// copy left behind would shadow them at the next promotion.
				n.tier.Restore(at.Base, int(e.Size))
			}
			d := p.nodes[src.Node].tr.BW.Acquire(now, len(buf))
			if d2 := n.tr.BW.Acquire(now, len(buf)); d2 > d {
				d = d2
			}
			if d > done {
				done = d
			}
			n.stats.Resyncs++
			n.stats.ResyncBytes += int64(e.Size)
			ranges++
			moved += int64(e.Size)
		}
		if recovered {
			n.stale = false
		}
	}
	if ranges > 0 && p.trc != nil {
		p.trc.Span(now, done, "cluster", "resync",
			trace.I("ranges", int64(ranges)), trace.I("bytes", moved))
	}
	return done
}

// ReadOneSided implements transport.Link: a one-sided read of the pool's
// virtual address space, split per placement entry, each piece served by
// its primary with failover to replicas. Completion is the max across the
// independent links.
func (p *Pool) ReadOneSided(now sim.Time, addr uint64, buf []byte) (sim.Time, error) {
	segs, err := p.route(addr, len(buf))
	if err != nil {
		return now, err
	}
	done := now
	for _, s := range segs {
		d, err := p.readSegment(now, s, buf[s.at:s.at+s.n])
		if err != nil {
			return now, err
		}
		if d > done {
			done = d
		}
	}
	return done, nil
}

// writeSegment fans one segment out to every home. Replication is
// synchronous: completion is the max across homes, and the write succeeds
// if at least one home accepted it (a dark home's transport queues the
// write in its overlay and drains it on recovery).
func (p *Pool) writeSegment(now sim.Time, s seg, data []byte) (sim.Time, error) {
	done := now
	ok := 0
	var lastErr error
	var missed []int
	for _, h := range s.entry.Homes {
		d, err := p.nodes[h.Node].link.WriteOneSided(now, h.Base+s.off, data)
		if err != nil {
			lastErr = err
			missed = append(missed, h.Node)
			continue
		}
		ok++
		p.noteWrite(h.Node, s.n)
		if d > done {
			done = d
		}
	}
	if ok == 0 {
		return now, fmt.Errorf("cluster: write [%#x,+%d) failed on all %d homes: %w",
			s.entry.VBase+s.off, s.n, len(s.entry.Homes), lastErr)
	}
	// A home that refused the write while a peer accepted it has silently
	// diverged (its transport did NOT queue the write — a queued write
	// returns success). Mark it stale so reads avoid it until a re-sync
	// copies the replicas' state back.
	for _, node := range missed {
		p.markStale(node)
	}
	return done, nil
}

// WriteOneSided implements transport.Link.
func (p *Pool) WriteOneSided(now sim.Time, addr uint64, buf []byte) (sim.Time, error) {
	segs, err := p.route(addr, len(buf))
	if err != nil {
		return now, err
	}
	done := now
	for _, s := range segs {
		d, err := p.writeSegment(now, s, buf[s.at:s.at+s.n])
		if err != nil {
			return now, err
		}
		if d > done {
			done = d
		}
	}
	return done, nil
}

// GatherTwoSided implements transport.Link: pieces are routed to their
// serving nodes and batched into one two-sided message per node, so a
// gather spanning the cluster pays one RPC per involved link — in
// parallel. A node whose batch fails (or turns out wiped) falls back to
// per-segment reads with full failover. The reply is the pool's, valid
// until the next call on the pool.
func (p *Pool) GatherTwoSided(now sim.Time, addrs []uint64, sizes []int) ([]byte, sim.Time, error) {
	return p.gatherVec(now, addrs, sizes, false)
}

// GatherOneSided implements transport.Link: the same placement-aware
// splitting as GatherTwoSided, but each node's share travels as one
// doorbell-batched chain of one-sided reads. A gather spanning the cluster
// still pays one message per involved link.
func (p *Pool) GatherOneSided(now sim.Time, addrs []uint64, sizes []int) ([]byte, sim.Time, error) {
	return p.gatherVec(now, addrs, sizes, true)
}

// gatherScratch is what one gatherVec call works in, kept on the pool so a
// warm gather allocates nothing. out is the reply of a gather split across
// nodes: like a single transport's it belongs to the link and is
// overwritten by the next gather.
type gatherScratch struct {
	segs   []seg
	chosen []int    // serving home index per segment
	byNode [][]int  // node -> indices into segs, in request order
	addrs  []uint64 // the vectors of the node message being issued
	sizes  []int
	out    []byte
}

// gatherVec routes pieces to their serving nodes and issues one vectored
// message per node — two-sided or doorbell-batched one-sided — in ascending
// node order, so the issue sequence is deterministic. Failover and stale
// handling are identical for both flavors. Each node's reply is copied into
// the pool's own before the next message goes out (a node link's reply does
// not outlive the next call on that link, and the per-segment fallback makes
// such calls) — unless one message carried the whole gather: its reply is
// handed on as it is, valid until the next call on that link, so on the
// pool.
func (p *Pool) gatherVec(now sim.Time, addrs []uint64, sizes []int, oneSided bool) ([]byte, sim.Time, error) {
	g := &p.gather
	total := 0
	segs := g.segs[:0]
	p.mu.Lock()
	for i, a := range addrs {
		first := len(segs)
		var err error
		segs, err = p.segments(segs, a, sizes[i])
		if err != nil {
			p.mu.Unlock()
			return nil, now, err
		}
		for j := first; j < len(segs); j++ {
			segs[j].at += total
		}
		total += sizes[i]
	}
	p.mu.Unlock()
	g.segs = segs

	if total > cap(g.out) {
		g.out = make([]byte, total)
	}
	out := g.out[:total]
	for node := range g.byNode {
		g.byNode[node] = g.byNode[node][:0]
	}
	chosen := g.chosen[:0]
	for i, s := range segs {
		hi, err := p.chooseHome(now, s.entry.Homes)
		if err != nil {
			return nil, now, fmt.Errorf("cluster: gather [%#x,+%d): every home wiped or dark: %w",
				s.entry.VBase+s.off, s.n, err)
		}
		chosen = append(chosen, hi)
		node := s.entry.Homes[hi].Node
		g.byNode[node] = append(g.byNode[node], i)
	}
	g.chosen = chosen

	done := now
	for node, idxs := range g.byNode {
		if len(idxs) == 0 {
			continue
		}
		na, ns := g.addrs[:0], g.sizes[:0]
		for _, i := range idxs {
			s := segs[i]
			na = append(na, s.entry.Homes[chosen[i]].Base+s.off)
			ns = append(ns, s.n)
		}
		g.addrs, g.sizes = na, ns
		var data []byte
		var d sim.Time
		var err error
		if oneSided {
			data, d, err = p.nodes[node].link.GatherOneSided(now, na, ns)
		} else {
			data, d, err = p.nodes[node].link.GatherTwoSided(now, na, ns)
		}
		if err == nil && p.isStale(node) {
			err = errStale // wipe fired during the batch: zeros under valid CRC
		}
		if err != nil {
			// Batched path failed — recover piece by piece with failover.
			for _, i := range idxs {
				s := segs[i]
				d2, err2 := p.readSegment(now, s, out[s.at:s.at+s.n])
				if err2 != nil {
					return nil, now, err2
				}
				if d2 > done {
					done = d2
				}
			}
			continue
		}
		// One message that carries every piece, in request order, replies
		// with the gather's bytes: they stay where the link put them.
		whole := len(idxs) == len(segs)
		off := 0
		for _, i := range idxs {
			s := segs[i]
			if !whole {
				copy(out[s.at:s.at+s.n], data[off:off+s.n])
			}
			off += s.n
			primary := s.entry.Homes[0].Node
			p.noteRead(now, node, s.n, node != primary, primary)
		}
		if whole {
			out = data
		}
		if d > done {
			done = d
		}
	}
	return out, done, nil
}

// ScatterTwoSided implements transport.Link: every piece is replicated to
// all its homes, batched into one two-sided message per node. A segment
// whose every home refused its batch is retried through the one-sided
// fan-out before the scatter fails.
func (p *Pool) ScatterTwoSided(now sim.Time, addrs []uint64, pieces [][]byte) (sim.Time, error) {
	return p.scatterVec(now, addrs, pieces, false)
}

// ScatterWrite implements transport.Link: placement-aware splitting like
// ScatterTwoSided, but each node's share travels as one doorbell-batched
// chain of one-sided writes — the pool-wide vehicle of the runtime's
// coalesced write-back drain. Replication, staleness marking, and the
// per-segment retry are identical to the two-sided flavor.
func (p *Pool) ScatterWrite(now sim.Time, addrs []uint64, pieces [][]byte) (sim.Time, error) {
	return p.scatterVec(now, addrs, pieces, true)
}

// scatterScratch is what one scatterVec call works in, kept on the pool so
// a warm scatter allocates nothing.
type scatterScratch struct {
	segs   []seg
	data   [][]byte         // the caller's bytes of each segment
	landed []int            // homes that accepted each segment
	byNode [][]scatterPiece // node -> its copies of segments, in request order
	addrs  []uint64         // the vectors of the node message being issued
	pieces [][]byte
	failed []int // nodes that refused their batch
}

// scatterPiece is one home's copy of a segment: its index and the address
// on that home.
type scatterPiece struct {
	seg  int
	addr uint64
}

// scatterVec replicates every piece to all its homes, one vectored message
// per node in ascending node order, two-sided or doorbell-batched one-sided.
func (p *Pool) scatterVec(now sim.Time, addrs []uint64, pieces [][]byte, oneSided bool) (sim.Time, error) {
	sc := &p.scatter
	segs, data := sc.segs[:0], sc.data[:0]
	p.mu.Lock()
	for i, a := range addrs {
		first := len(segs)
		var err error
		segs, err = p.segments(segs, a, len(pieces[i]))
		if err != nil {
			p.mu.Unlock()
			return now, err
		}
		for _, s := range segs[first:] {
			data = append(data, pieces[i][s.at:s.at+s.n])
		}
	}
	p.mu.Unlock()
	sc.segs, sc.data = segs, data

	for node := range sc.byNode {
		sc.byNode[node] = sc.byNode[node][:0]
	}
	landed := sc.landed[:0]
	for i, s := range segs {
		landed = append(landed, 0)
		for _, h := range s.entry.Homes {
			sc.byNode[h.Node] = append(sc.byNode[h.Node], scatterPiece{seg: i, addr: h.Base + s.off})
		}
	}
	sc.landed = landed

	done := now
	failed := sc.failed[:0]
	for node, mine := range sc.byNode {
		if len(mine) == 0 {
			continue
		}
		na, np := sc.addrs[:0], sc.pieces[:0]
		for _, pc := range mine {
			na = append(na, pc.addr)
			np = append(np, data[pc.seg])
		}
		sc.addrs, sc.pieces = na, np
		var d sim.Time
		var err error
		if oneSided {
			d, err = p.nodes[node].link.ScatterWrite(now, na, np)
		} else {
			d, err = p.nodes[node].link.ScatterTwoSided(now, na, np)
		}
		if err != nil {
			failed = append(failed, node)
			continue
		}
		for _, pc := range mine {
			landed[pc.seg]++
			p.noteWrite(node, segs[pc.seg].n)
		}
		if d > done {
			done = d
		}
	}
	sc.failed = failed
	for i, s := range segs {
		if landed[i] > 0 {
			continue
		}
		d, err := p.writeSegment(now, s, data[i])
		if err != nil {
			return now, err
		}
		if d > done {
			done = d
		}
	}
	// Nodes that refused their batch missed writes their peers accepted:
	// stale until re-synced.
	for _, node := range failed {
		p.markStale(node)
	}
	return done, nil
}

// Call implements transport.Link. Offloaded procedures are registered on
// every node; the pool routes the RPC itself to node 0 (the runtime's
// offload engine moves operand bytes via the placement-aware data path, so
// the RPC control message is the only node-0 affinity).
func (p *Pool) Call(now sim.Time, name string, args []byte) ([]byte, sim.Time, error) {
	return p.nodes[0].link.Call(now, name, args)
}

// Flush implements transport.Link: applies every pending memory wipe (so
// "who is stale" has a deterministic answer), drains every node's overlay
// queue, then re-syncs wiped nodes from healthy replicas. Completion is
// the max across nodes and the re-sync copies.
func (p *Pool) Flush(now sim.Time) (sim.Time, error) {
	for _, n := range p.nodes {
		if n.inj != nil {
			n.inj.Sync(now)
		}
	}
	done := now
	var firstErr error
	for _, n := range p.nodes {
		d, err := n.link.Flush(now)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if d > done {
			done = d
		}
	}
	if d := p.resyncStale(now); d > done {
		done = d
	}
	return done, firstErr
}

// BreakerOpen implements transport.Link: the pool reports degraded when
// ANY node's breaker is open. Conservative — the caches switch to local
// write-allocate even for sections homed on healthy nodes — but safe, and
// a single dark node is exactly when write pressure must stay local.
func (p *Pool) BreakerOpen(now sim.Time) bool {
	for _, n := range p.nodes {
		if n.link.BreakerOpen(now) {
			return true
		}
	}
	return false
}

// Stats implements transport.Link: the per-node transport counters summed.
func (p *Pool) Stats() transport.Stats {
	var sum transport.Stats
	for _, n := range p.nodes {
		sum.Add(n.link.Stats())
	}
	return sum
}

// BytesMoved implements transport.Link: total bytes across every link.
func (p *Pool) BytesMoved() int64 {
	var sum int64
	for _, n := range p.nodes {
		sum += n.link.BytesMoved()
	}
	return sum
}

// Messages implements transport.Link: total transfers across every link.
func (p *Pool) Messages() int64 {
	var sum int64
	for _, n := range p.nodes {
		sum += n.link.Messages()
	}
	return sum
}

// Failovers returns the pool-wide count of reads served by a replica
// because the primary was dark, wiped, or erroring.
func (p *Pool) Failovers() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum int64
	for _, n := range p.nodes {
		sum += n.stats.Failovers
	}
	return sum
}
