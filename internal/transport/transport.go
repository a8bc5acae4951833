// Package transport glues the cost model (netmodel), the shared link
// (netmodel.Bandwidth), and the far-memory node (farmem) into the operations
// the cache layers issue: one-sided reads/writes, two-sided gather/scatter,
// batched messages, and offload RPCs. Every operation returns the virtual
// completion instant so callers can either block (demand miss) or continue
// (prefetch, async write-back).
//
// The transport is resilient: the far node and the interconnect are
// independent failure domains (the fault injector in internal/faults can
// delay, drop, corrupt, or partition any transfer), so every operation runs
// under a Policy — a per-attempt deadline, bounded retries with exponential
// backoff and deterministic jitter (all latency charged to the virtual
// clock), end-to-end checksums on read payloads, and a circuit breaker that
// trips after consecutive failures. While the breaker is open the transport
// degrades gracefully: write-backs are queued locally (and served back to
// readers — the queue is a consistent overlay over far memory), reads of
// unqueued data wait out the cooldown in virtual time and probe half-open,
// and callers that exhaust the retry budget receive ErrFarUnavailable.
package transport

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"mira/internal/codec"
	"mira/internal/farmem"
	"mira/internal/netmodel"
	"mira/internal/sim"
	"mira/internal/trace"
)

// Policy tunes the transport's failure handling. The zero value disables
// resilience entirely (one attempt, no deadline, no breaker) — what the
// pre-fault-model transport did.
type Policy struct {
	// MaxAttempts bounds tries per operation (minimum 1).
	MaxAttempts int
	// BaseBackoff is the first retry's backoff; attempt k waits
	// roughly BaseBackoff<<k, halved and re-filled with deterministic
	// jitter, capped at MaxBackoff. Zero disables backoff.
	BaseBackoff sim.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff sim.Duration
	// DeadlineBase and DeadlineMult set the per-attempt deadline as
	// DeadlineBase + DeadlineMult*expected(op): injected delay beyond the
	// slack turns into ErrTimeout and a retry. DeadlineBase <= 0 disables
	// deadlines (queueing on the shared link never counts against the
	// deadline — only injected delay does, so contention cannot cause
	// spurious timeouts).
	DeadlineBase sim.Duration
	DeadlineMult float64
	// BreakerThreshold is the consecutive-failure count that trips the
	// circuit breaker (0 disables it).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before allowing
	// a half-open probe.
	BreakerCooldown sim.Duration
	// JitterSeed seeds the deterministic backoff jitter stream.
	JitterSeed uint64
}

// DefaultPolicy is calibrated for the default netmodel: microsecond-scale
// ops, retry budgets that ride out short fault windows, and a breaker that
// trips quickly so a dead node costs bounded probe traffic.
func DefaultPolicy() Policy {
	return Policy{
		MaxAttempts:      6,
		BaseBackoff:      2 * sim.Microsecond,
		MaxBackoff:       256 * sim.Microsecond,
		DeadlineBase:     25 * sim.Microsecond,
		DeadlineMult:     4,
		BreakerThreshold: 3,
		BreakerCooldown:  150 * sim.Microsecond,
		JitterSeed:       0x6d697261,
	}
}

// RecoveryPolicy returns a policy able to ride out crash/partition windows
// lasting a sizable fraction of the given run horizon (the named fault
// schedules place windows at thirds of the measured fault-free run time).
// The deadline is tight — only injected delay counts against it, so silent
// crash-window failures are detected quickly and the retry budget spans the
// window — and the breaker cooldown scales with the horizon so an open
// breaker costs bounded probe traffic even on millisecond-scale runs.
func RecoveryPolicy(horizon sim.Duration) Policy {
	p := DefaultPolicy()
	p.MaxAttempts = 64
	p.DeadlineBase = 5 * sim.Microsecond
	p.DeadlineMult = 1
	p.MaxBackoff = 32 * sim.Microsecond
	if p.BreakerCooldown < horizon/16 {
		p.BreakerCooldown = horizon / 16
	}
	return p
}

// Stats counts the transport's resilience events. Retries/Timeouts/
// BreakerTrips/DegradedTime are the headline robustness metrics the harness
// and profiler report.
type Stats struct {
	Ops               int64
	Failures          int64        // failed attempts, all causes
	Retries           int64        // attempts after the first
	Timeouts          int64        // attempts that blew the deadline
	Corruptions       int64        // checksum mismatches detected
	BreakerTrips      int64        // times the breaker (re)armed its open window
	GaveUp            int64        // ops that exhausted the retry budget
	QueuedWritebacks  int64        // writes queued locally while the breaker was open
	DrainedWritebacks int64        // queued writes later pushed to the node
	DroppedWritebacks int64        // queued writes refused permanently by the node
	DegradedReads     int64        // reads served from the local write-back queue
	DegradedTime      sim.Duration // virtual time stalled waiting for the breaker to half-open
	BackoffTime       sim.Duration // virtual time spent in retry backoff

	// Vectored-I/O counters: doorbell-batched gathers/scatters issued, the
	// pieces they carried, and a histogram of batch sizes (bucket i counts
	// batches of 2^i .. 2^(i+1)-1 pieces; the last bucket is open-ended).
	Batches       int64
	BatchedPieces int64
	BatchHist     [BatchHistBuckets]int64

	// Wire-codec counters (zero unless a codec is installed): successful
	// ops whose payload shipped encoded, and the raw-minus-encoded bytes
	// the codec kept off the wire. BytesMoved counts encoded (wire) bytes,
	// so effective bytes = BytesMoved + WireSaved.
	CodecOps  int64
	WireSaved int64
}

// BatchHistBuckets is the number of power-of-two batch-size histogram
// buckets in Stats.BatchHist.
const BatchHistBuckets = 8

// batchBucket maps a piece count to its BatchHist bucket.
func batchBucket(n int) int {
	b := 0
	for n > 1 && b < BatchHistBuckets-1 {
		n >>= 1
		b++
	}
	return b
}

// Add accumulates o into s — the one place that must know every counter, so
// multi-link aggregation (cluster pools) cannot silently drop new fields.
func (s *Stats) Add(o Stats) {
	s.Ops += o.Ops
	s.Failures += o.Failures
	s.Retries += o.Retries
	s.Timeouts += o.Timeouts
	s.Corruptions += o.Corruptions
	s.BreakerTrips += o.BreakerTrips
	s.GaveUp += o.GaveUp
	s.QueuedWritebacks += o.QueuedWritebacks
	s.DrainedWritebacks += o.DrainedWritebacks
	s.DroppedWritebacks += o.DroppedWritebacks
	s.DegradedReads += o.DegradedReads
	s.DegradedTime += o.DegradedTime
	s.BackoffTime += o.BackoffTime
	s.Batches += o.Batches
	s.BatchedPieces += o.BatchedPieces
	for i := range s.BatchHist {
		s.BatchHist[i] += o.BatchHist[i]
	}
	s.CodecOps += o.CodecOps
	s.WireSaved += o.WireSaved
}

// T is a transport endpoint on the compute node.
type T struct {
	Node *farmem.Node
	Cfg  netmodel.Config
	BW   *netmodel.Bandwidth

	be  Backend
	pol Policy

	mu          sync.Mutex
	rng         *sim.RNG
	consecFails int
	open        bool
	openUntil   sim.Time
	// wireCodec, when not None, makes every data payload ship in encoded
	// form: bandwidth is charged for the encoded bytes and the codec CPU
	// time (wireCost) is added to the op's completion. Data at rest on the
	// far node stays raw — the end-to-end checksum covers the decoded
	// bytes, so injected bit flips are caught exactly as without a codec.
	wireCodec codec.ID
	wireCost  codec.CostModel
	queued    map[uint64][]byte
	// queuedAddrs mirrors queued's keys in ascending order, maintained
	// incrementally on enqueue/dequeue so the drain and overlay-read paths
	// never rebuild and re-sort the key set.
	queuedAddrs []uint64
	// overlayReply is the buffer a gather served wholly from the overlay is
	// assembled in (gatherQueued); like the far node's reply it is
	// overwritten by the next such gather.
	overlayReply []byte
	stats        Stats

	// Tracing (all nil when disabled — every use is nil-safe).
	trc       *trace.Buffer
	cOps      *trace.Counter
	cRetries  *trace.Counter
	cTimeouts *trace.Counter
	cTrips    *trace.Counter
	cDegraded *trace.Counter
	hBatch    *trace.Histogram
}

// New builds a transport over node with the given cost model and the
// default resilience policy.
func New(node *farmem.Node, cfg netmodel.Config) *T {
	return NewWithPolicy(node, cfg, DefaultPolicy())
}

// NewWithPolicy builds a transport with an explicit resilience policy.
func NewWithPolicy(node *farmem.Node, cfg netmodel.Config, pol Policy) *T {
	return &T{
		Node:     node,
		Cfg:      cfg,
		BW:       netmodel.NewBandwidth(cfg),
		be:       nodeBackend{node: node},
		pol:      pol,
		rng:      sim.NewRNG(pol.JitterSeed),
		wireCost: codec.DefaultCostModel(),
		queued:   make(map[uint64][]byte),
	}
}

// SetWireCodec selects the wire codec for subsequent data operations (None
// disables it — the zero-cost default). The runtime flips it per section
// around each remote op, so per-section compression rides one shared link.
func (t *T) SetWireCodec(id codec.ID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wireCodec = id
}

// WireCodec reports the active wire codec.
func (t *T) WireCodec() codec.ID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wireCodec
}

// SetCodecCost replaces the codec CPU cost model.
func (t *T) SetCodecCost(m codec.CostModel) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wireCost = m
}

// wireLen reports the bytes payload occupies on the wire under the active
// codec and the codec CPU time (far-side encode + near-side decode) to add
// to the op's completion, updating the codec counters. Callers invoke it
// exactly once per successful op, after every failure check, so retries do
// not double-count. With no codec installed it is the identity: raw length,
// zero time, zero counter traffic.
func (t *T) wireLen(payload []byte) (int, sim.Duration) {
	t.mu.Lock()
	id, m := t.wireCodec, t.wireCost
	t.mu.Unlock()
	if id == codec.None {
		return len(payload), 0
	}
	w := codec.EncodedLen(id, payload)
	t.mu.Lock()
	t.stats.CodecOps++
	t.stats.WireSaved += int64(len(payload) - w)
	t.mu.Unlock()
	return w, m.EncodeCost(len(payload)) + m.DecodeCost(len(payload))
}

// wireLenVec is wireLen over a concatenated vectored payload: each piece is
// encoded independently (vectored messages carry per-piece encoded sizes
// and codec IDs), so a compressible line never pays for an incompressible
// neighbor in the same doorbell batch.
func (t *T) wireLenVec(data []byte, sizes []int) (int, sim.Duration) {
	t.mu.Lock()
	id, m := t.wireCodec, t.wireCost
	t.mu.Unlock()
	if id == codec.None {
		return len(data), 0
	}
	total, raw, off := 0, 0, 0
	for _, s := range sizes {
		total += codec.EncodedLen(id, data[off:off+s])
		raw += s
		off += s
	}
	t.mu.Lock()
	t.stats.CodecOps++
	t.stats.WireSaved += int64(raw - total)
	t.mu.Unlock()
	return total, m.EncodeCost(raw) + m.DecodeCost(raw)
}

// wireLenPieces is wireLenVec for scatter-shaped payloads.
func (t *T) wireLenPieces(pieces [][]byte) (int, sim.Duration) {
	t.mu.Lock()
	id, m := t.wireCodec, t.wireCost
	t.mu.Unlock()
	if id == codec.None {
		n := 0
		for _, p := range pieces {
			n += len(p)
		}
		return n, 0
	}
	total, raw := 0, 0
	for _, p := range pieces {
		total += codec.EncodedLen(id, p)
		raw += len(p)
	}
	t.mu.Lock()
	t.stats.CodecOps++
	t.stats.WireSaved += int64(raw - total)
	t.mu.Unlock()
	return total, m.EncodeCost(raw) + m.DecodeCost(raw)
}

// SetBackend interposes a different far-node backend — the fault injector's
// hook point.
func (t *T) SetBackend(be Backend) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.be = be
}

// Backend returns the current backend.
func (t *T) Backend() Backend {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.be
}

// SetPolicy replaces the resilience policy (and reseeds the jitter stream).
func (t *T) SetPolicy(pol Policy) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pol = pol
	t.rng = sim.NewRNG(pol.JitterSeed)
}

// Policy returns the active resilience policy.
func (t *T) Policy() Policy { return t.pol }

// SetTrace attaches this link to a tracer: op spans, retry and breaker
// events go to the buffer named buf ("net" for the single link, "net.nodeI"
// per cluster member), counters and the batch-size histogram to the
// registry. The histogram carries the same distribution as Stats.BatchHist
// but with the registry's full bucket range. A nil tracer disables tracing.
func (t *T) SetTrace(tr *trace.Tracer, buf string) {
	if tr == nil {
		return
	}
	reg := tr.Registry()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trc = tr.Buffer(buf)
	lbl := "{link=" + buf + "}"
	t.cOps = reg.Counter("net.ops" + lbl)
	t.cRetries = reg.Counter("net.retries" + lbl)
	t.cTimeouts = reg.Counter("net.timeouts" + lbl)
	t.cTrips = reg.Counter("net.breaker.trips" + lbl)
	t.cDegraded = reg.Counter("net.degraded.reads" + lbl)
	t.hBatch = reg.Histogram("net.batch.pieces")
}

// Stats returns a snapshot of the resilience counters.
func (t *T) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// BreakerOpen reports whether the circuit breaker is open (pre-cooldown) at
// the given instant. The cache layers consult it to switch into degraded
// mode — e.g. write-allocating full lines locally instead of stalling on a
// fetch that cannot succeed.
func (t *T) BreakerOpen(now sim.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open && now < t.openUntil
}

// PendingWritebacks reports how many degraded-mode writes are queued
// locally, awaiting a drain to the far node.
func (t *T) PendingWritebacks() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.queued)
}

// DropQueued discards every queued degraded-mode write-back without pushing
// it to the node, returning how many were dropped (counted as
// DroppedWritebacks). Callers use this when the queued data is known
// obsolete — e.g. the far node lost its memory and is being restored from a
// replica whose copy already includes everything the queue holds; draining
// the queue afterwards would overwrite the restored bytes with stale ones.
func (t *T) DropQueued() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.queued)
	for addr := range t.queued {
		delete(t.queued, addr)
	}
	t.queuedAddrs = t.queuedAddrs[:0]
	t.stats.DroppedWritebacks += int64(n)
	return n
}

// supersedeRange reconciles the overlay with a direct write that just
// landed on the node: queued entries fully inside [addr, addr+len(data))
// are dropped and partially overlapping ones are patched with the fresher
// bytes. Queued entries are always older than a direct write that lands
// later (degraded-mode writes replace per address), and the next successful
// op drains the queue — without this a stale queued line would be replayed
// over the fresher bytes. Entries can differ in granularity from the
// superseding write (a queued read-repair line vs a coalesced multi-line
// write-back piece), hence range reconciliation, not address matching.
func (t *T) supersedeRange(addr uint64, data []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.queued) == 0 {
		return
	}
	end := addr + uint64(len(data))
	var drop []uint64
	for _, k := range t.queuedAddrs {
		if k >= end {
			break
		}
		d := t.queued[k]
		ke := k + uint64(len(d))
		if ke <= addr {
			continue
		}
		if k >= addr && ke <= end {
			drop = append(drop, k)
			continue
		}
		lo, hi := k, ke
		if addr > lo {
			lo = addr
		}
		if end < hi {
			hi = end
		}
		copy(d[lo-k:hi-k], data[lo-addr:hi-addr])
	}
	for _, k := range drop {
		t.dequeueLocked(k)
	}
}

// latencyOneSided is OneSidedCost minus the wire time, which the bandwidth
// accountant charges separately (so concurrent threads contend for the wire
// but not for latency).
func (t *T) latencyOneSided(n int) sim.Duration {
	return t.Cfg.OneSidedCost(n) - t.Cfg.WireTime(n)
}

func (t *T) latencyTwoSided(n int) sim.Duration {
	return t.Cfg.TwoSidedCost(n) - t.Cfg.WireTime(n)
}

// deadline is the per-attempt completion budget for an op whose fault-free
// cost is base. Zero means deadlines are disabled.
func (t *T) deadline(base sim.Duration) sim.Duration {
	if t.pol.DeadlineBase <= 0 {
		return 0
	}
	mult := t.pol.DeadlineMult
	if mult < 1 {
		mult = 1
	}
	return t.pol.DeadlineBase + sim.Duration(float64(base)*mult)
}

// timedOut reports whether injected delay pushes an attempt past its
// deadline.
func (t *T) timedOut(base, extra sim.Duration) bool {
	d := t.deadline(base)
	if d <= 0 {
		return false
	}
	if base+extra > d {
		t.bump(&t.stats.Timeouts)
		t.cTimeouts.Inc()
		return true
	}
	return false
}

func (t *T) bump(field *int64) {
	t.mu.Lock()
	*field++
	t.mu.Unlock()
}

// resilient runs one operation under the retry/backoff/breaker policy.
// op names the operation class for tracing. attempt must charge bandwidth
// only on success; rtt is the op class's NACK-detection latency; base its
// fault-free cost (deadline basis). degraded, when non-nil, is consulted
// while the breaker is open (writes queue locally through it); returning
// ok=true completes the op without the network. Permanent errors return
// immediately with the caller's own `now` — a refused operation charges
// neither time nor bandwidth.
func (t *T) resilient(op string, now sim.Time, rtt, base sim.Duration,
	attempt func(at sim.Time) (sim.Time, error),
	degraded func(at sim.Time) (sim.Time, bool)) (sim.Time, error) {

	t.bump(&t.stats.Ops)
	t.cOps.Inc()
	attempts := t.pol.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	at := now
	var lastErr error
	for a := 0; a < attempts; a++ {
		if degraded != nil && t.BreakerOpen(at) {
			if end, ok := degraded(at); ok {
				t.trc.Span(now, end, "net", op, trace.S("mode", "degraded"))
				return end, nil
			}
		}
		at = t.breakerWait(at)
		end, err := attempt(at)
		if err == nil {
			t.noteSuccess(at)
			if a == 0 {
				t.trc.Span(now, end, "net", op)
			} else {
				t.trc.Span(now, end, "net", op, trace.I("retries", int64(a)))
			}
			return end, nil
		}
		if !IsTransient(err) {
			return now, err
		}
		lastErr = err
		retrying := a < attempts-1
		if retrying {
			t.bump(&t.stats.Retries)
			t.cRetries.Inc()
		}
		at = t.noteFailure(at, a, rtt, base, err)
		if retrying {
			t.trc.Instant(at, "net", op+".retry", trace.I("attempt", int64(a+1)))
		}
	}
	t.bump(&t.stats.GaveUp)
	return at, fmt.Errorf("%w after %d attempts (last: %v)", ErrFarUnavailable, attempts, lastErr)
}

// breakerWait blocks (in virtual time) until the breaker's cooldown has
// elapsed, making the caller the half-open probe.
func (t *T) breakerWait(at sim.Time) sim.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.open && at < t.openUntil {
		t.stats.DegradedTime += t.openUntil.Sub(at)
		at = t.openUntil
	}
	return at
}

// noteFailure charges the failure's detection latency and backoff to the
// attempt timeline and updates the breaker.
func (t *T) noteFailure(at sim.Time, a int, rtt, base sim.Duration, err error) sim.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Failures++
	switch {
	case errors.Is(err, ErrCorrupt):
		// The transfer completed and then failed the checksum.
		at = at.Add(base)
	case errors.Is(err, ErrTimeout):
		at = at.Add(t.deadline(base))
	default:
		var ne NackError
		if errors.As(err, &ne) && ne.Nack() {
			at = at.Add(rtt) // explicit failure reply after one round trip
		} else if d := t.deadline(base); d > 0 {
			at = at.Add(d) // silence: wait out the deadline
		} else {
			at = at.Add(rtt)
		}
	}
	if t.pol.BaseBackoff > 0 {
		d := t.pol.BaseBackoff
		if a < 30 {
			d <<= uint(a)
		} else {
			d = t.pol.MaxBackoff
		}
		if t.pol.MaxBackoff > 0 && (d <= 0 || d > t.pol.MaxBackoff) {
			d = t.pol.MaxBackoff
		}
		half := d / 2
		b := half
		if half > 0 {
			b += sim.Duration(t.rng.Uint64() % uint64(half+1))
		}
		t.stats.BackoffTime += b
		at = at.Add(b)
	}
	t.consecFails++
	if t.pol.BreakerThreshold > 0 && t.consecFails >= t.pol.BreakerThreshold {
		t.open = true
		t.openUntil = at.Add(t.pol.BreakerCooldown)
		t.stats.BreakerTrips++
		t.cTrips.Inc()
		t.trc.Instant(at, "net", "breaker.open",
			trace.I("until_ns", int64(t.openUntil)))
	}
	return at
}

// noteSuccess closes the breaker and drains any queued write-backs.
func (t *T) noteSuccess(at sim.Time) {
	t.mu.Lock()
	wasOpen := t.open
	t.consecFails = 0
	t.open = false
	n := len(t.queued)
	t.mu.Unlock()
	if wasOpen {
		t.trc.Instant(at, "net", "breaker.close")
	}
	if n > 0 {
		t.drainOnce(at)
	}
}

// enqueueWrite queues a degraded-mode write locally. The queue is an
// overlay over far memory: reads consult it first, so queued data stays
// visible. Entries never overlap: a new write patches the overlapping bytes
// of existing entries in place (it is fresher) and inserts only the
// uncovered gaps. Writers mix granularities at the same addresses — a
// coalesced multi-line write-back vs a single read-repair line — so
// anything keyed purely by address would let an older entry shadow part of
// a newer one at drain time.
func (t *T) enqueueWrite(addr uint64, data []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.QueuedWritebacks++
	end := addr + uint64(len(data))
	cur := addr
	type gap struct{ lo, hi uint64 }
	var gaps []gap
	for _, k := range t.queuedAddrs {
		if k >= end {
			break
		}
		d := t.queued[k]
		ke := k + uint64(len(d))
		if ke <= addr {
			continue
		}
		lo, hi := k, ke
		if addr > lo {
			lo = addr
		}
		if end < hi {
			hi = end
		}
		copy(d[lo-k:hi-k], data[lo-addr:hi-addr])
		if lo > cur {
			gaps = append(gaps, gap{cur, lo})
		}
		if hi > cur {
			cur = hi
		}
	}
	if cur < end {
		gaps = append(gaps, gap{cur, end})
	}
	for _, g := range gaps {
		cp := make([]byte, g.hi-g.lo)
		copy(cp, data[g.lo-addr:g.hi-addr])
		t.insertQueuedLocked(g.lo, cp)
	}
}

// insertQueuedLocked adds a fresh entry to the overlay map and its sorted
// key mirror. Callers guarantee the range does not overlap any existing
// entry.
func (t *T) insertQueuedLocked(addr uint64, cp []byte) {
	if _, exists := t.queued[addr]; !exists {
		i := sort.Search(len(t.queuedAddrs), func(i int) bool { return t.queuedAddrs[i] >= addr })
		t.queuedAddrs = append(t.queuedAddrs, 0)
		copy(t.queuedAddrs[i+1:], t.queuedAddrs[i:])
		t.queuedAddrs[i] = addr
	}
	t.queued[addr] = cp
}

// dequeueLocked removes addr from the overlay map and its sorted key mirror.
func (t *T) dequeueLocked(addr uint64) {
	if _, exists := t.queued[addr]; !exists {
		return
	}
	delete(t.queued, addr)
	i := sort.Search(len(t.queuedAddrs), func(i int) bool { return t.queuedAddrs[i] >= addr })
	if i < len(t.queuedAddrs) && t.queuedAddrs[i] == addr {
		t.queuedAddrs = append(t.queuedAddrs[:i], t.queuedAddrs[i+1:]...)
	}
}

// overlayReadLocked copies every queued byte overlapping [addr,
// addr+len(buf)) into buf and reports whether the whole range was covered.
// Iteration is over the sorted key mirror: map order must never decide
// which entry serves a read, or degraded-mode replays stop being
// byte-stable.
func (t *T) overlayReadLocked(addr uint64, buf []byte) (covered bool) {
	end := addr + uint64(len(buf))
	cur := addr
	full := len(t.queuedAddrs) > 0
	for _, k := range t.queuedAddrs {
		if k >= end {
			break
		}
		d := t.queued[k]
		ke := k + uint64(len(d))
		if ke <= addr {
			continue
		}
		lo, hi := k, ke
		if addr > lo {
			lo = addr
		}
		if end < hi {
			hi = end
		}
		copy(buf[lo-addr:hi-addr], d[lo-k:hi-k])
		if lo > cur {
			full = false
		}
		if hi > cur {
			cur = hi
		}
	}
	return full && cur >= end
}

// serveQueued serves [addr, addr+len(buf)) from the write-back overlay if
// queued entries cover all of it. Partially covering entries leave their
// bytes in buf; callers that fall through to the network overwrite buf
// wholesale and must re-patch afterwards.
func (t *T) serveQueued(addr uint64, buf []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.queued) == 0 {
		return false
	}
	if t.overlayReadLocked(addr, buf) {
		t.stats.DegradedReads++
		t.cDegraded.Inc()
		return true
	}
	return false
}

// sortedQueuedAddrs snapshots the overlay keys in deterministic order. The
// sorted mirror is maintained incrementally, so this is a copy, not a
// rebuild-and-sort.
func (t *T) sortedQueuedAddrs() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]uint64(nil), t.queuedAddrs...)
}

// drainOnce replays queued write-backs through the backend, stopping at the
// first transient failure (the node flapped; the breaker re-arms via the
// failing op). Write-backs are asynchronous, so drained entries charge
// bandwidth but do not extend any caller's completion.
func (t *T) drainOnce(at sim.Time) {
	for _, addr := range t.sortedQueuedAddrs() {
		t.mu.Lock()
		data, ok := t.queued[addr]
		t.mu.Unlock()
		if !ok {
			continue
		}
		_, err := t.be.Write(at, addr, data)
		if err == nil {
			wlen, _ := t.wireLen(data) // async drain: bandwidth only, no caller timeline
			t.BW.Acquire(at, wlen)
			t.mu.Lock()
			t.dequeueLocked(addr)
			t.stats.DrainedWritebacks++
			t.mu.Unlock()
			continue
		}
		if !IsTransient(err) {
			t.mu.Lock()
			t.dequeueLocked(addr)
			t.stats.DroppedWritebacks++
			t.mu.Unlock()
			continue
		}
		t.noteFailure(at, 0, t.Cfg.OneSidedRTT, t.Cfg.OneSidedCost(len(data)), err)
		return
	}
}

// Flush forces every queued degraded-mode write-back out to the far node,
// waiting out the breaker in virtual time and retrying under the policy.
// It returns the completion instant of the last drained write. Callers that
// read far memory directly (DumpObject) must Flush first.
func (t *T) Flush(now sim.Time) (sim.Time, error) {
	last := now
	for {
		addrs := t.sortedQueuedAddrs()
		if len(addrs) == 0 {
			return last, nil
		}
		addr := addrs[0]
		t.mu.Lock()
		data, ok := t.queued[addr]
		t.dequeueLocked(addr)
		t.mu.Unlock()
		if !ok {
			continue
		}
		base := t.Cfg.OneSidedCost(len(data))
		end, err := t.resilient("flush.writeback", now, t.Cfg.OneSidedRTT, base, func(at sim.Time) (sim.Time, error) {
			extra, err := t.be.Write(at, addr, data)
			if err != nil {
				return 0, err
			}
			if t.timedOut(base, extra) {
				return 0, ErrTimeout
			}
			wlen, cpu := t.wireLen(data)
			wireEnd := t.BW.Acquire(at, wlen)
			return wireEnd.Add(t.latencyOneSided(len(data))).Add(extra).Add(cpu), nil
		}, nil)
		if err != nil {
			t.enqueueWrite(addr, data)
			t.mu.Lock()
			t.stats.QueuedWritebacks-- // re-queue of a failed flush, not a new write-back
			t.mu.Unlock()
			return last, fmt.Errorf("transport: flush of queued write-back %#x: %w", addr, err)
		}
		t.bump(&t.stats.DrainedWritebacks)
		if end > last {
			last = end
		}
	}
}

// ReadOneSided fetches len(buf) bytes at far address addr starting at now,
// returning the completion instant. The payload carries an end-to-end
// checksum; corruption is detected and retried.
func (t *T) ReadOneSided(now sim.Time, addr uint64, buf []byte) (sim.Time, error) {
	if t.serveQueued(addr, buf) {
		return now, nil
	}
	base := t.Cfg.OneSidedCost(len(buf))
	return t.resilient("read", now, t.Cfg.OneSidedRTT, base, func(at sim.Time) (sim.Time, error) {
		sum, extra, err := t.be.Read(at, addr, buf)
		if err != nil {
			return 0, err
		}
		if Checksum(buf) != sum {
			t.bump(&t.stats.Corruptions)
			return 0, ErrCorrupt
		}
		if t.timedOut(base, extra) {
			return 0, ErrTimeout
		}
		// Queued writes the node hasn't seen yet are newer than its reply;
		// patch any partial overlap (full coverage was served above). Must
		// happen here, before this success drains the queue into the node.
		t.mu.Lock()
		t.overlayReadLocked(addr, buf)
		t.mu.Unlock()
		wlen, cpu := t.wireLen(buf)
		wireEnd := t.BW.Acquire(at, wlen)
		return wireEnd.Add(t.latencyOneSided(len(buf))).Add(extra).Add(cpu), nil
	}, nil)
}

// WriteOneSided pushes buf to far address addr starting at now. One-sided
// writes are idempotent, so a retry after a lost completion is safe. While
// the breaker is open the write queues locally and completes immediately —
// the degraded-mode write-back queue.
func (t *T) WriteOneSided(now sim.Time, addr uint64, buf []byte) (sim.Time, error) {
	base := t.Cfg.OneSidedCost(len(buf))
	return t.resilient("write", now, t.Cfg.OneSidedRTT, base, func(at sim.Time) (sim.Time, error) {
		extra, err := t.be.Write(at, addr, buf)
		if err != nil {
			return 0, err
		}
		t.supersedeRange(addr, buf)
		if t.timedOut(base, extra) {
			return 0, ErrTimeout
		}
		wlen, cpu := t.wireLen(buf)
		wireEnd := t.BW.Acquire(at, wlen)
		return wireEnd.Add(t.latencyOneSided(len(buf))).Add(extra).Add(cpu), nil
	}, func(at sim.Time) (sim.Time, bool) {
		t.enqueueWrite(addr, buf)
		return at, true
	})
}

// GatherTwoSided fetches several pieces in one two-sided message (§4.5
// batching, §4.7 partial-structure transmission). The reply carries the
// pieces concatenated in request order, in a buffer that is valid until the
// next call on this transport (see Link). Pieces covered by the degraded-mode
// write-back queue are patched from the overlay so reads always see the
// newest data.
func (t *T) GatherTwoSided(now sim.Time, addrs []uint64, sizes []int) ([]byte, sim.Time, error) {
	if data, ok := t.gatherQueued(addrs, sizes); ok {
		return data, now, nil
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	base := t.Cfg.BatchedCost(sizes)
	var data []byte
	end, err := t.resilient("gather2s", now, t.Cfg.TwoSidedRTT, base, func(at sim.Time) (sim.Time, error) {
		d, sum, extra, err := t.be.Gather(at, addrs, sizes)
		if err != nil {
			return 0, err
		}
		if Checksum(d) != sum {
			t.bump(&t.stats.Corruptions)
			return 0, ErrCorrupt
		}
		if t.timedOut(base, extra) {
			return 0, ErrTimeout
		}
		// Patch before returning success: success drains the queue, and the
		// reply must reflect queued writes the node hasn't seen yet.
		t.patchFromQueue(addrs, sizes, d)
		data = d
		wlen, cpu := t.wireLenVec(d, sizes)
		wireEnd := t.BW.Acquire(at, wlen)
		return wireEnd.Add(base - t.Cfg.WireTime(len(d))).Add(extra).Add(cpu), nil
	}, nil)
	if err != nil {
		return nil, end, err
	}
	return data, end, nil
}

// gatherQueued serves a whole gather from the overlay when every piece is
// covered by queued write-backs.
func (t *T) gatherQueued(addrs []uint64, sizes []int) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.queued) == 0 || len(addrs) != len(sizes) {
		return nil, false
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total > cap(t.overlayReply) {
		t.overlayReply = make([]byte, total)
	}
	out := t.overlayReply[:total]
	off := 0
	for i, a := range addrs {
		if !t.overlayReadLocked(a, out[off:off+sizes[i]]) {
			return nil, false
		}
		off += sizes[i]
	}
	t.stats.DegradedReads++
	t.cDegraded.Inc()
	return out, true
}

// patchFromQueue overwrites gather-reply segments with newer queued data,
// including partial overlaps.
func (t *T) patchFromQueue(addrs []uint64, sizes []int, data []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.queued) == 0 {
		return
	}
	off := 0
	for i, a := range addrs {
		t.overlayReadLocked(a, data[off:off+sizes[i]])
		off += sizes[i]
	}
}

// ScatterTwoSided writes several pieces in one two-sided message. While the
// breaker is open each piece queues locally.
func (t *T) ScatterTwoSided(now sim.Time, addrs []uint64, pieces [][]byte) (sim.Time, error) {
	sizes := make([]int, len(pieces))
	total := 0
	for i, p := range pieces {
		sizes[i] = len(p)
		total += len(p)
	}
	base := t.Cfg.BatchedCost(sizes)
	return t.resilient("scatter2s", now, t.Cfg.TwoSidedRTT, base, func(at sim.Time) (sim.Time, error) {
		extra, err := t.be.Scatter(at, addrs, pieces)
		if err != nil {
			return 0, err
		}
		for i := range addrs {
			t.supersedeRange(addrs[i], pieces[i])
		}
		if t.timedOut(base, extra) {
			return 0, ErrTimeout
		}
		wlen, cpu := t.wireLenPieces(pieces)
		wireEnd := t.BW.Acquire(at, wlen)
		return wireEnd.Add(base - t.Cfg.WireTime(total)).Add(extra).Add(cpu), nil
	}, func(at sim.Time) (sim.Time, bool) {
		for i := range addrs {
			t.enqueueWrite(addrs[i], pieces[i])
		}
		return at, true
	})
}

// noteBatch records a vectored op of n pieces in the batch-size histogram
// (and its registry twin when tracing is on).
func (t *T) noteBatch(n int) {
	t.mu.Lock()
	t.stats.Batches++
	t.stats.BatchedPieces += int64(n)
	t.stats.BatchHist[batchBucket(n)]++
	t.mu.Unlock()
	t.hBatch.Observe(int64(n))
}

// GatherOneSided fetches several pieces with one doorbell-batched chain of
// one-sided reads: the WRs are posted together and ring the doorbell once,
// so the whole chain pays one round trip and one posting overhead (§4.5
// batched prefetch). The reply carries the pieces concatenated in request
// order, streaming back-to-back on the wire — callers that hand pieces out
// individually can therefore compute each piece's own arrival instant by
// subtracting the trailing pieces' wire time from the returned completion.
// The reply is valid until the next call on this transport (see Link).
// Pieces covered by the degraded-mode write-back queue are patched from the
// overlay so reads always see the newest data.
func (t *T) GatherOneSided(now sim.Time, addrs []uint64, sizes []int) ([]byte, sim.Time, error) {
	if data, ok := t.gatherQueued(addrs, sizes); ok {
		return data, now, nil
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	base := t.Cfg.VectoredOneSidedCost(sizes)
	var data []byte
	end, err := t.resilient("gather1s", now, t.Cfg.OneSidedRTT, base, func(at sim.Time) (sim.Time, error) {
		d, sum, extra, err := t.be.Gather(at, addrs, sizes)
		if err != nil {
			return 0, err
		}
		if Checksum(d) != sum {
			t.bump(&t.stats.Corruptions)
			return 0, ErrCorrupt
		}
		if t.timedOut(base, extra) {
			return 0, ErrTimeout
		}
		// Patch before returning success: success drains the queue, and the
		// reply must reflect queued writes the node hasn't seen yet.
		t.patchFromQueue(addrs, sizes, d)
		data = d
		wlen, cpu := t.wireLenVec(d, sizes)
		wireEnd := t.BW.Acquire(at, wlen)
		t.noteBatch(len(addrs))
		return wireEnd.Add(base - t.Cfg.WireTime(len(d))).Add(extra).Add(cpu), nil
	}, nil)
	if err != nil {
		return nil, end, err
	}
	return data, end, nil
}

// ScatterWrite pushes several pieces with one doorbell-batched chain of
// one-sided writes — the write-side twin of GatherOneSided and the vehicle
// of the runtime's coalesced write-back drain. Like WriteOneSided it is
// idempotent (safe to retry) and degrades gracefully: while the breaker is
// open every piece queues locally and the op completes immediately.
func (t *T) ScatterWrite(now sim.Time, addrs []uint64, pieces [][]byte) (sim.Time, error) {
	sizes := make([]int, len(pieces))
	total := 0
	for i, p := range pieces {
		sizes[i] = len(p)
		total += len(p)
	}
	base := t.Cfg.VectoredOneSidedCost(sizes)
	end, err := t.resilient("scatter.write", now, t.Cfg.OneSidedRTT, base, func(at sim.Time) (sim.Time, error) {
		extra, err := t.be.Scatter(at, addrs, pieces)
		if err != nil {
			return 0, err
		}
		for i := range addrs {
			t.supersedeRange(addrs[i], pieces[i])
		}
		if t.timedOut(base, extra) {
			return 0, ErrTimeout
		}
		wlen, cpu := t.wireLenPieces(pieces)
		wireEnd := t.BW.Acquire(at, wlen)
		t.noteBatch(len(addrs))
		return wireEnd.Add(base - t.Cfg.WireTime(total)).Add(extra).Add(cpu), nil
	}, func(at sim.Time) (sim.Time, bool) {
		for i := range addrs {
			t.enqueueWrite(addrs[i], pieces[i])
		}
		return at, true
	})
	return end, err
}

// Call invokes an offloaded procedure (§4.8): args travel two-sided, the far
// CPU executes (already slowdown-scaled by the node), and the result travels
// back. The returned instant is when the result is available locally.
// Bandwidth is charged only once the RPC is known to have succeeded, so a
// refused call (unknown procedure, dead node) costs the caller nothing on
// the wire. Registered procedures are deterministic, so a retry after a
// transient failure is safe.
func (t *T) Call(now sim.Time, name string, args []byte) ([]byte, sim.Time, error) {
	base := t.Cfg.TwoSidedCost(len(args))
	var res []byte
	end, err := t.resilient("call", now, t.Cfg.TwoSidedRTT, base, func(at sim.Time) (sim.Time, error) {
		r, farCPU, extra, err := t.be.Call(at, name, args)
		if err != nil {
			return 0, err
		}
		if t.timedOut(base, extra) {
			return 0, ErrTimeout
		}
		res = r
		argsEnd := t.BW.Acquire(at, len(args)).Add(t.latencyTwoSided(len(args)))
		computeEnd := argsEnd.Add(farCPU)
		resEnd := t.BW.Acquire(computeEnd, len(r)).Add(t.latencyTwoSided(len(r))).Add(extra)
		return resEnd, nil
	}, nil)
	if err != nil {
		return nil, end, err
	}
	return res, end, nil
}
