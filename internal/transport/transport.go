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

// FailFastPolicy is the policy of a replicated pool's members: the pool's
// replicas are the retry, so a member gives up after one attempt and trips
// its breaker early — transport-internal persistence would only delay
// failover (and a tripped breaker is the serving layer's degraded signal).
func FailFastPolicy() Policy {
	p := DefaultPolicy()
	p.MaxAttempts = 1
	p.BreakerThreshold = 2
	p.BreakerCooldown = 50 * sim.Microsecond
	return p
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
	// sizes is the scratch a scatter lists its piece sizes in to price them.
	sizes []int
	stats Stats

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

// wireLenLocked reports the bytes payload occupies on the wire under the
// active codec and the codec CPU time (far-side encode + near-side decode)
// to add to the op's completion, updating the codec counters. Callers invoke
// it exactly once per successful op, after every failure check, so retries
// do not double-count. With no codec installed it is the identity: raw
// length, zero time, zero counter traffic. t.mu must be held.
func (t *T) wireLenLocked(payload []byte) (int, sim.Duration) {
	if t.wireCodec == codec.None {
		return len(payload), 0
	}
	return t.codecLocked(len(payload), codec.EncodedLen(t.wireCodec, payload))
}

// wireLenVecLocked is wireLenLocked over a concatenated vectored payload:
// each piece is encoded independently (vectored messages carry per-piece
// encoded sizes and codec IDs), so a compressible line never pays for an
// incompressible neighbor in the same doorbell batch.
func (t *T) wireLenVecLocked(data []byte, sizes []int) (int, sim.Duration) {
	if t.wireCodec == codec.None {
		return len(data), 0
	}
	total, off := 0, 0
	for _, s := range sizes {
		total += codec.EncodedLen(t.wireCodec, data[off:off+s])
		off += s
	}
	return t.codecLocked(off, total)
}

// wireLenPiecesLocked is wireLenVecLocked for scatter-shaped payloads.
func (t *T) wireLenPiecesLocked(pieces [][]byte) (int, sim.Duration) {
	raw, total := 0, 0
	for _, p := range pieces {
		raw += len(p)
	}
	if t.wireCodec == codec.None {
		return raw, 0
	}
	for _, p := range pieces {
		total += codec.EncodedLen(t.wireCodec, p)
	}
	return t.codecLocked(raw, total)
}

// codecLocked counts one op whose raw payload bytes shipped as wire bytes
// and returns them with the codec CPU time.
func (t *T) codecLocked(raw, wire int) (int, sim.Duration) {
	t.stats.CodecOps++
	t.stats.WireSaved += int64(raw - wire)
	return wire, t.wireCost.EncodeCost(raw) + t.wireCost.DecodeCost(raw)
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

// supersedeRangeLocked reconciles the overlay with a direct write that just
// landed on the node: queued entries fully inside [addr, addr+len(data))
// are dropped and partially overlapping ones are patched with the fresher
// bytes. Queued entries are always older than a direct write that lands
// later (degraded-mode writes replace per address), and the next successful
// op drains the queue — without this a stale queued line would be replayed
// over the fresher bytes. Entries can differ in granularity from the
// superseding write (a queued read-repair line vs a coalesced multi-line
// write-back piece), hence range reconciliation, not address matching.
func (t *T) supersedeRangeLocked(addr uint64, data []byte) {
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

// timedOutLocked reports whether injected delay pushes an attempt past its
// deadline, counting it if so.
func (t *T) timedOutLocked(base, extra sim.Duration) bool {
	d := t.deadline(base)
	if d <= 0 || base+extra <= d {
		return false
	}
	t.stats.Timeouts++
	t.cTimeouts.Inc()
	return true
}

// An attempt is one try of an operation, cut where resilient takes t.mu:
// once before the backend call and once after it, never across it. The
// hooks marked "t.mu held" run inside those two critical sections, call and
// land outside them, so a fault-free op takes the lock twice however many
// counters, overlay checks and breaker updates it makes.
type attempt struct {
	rtt  sim.Duration // the op class's NACK-detection latency
	base sim.Duration // its fault-free cost: the deadline's basis
	lat  sim.Duration // what completion adds to the payload's wire time, beside injected delay and codec time

	// serve (t.mu held, first attempt) answers the whole op from the
	// write-back overlay: a read whose bytes are all queued.
	serve func() bool
	// degrade (t.mu held, breaker open) completes the op locally: a write
	// queues in the overlay.
	degrade func()
	// call runs the backend and checks what came back, returning ErrCorrupt
	// when a reply's bytes do not match its checksum.
	call func(be Backend, at sim.Time) (extra sim.Duration, err error)
	// landed (t.mu held) follows a call the backend carried out, before the
	// deadline check: a write that landed supersedes the overlay even when
	// it then counts as timed out.
	landed func()
	// settle (t.mu held) follows an attempt that succeeded: it patches a
	// reply from the overlay, counts codec and batch stats, and returns the
	// payload's wire bytes and codec CPU time.
	settle func() (wire int, cpu sim.Duration)
	// land, when set, charges the link and returns the completion in place
	// of Acquire(wire)+lat+extra+cpu: Call's two legs around the far CPU.
	land func(at sim.Time, extra sim.Duration) sim.Time
}

// resilient runs one operation under the retry/backoff/breaker policy; it is
// the transport's only retry loop. op names the operation class for tracing
// (a parameter, not a field: the tracer keeps it, and a kept field would
// move every attempt's hooks to the heap). Bandwidth is charged only for the
// attempt that succeeds. Permanent errors return immediately with the
// caller's own `now` — a refused operation charges neither time nor
// bandwidth.
func (t *T) resilient(op string, now sim.Time, a *attempt) (sim.Time, error) {
	attempts := max(t.pol.MaxAttempts, 1)
	at := now
	var lastErr error
	for n := 0; n < attempts; n++ {
		// Before the call: the overlay, the op count, the breaker.
		t.mu.Lock()
		if n == 0 {
			if a.serve != nil && a.serve() {
				t.mu.Unlock()
				return now, nil
			}
			t.stats.Ops++
			t.cOps.Inc()
		}
		if t.open && at < t.openUntil {
			if a.degrade != nil {
				a.degrade()
				t.mu.Unlock()
				t.trc.Span(now, at, "net", op, trace.S("mode", "degraded"))
				return at, nil
			}
			// Wait out the cooldown in virtual time: this caller is the
			// half-open probe.
			t.stats.DegradedTime += t.openUntil.Sub(at)
			at = t.openUntil
		}
		be := t.be
		t.mu.Unlock()

		extra, err := a.call(be, at)

		// After the call: the op's bookkeeping, then the breaker's.
		t.mu.Lock()
		if err == nil && a.landed != nil {
			a.landed()
		}
		if errors.Is(err, ErrCorrupt) { // only call gives this verdict
			t.stats.Corruptions++
		} else if err == nil && t.timedOutLocked(a.base, extra) {
			err = ErrTimeout
		}
		if err == nil {
			var wire int
			var cpu sim.Duration
			if a.settle != nil {
				wire, cpu = a.settle()
			}
			wasOpen, drain := t.open, len(t.queued) > 0
			t.consecFails, t.open = 0, false
			t.mu.Unlock()
			var end sim.Time
			if a.land != nil {
				end = a.land(at, extra)
			} else {
				end = t.BW.Acquire(at, wire).Add(a.lat).Add(extra).Add(cpu)
			}
			if wasOpen {
				t.trc.Instant(at, "net", "breaker.close")
			}
			if drain {
				t.drainOnce(at)
			}
			if n == 0 {
				t.trc.Span(now, end, "net", op)
			} else {
				t.trc.Span(now, end, "net", op, trace.I("retries", int64(n)))
			}
			return end, nil
		}
		if !IsTransient(err) {
			t.mu.Unlock()
			return now, err
		}
		lastErr = err
		retrying := n < attempts-1
		if retrying {
			t.stats.Retries++
			t.cRetries.Inc()
		} else {
			t.stats.GaveUp++
		}
		at = t.noteFailureLocked(at, n, a.rtt, a.base, err)
		t.mu.Unlock()
		if retrying {
			t.trc.Instant(at, "net", op+".retry", trace.I("attempt", int64(n+1)))
		}
	}
	return at, fmt.Errorf("%w after %d attempts (last: %v)", ErrFarUnavailable, attempts, lastErr)
}

// noteFailureLocked charges the failure's detection latency and backoff to
// the attempt timeline and updates the breaker.
func (t *T) noteFailureLocked(at sim.Time, a int, rtt, base sim.Duration, err error) sim.Time {
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

// enqueueWriteLocked queues a degraded-mode write locally. The queue is an
// overlay over far memory: reads consult it first, so queued data stays
// visible. Entries never overlap: a new write patches the overlapping bytes
// of existing entries in place (it is fresher) and inserts only the
// uncovered gaps. Writers mix granularities at the same addresses — a
// coalesced multi-line write-back vs a single read-repair line — so
// anything keyed purely by address would let an older entry shadow part of
// a newer one at drain time.
func (t *T) enqueueWriteLocked(addr uint64, data []byte) {
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

// serveQueuedLocked serves [addr, addr+len(buf)) from the write-back overlay
// if queued entries cover all of it. Partially covering entries leave their
// bytes in buf; callers that fall through to the network overwrite buf
// wholesale and must re-patch afterwards.
func (t *T) serveQueuedLocked(addr uint64, buf []byte) bool {
	if len(t.queued) == 0 || !t.overlayReadLocked(addr, buf) {
		return false
	}
	t.stats.DegradedReads++
	t.cDegraded.Inc()
	return true
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
		be := t.be
		t.mu.Unlock()
		if !ok {
			continue
		}
		_, err := be.Write(at, addr, data)
		t.mu.Lock()
		switch {
		case err == nil:
			t.dequeueLocked(addr)
			t.stats.DrainedWritebacks++
			wlen, _ := t.wireLenLocked(data) // async drain: bandwidth only, no caller timeline
			t.mu.Unlock()
			t.BW.Acquire(at, wlen)
		case !IsTransient(err):
			t.dequeueLocked(addr)
			t.stats.DroppedWritebacks++
			t.mu.Unlock()
		default:
			t.noteFailureLocked(at, 0, t.Cfg.OneSidedRTT, t.Cfg.OneSidedCost(len(data)), err)
			t.mu.Unlock()
			return
		}
	}
}

// Flush forces every queued degraded-mode write-back out to the far node,
// waiting out the breaker in virtual time and retrying under the policy.
// It returns the completion instant of the last drained write. Callers that
// read far memory directly (DumpObject) must Flush first.
func (t *T) Flush(now sim.Time) (sim.Time, error) {
	last := now
	for {
		t.mu.Lock()
		if len(t.queuedAddrs) == 0 {
			t.mu.Unlock()
			return last, nil
		}
		addr := t.queuedAddrs[0]
		data := t.queued[addr]
		t.dequeueLocked(addr)
		t.mu.Unlock()
		end, err := t.resilient("flush.writeback", now, &attempt{
			rtt: t.Cfg.OneSidedRTT, base: t.Cfg.OneSidedCost(len(data)), lat: t.latencyOneSided(len(data)),
			call: func(be Backend, at sim.Time) (sim.Duration, error) {
				return be.Write(at, addr, data)
			},
			settle: func() (int, sim.Duration) { return t.wireLenLocked(data) },
		})
		t.mu.Lock()
		if err != nil {
			t.enqueueWriteLocked(addr, data)
			t.stats.QueuedWritebacks-- // re-queue of a failed flush, not a new write-back
			t.mu.Unlock()
			return last, fmt.Errorf("transport: flush of queued write-back %#x: %w", addr, err)
		}
		t.stats.DrainedWritebacks++
		t.mu.Unlock()
		last = max(last, end)
	}
}

// ReadOneSided fetches len(buf) bytes at far address addr starting at now,
// returning the completion instant. The payload carries an end-to-end
// checksum, verified in full on every reply: corruption is detected and
// retried.
func (t *T) ReadOneSided(now sim.Time, addr uint64, buf []byte) (sim.Time, error) {
	return t.resilient("read", now, &attempt{
		rtt: t.Cfg.OneSidedRTT, base: t.Cfg.OneSidedCost(len(buf)), lat: t.latencyOneSided(len(buf)),
		serve: func() bool { return t.serveQueuedLocked(addr, buf) },
		call: func(be Backend, at sim.Time) (sim.Duration, error) {
			sum, extra, err := be.Read(at, addr, buf)
			if err == nil && farmem.Checksum(buf) != sum {
				err = ErrCorrupt
			}
			return extra, err
		},
		settle: func() (int, sim.Duration) {
			// Queued writes the node hasn't seen yet are newer than its
			// reply; patch any partial overlap (full coverage was served).
			// Must happen here, before this success drains the queue into
			// the node.
			t.overlayReadLocked(addr, buf)
			return t.wireLenLocked(buf)
		},
	})
}

// WriteOneSided pushes buf to far address addr starting at now. One-sided
// writes are idempotent, so a retry after a lost completion is safe. While
// the breaker is open the write queues locally and completes immediately —
// the degraded-mode write-back queue.
func (t *T) WriteOneSided(now sim.Time, addr uint64, buf []byte) (sim.Time, error) {
	return t.resilient("write", now, &attempt{
		rtt: t.Cfg.OneSidedRTT, base: t.Cfg.OneSidedCost(len(buf)), lat: t.latencyOneSided(len(buf)),
		degrade: func() { t.enqueueWriteLocked(addr, buf) },
		call: func(be Backend, at sim.Time) (sim.Duration, error) {
			return be.Write(at, addr, buf)
		},
		landed: func() { t.supersedeRangeLocked(addr, buf) },
		settle: func() (int, sim.Duration) { return t.wireLenLocked(buf) },
	})
}

// GatherTwoSided fetches several pieces in one two-sided message (§4.5
// batching, §4.7 partial-structure transmission). The reply carries the
// pieces concatenated in request order, in a buffer that is valid until the
// next call on this transport (see Link). Pieces covered by the degraded-mode
// write-back queue are patched from the overlay so reads always see the
// newest data.
func (t *T) GatherTwoSided(now sim.Time, addrs []uint64, sizes []int) ([]byte, sim.Time, error) {
	return t.gather("gather2s", now, addrs, sizes, t.Cfg.TwoSidedRTT, t.Cfg.BatchedCost(sizes), false)
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
	return t.gather("gather1s", now, addrs, sizes, t.Cfg.OneSidedRTT, t.Cfg.VectoredOneSidedCost(sizes), true)
}

// gather is both gathers: rtt and base price the message or the chain, and
// batch counts it as a doorbell batch. A gather every piece of which is
// queued is served wholly from the overlay.
func (t *T) gather(op string, now sim.Time, addrs []uint64, sizes []int, rtt, base sim.Duration, batch bool) ([]byte, sim.Time, error) {
	total := 0
	for _, s := range sizes {
		total += s
	}
	var data []byte
	end, err := t.resilient(op, now, &attempt{
		rtt: rtt, base: base, lat: base - t.Cfg.WireTime(total),
		serve: func() bool {
			var ok bool
			data, ok = t.gatherQueuedLocked(addrs, sizes)
			return ok
		},
		call: func(be Backend, at sim.Time) (sim.Duration, error) {
			d, sum, extra, err := be.Gather(at, addrs, sizes)
			if err == nil && farmem.Checksum(d) != sum {
				err = ErrCorrupt
			}
			data = d
			return extra, err
		},
		settle: func() (int, sim.Duration) {
			// Patch before returning success: success drains the queue, and
			// the reply must reflect queued writes the node hasn't seen yet.
			t.patchFromQueueLocked(addrs, sizes, data)
			if batch {
				t.noteBatchLocked(len(addrs))
			}
			return t.wireLenVecLocked(data, sizes)
		},
	})
	if err != nil {
		return nil, end, err
	}
	return data, end, nil
}

// gatherQueuedLocked serves a whole gather from the overlay when every piece
// is covered by queued write-backs.
func (t *T) gatherQueuedLocked(addrs []uint64, sizes []int) ([]byte, bool) {
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

// patchFromQueueLocked overwrites gather-reply segments with newer queued
// data, including partial overlaps.
func (t *T) patchFromQueueLocked(addrs []uint64, sizes []int, data []byte) {
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
	return t.scatter("scatter2s", now, addrs, pieces, t.Cfg.TwoSidedRTT, netmodel.Config.BatchedCost, false)
}

// ScatterWrite pushes several pieces with one doorbell-batched chain of
// one-sided writes — the write-side twin of GatherOneSided and the vehicle
// of the runtime's coalesced write-back drain. Like WriteOneSided it is
// idempotent (safe to retry) and degrades gracefully: while the breaker is
// open every piece queues locally and the op completes immediately.
func (t *T) ScatterWrite(now sim.Time, addrs []uint64, pieces [][]byte) (sim.Time, error) {
	return t.scatter("scatter.write", now, addrs, pieces, t.Cfg.OneSidedRTT, netmodel.Config.VectoredOneSidedCost, true)
}

// scatter is both scatters: cost prices the pieces' sizes, which it is
// handed in the transport's scratch, and batch counts the op as a doorbell
// batch.
func (t *T) scatter(op string, now sim.Time, addrs []uint64, pieces [][]byte, rtt sim.Duration,
	cost func(netmodel.Config, []int) sim.Duration, batch bool) (sim.Time, error) {
	t.mu.Lock()
	t.sizes = t.sizes[:0]
	total := 0
	for _, p := range pieces {
		t.sizes = append(t.sizes, len(p))
		total += len(p)
	}
	base := cost(t.Cfg, t.sizes)
	t.mu.Unlock()
	return t.resilient(op, now, &attempt{
		rtt: rtt, base: base, lat: base - t.Cfg.WireTime(total),
		degrade: func() {
			for i := range addrs {
				t.enqueueWriteLocked(addrs[i], pieces[i])
			}
		},
		call: func(be Backend, at sim.Time) (sim.Duration, error) {
			return be.Scatter(at, addrs, pieces)
		},
		landed: func() {
			for i := range addrs {
				t.supersedeRangeLocked(addrs[i], pieces[i])
			}
		},
		settle: func() (int, sim.Duration) {
			if batch {
				t.noteBatchLocked(len(addrs))
			}
			return t.wireLenPiecesLocked(pieces)
		},
	})
}

// noteBatchLocked records a vectored op of n pieces in the batch-size
// histogram (and its registry twin when tracing is on).
func (t *T) noteBatchLocked(n int) {
	t.stats.Batches++
	t.stats.BatchedPieces += int64(n)
	t.stats.BatchHist[batchBucket(n)]++
	t.hBatch.Observe(int64(n))
}

// Call invokes an offloaded procedure (§4.8): args travel two-sided, the far
// CPU executes (already slowdown-scaled by the node), and the result travels
// back. The returned instant is when the result is available locally.
// Bandwidth is charged only once the RPC is known to have succeeded, so a
// refused call (unknown procedure, dead node) costs the caller nothing on
// the wire. Registered procedures are deterministic, so a retry after a
// transient failure is safe.
func (t *T) Call(now sim.Time, name string, args []byte) ([]byte, sim.Time, error) {
	var res []byte
	var farCPU sim.Duration
	end, err := t.resilient("call", now, &attempt{
		rtt: t.Cfg.TwoSidedRTT, base: t.Cfg.TwoSidedCost(len(args)),
		call: func(be Backend, at sim.Time) (sim.Duration, error) {
			r, cpu, extra, err := be.Call(at, name, args)
			res, farCPU = r, cpu
			return extra, err
		},
		land: func(at sim.Time, extra sim.Duration) sim.Time {
			argsEnd := t.BW.Acquire(at, len(args)).Add(t.latencyTwoSided(len(args)))
			return t.BW.Acquire(argsEnd.Add(farCPU), len(res)).Add(t.latencyTwoSided(len(res))).Add(extra)
		},
	})
	if err != nil {
		return nil, end, err
	}
	return res, end, nil
}
