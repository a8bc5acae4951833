package rt

import (
	"strconv"

	"mira/internal/trace"
)

// SetTrace attaches the deterministic tracing layer to the runtime and its
// whole data path: per-section cache metrics, the pool's per-node
// transports, the offload engine, and the swap cache. Call after Bind — the
// swap cache only exists then. A nil tracer leaves tracing disabled; every
// instrumentation site is nil-safe, so an un-traced runtime pays only nil
// checks.
func (r *Runtime) SetTrace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	reg := tr.Registry()
	r.trc = tr.Buffer("rt")
	r.reg = reg
	for _, s := range r.secs {
		c := s.spec.Cache
		open := "{section=" + c.Name + ",structure=" + c.Structure.String() +
			",line=" + strconv.Itoa(c.LineBytes)
		lbl := open + "}"
		s.lblOpen = open
		s.mHit = reg.Counter("cache.hit" + lbl)
		s.mMiss = reg.Counter("cache.miss" + lbl)
		s.mEvict = reg.Counter("cache.evict" + lbl)
		s.mMissLat = reg.Histogram("cache.miss.latency_ns" + lbl)
		s.mPfIssued = reg.Counter("prefetch.issued" + lbl)
		s.mPfUseful = reg.Counter("prefetch.useful" + lbl)
		s.mPfUseless = reg.Counter("prefetch.useless" + lbl)
		s.mPfDropped = reg.Counter("prefetch.dropped" + lbl)
		s.mNativeFallback = reg.Counter("rt.native_fallback{section=" + c.Name + "}")
	}
	r.pool.SetTrace(tr)
	r.engine.SetTrace(tr)
	if r.swapC != nil {
		r.swapC.SetTrace(tr)
	}
}

// bumpTid attributes one cache event (kind "hit"/"miss"/"evict") of
// section s to the active simulated thread: the plain per-tid slot always
// counts; the labeled trace counter (cache.<kind>{...,tid=N}) is created
// lazily on a tid's first event so untraced runs register nothing.
func (r *Runtime) bumpTid(s *sectionRT, counts *[]int64, metrics *[]*trace.Counter, kind string) {
	tid := r.activeTid
	for len(*counts) <= tid {
		*counts = append(*counts, 0)
	}
	(*counts)[tid]++
	if r.reg == nil {
		return
	}
	for len(*metrics) <= tid {
		*metrics = append(*metrics, nil)
	}
	if (*metrics)[tid] == nil {
		(*metrics)[tid] = r.reg.Counter("cache." + kind + s.lblOpen + ",tid=" + strconv.Itoa(tid) + "}")
	}
	(*metrics)[tid].Inc()
}
