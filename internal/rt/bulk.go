package rt

import (
	"fmt"

	"mira/internal/cache"
	"mira/internal/codec"
	"mira/internal/sim"
)

// nativeChunk is the granularity at which bulk local copies charge
// NativeAccess (one hardware cache line's worth of streaming copy).
const nativeChunk = 64

// BulkRead reads count elements starting at obj[elem] into buf, the path
// tensor intrinsics use. Missing lines are fetched with their latencies
// overlapped (independent one-sided reads pipeline on the NIC; the wire
// serializes via the bandwidth accountant), which is what makes layer-wise
// streaming cheap for GPT-2 (§6.1).
func (r *Runtime) BulkRead(clk *sim.Clock, name string, elem int64, buf []byte) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("rt: bulk access to unknown object %q", name)
	}
	return r.bulk(clk, o, elem, buf, false)
}

// BulkWrite writes buf over the elements starting at obj[elem]. Fully
// covered missing lines are allocated without fetching (§4.5 read/write
// optimization); partially covered boundary lines are fetched first.
func (r *Runtime) BulkWrite(clk *sim.Clock, name string, elem int64, buf []byte) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("rt: bulk access to unknown object %q", name)
	}
	return r.bulk(clk, o, elem, buf, true)
}

// BulkReadH and BulkWriteH are BulkRead and BulkWrite on a handle.
func (r *Runtime) BulkReadH(clk *sim.Clock, h Handle, elem int64, buf []byte) error {
	return r.bulk(clk, h.o, elem, buf, false)
}

func (r *Runtime) BulkWriteH(clk *sim.Clock, h Handle, elem int64, buf []byte) error {
	return r.bulk(clk, h.o, elem, buf, true)
}

func (r *Runtime) bulk(clk *sim.Clock, o *objectRT, elem int64, buf []byte, write bool) error {
	eb := uint64(o.decl.ElemBytes)
	off := uint64(elem) * eb
	if elem < 0 || off+uint64(len(buf)) > uint64(o.decl.SizeBytes()) {
		return fmt.Errorf("rt: bulk access [%d,+%d) outside %q (%d bytes)", off, len(buf), o.decl.Name, o.decl.SizeBytes())
	}
	switch o.place.Kind {
	case PlaceLocal:
		chunks := (len(buf) + nativeChunk - 1) / nativeChunk
		clk.Advance(r.cfg.Cost.NativeAccess * sim.Duration(chunks))
		if write {
			copy(o.local[off:], buf)
		} else {
			copy(buf, o.local[off:])
		}
		return nil
	case PlaceSwap:
		chunks := (len(buf) + nativeChunk - 1) / nativeChunk
		clk.Advance(r.cfg.Cost.NativeAccess * sim.Duration(chunks))
		if r.cfg.SwapCompress {
			r.setCodec(codec.ByteRun)
			defer r.setCodec(codec.None)
		}
		if write {
			return r.swapC.Write(clk, o.farBase+off, buf)
		}
		return r.swapC.Read(clk, o.farBase+off, buf)
	}

	s := r.secs[o.place.Section]
	lb := s.spec.Cache.LineBytes
	far := o.farBase + off

	// Pass 1: start fetches for all missing lines so their latencies
	// overlap. A resident line still on the wire joins the wait: its bytes
	// have not landed either.
	var fetchDone sim.Time
	for tag := cache.AlignDown(far, lb); tag < far+uint64(len(buf)); tag += uint64(lb) {
		if l, resident := s.sec.Peek(tag); resident {
			fetchDone = max(fetchDone, l.Ready)
			o.hits++
			s.touchSpec(clk, l)
			continue
		}
		o.misses++
		fullyCovered := tag >= far && tag+uint64(lb) <= far+uint64(len(buf))
		l, recovered, err := r.claim(clk, s, tag)
		if err != nil {
			return err
		}
		clk.Advance(r.cfg.Cost.Lookup(s.spec.Cache.Structure))
		if recovered || (write && fullyCovered) {
			continue // recovered from the write-back queue, or write-allocate without fetch
		}
		done, err := r.fetch(clk.Now(), s, o, l)
		if err != nil {
			return err
		}
		onWire(l, done)
		fetchDone = max(fetchDone, done)
	}
	clk.AdvanceTo(fetchDone)

	// Pass 2: copy through the now-resident lines, whose bytes have all
	// landed by now.
	done := 0
	for done < len(buf) {
		addr := far + uint64(done)
		l, resident := s.sec.Peek(addr)
		if resident {
			waitReady(clk, l)
		} else {
			// A later fetch in pass 1 evicted an earlier line of
			// the same range (section smaller than the transfer):
			// fetch it back, demand-paged.
			var recovered bool
			var err error
			if l, recovered, err = r.claim(clk, s, addr); err != nil {
				return err
			}
			if !recovered {
				fdone, err := r.fetch(clk.Now(), s, o, l)
				if err != nil {
					return err
				}
				clk.AdvanceTo(fdone)
			}
		}
		lineOff := int(addr - l.Tag)
		n := lb - lineOff
		if n > len(buf)-done {
			n = len(buf) - done
		}
		clk.Advance(r.cfg.Cost.NativeAccess * sim.Duration((n+nativeChunk-1)/nativeChunk))
		if write {
			copy(l.Data[lineOff:], buf[done:done+n])
			l.Dirty = true
		} else {
			copy(buf[done:done+n], l.Data[lineOff:])
		}
		done += n
	}
	return nil
}
