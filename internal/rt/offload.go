package rt

import (
	"fmt"

	"mira/internal/ir"
	"mira/internal/sim"
)

// This file implements the runtime half of the legacy whole-call offload
// path (§4.8): the executor flushes the cached state of the objects an
// offloaded function touches, runs the function body against far-node
// memory directly via RemoteAccess/RemoteBulk, and charges the RPC round
// trip with OffloadTransfer. The scatter-gather path (internal/offload)
// supersedes this for calls the scatter analysis recognizes; everything
// else still lands here.

// RemoteAccess moves bytes of obj[elem].field directly in far-node memory —
// the data path of code running on the far node itself. The far node's
// local memory cost is charged to clk: remote execution does not ride free
// on memory (only on the network it avoids).
func (r *Runtime) RemoteAccess(clk *sim.Clock, name string, elem int64, field ir.Field, buf []byte, write bool) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("rt: remote access to unknown object %q", name)
	}
	if o.place.Kind == PlaceLocal {
		return fmt.Errorf("rt: offloaded code cannot access local object %q", name)
	}
	if elem < 0 || elem >= o.decl.Count {
		return fmt.Errorf("rt: remote %q[%d] out of range", name, elem)
	}
	addr := o.farBase + uint64(elem)*uint64(o.decl.ElemBytes) + uint64(field.Offset)
	if len(buf) > field.Bytes {
		buf = buf[:field.Bytes]
	}
	clk.Advance(r.cfg.Cost.NativeAccess)
	if write {
		return r.pool.Write(addr, buf)
	}
	return r.pool.Read(addr, buf)
}

// RemoteBulk is RemoteAccess for a contiguous element range; the far
// node's memory cost is charged per cache line moved.
func (r *Runtime) RemoteBulk(clk *sim.Clock, name string, elem int64, buf []byte, write bool) error {
	o, ok := r.objs[name]
	if !ok {
		return fmt.Errorf("rt: remote bulk access to unknown object %q", name)
	}
	if o.place.Kind == PlaceLocal {
		return fmt.Errorf("rt: offloaded code cannot access local object %q", name)
	}
	off := uint64(elem) * uint64(o.decl.ElemBytes)
	if elem < 0 || off+uint64(len(buf)) > uint64(o.decl.SizeBytes()) {
		return fmt.Errorf("rt: remote bulk [%d,+%d) outside %q", off, len(buf), name)
	}
	addr := o.farBase + off
	clk.Advance(r.cfg.Cost.NativeAccess * sim.Duration(len(buf)/64+1))
	if write {
		return r.pool.Write(addr, buf)
	}
	return r.pool.Read(addr, buf)
}

// CPUSlowdown reports the far node's compute slowdown.
func (r *Runtime) CPUSlowdown() float64 { return r.pool.CPUSlowdown() }

// OffloadTransfer charges the RPC round trip: arguments out (two-sided),
// remote compute scaled by the far CPU's slowdown, results back.
func (r *Runtime) OffloadTransfer(clk *sim.Clock, argBytes, resBytes int, remoteCompute sim.Duration) {
	clk.Advance(r.cfg.Net.TwoSidedCost(argBytes))
	clk.Advance(sim.Duration(float64(remoteCompute) * r.pool.CPUSlowdown()))
	clk.Advance(r.cfg.Net.TwoSidedCost(resBytes))
}
