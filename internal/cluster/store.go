package cluster

import (
	"fmt"

	"mira/internal/farmem"
	"mira/internal/sim"
)

// This file is the pool's direct (untimed) store interface: farmem.Node's
// Read, Write and View over the placement table. The runtime uses it for
// workload setup (InitObject), result extraction (DumpObject), and
// offloaded-procedure memory access, where the timing is charged
// separately by the offload model.

// Read copies len(buf) bytes at pool virtual address addr from the first
// home that still has its memory. A range whose every home was wiped is
// unrecoverable and errors.
func (p *Pool) Read(addr uint64, buf []byte) error {
	segs, err := p.route(addr, len(buf))
	if err != nil {
		return err
	}
	for _, s := range segs {
		h, ok := p.liveHome(s.entry)
		if !ok {
			return fmt.Errorf("cluster: read [%#x,+%d): every replica lost its memory", addr, len(buf))
		}
		if err := p.nodes[h.Node].fm.Read(h.Base+s.off, buf[s.at:s.at+s.n]); err != nil {
			return err
		}
	}
	return nil
}

// View returns the n bytes at addr in place when one live home holds them
// whole — always on a one-node pool, which places every allocation whole —
// and otherwise a copy Read assembles. Like farmem.Node.View it is not
// traffic; the result is read-only and valid until the pool is next
// written, allocated from or released.
func (p *Pool) View(addr uint64, n int) ([]byte, error) {
	segs, err := p.route(addr, n)
	if err != nil {
		return nil, err
	}
	if len(segs) == 1 {
		if h, ok := p.liveHome(segs[0].entry); ok {
			return p.nodes[h.Node].fm.View(h.Base+segs[0].off, n)
		}
	}
	out := make([]byte, n)
	return out, p.Read(addr, out)
}

// liveHome is e's first home that still has its memory.
func (p *Pool) liveHome(e *PlacementEntry) (Home, bool) {
	for _, h := range e.Homes {
		if !p.nodes[h.Node].stale {
			return h, true
		}
	}
	return Home{}, false
}

// Write copies buf to pool virtual address addr on every home, keeping the
// replicas identical.
func (p *Pool) Write(addr uint64, buf []byte) error {
	segs, err := p.route(addr, len(buf))
	if err != nil {
		return err
	}
	for _, s := range segs {
		for _, h := range s.entry.Homes {
			if err := p.nodes[h.Node].fm.Write(h.Base+s.off, buf[s.at:s.at+s.n]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Register installs an offloadable procedure on every node, so a
// procedure can run wherever its operands live.
func (p *Pool) Register(name string, proc farmem.Proc) {
	for _, n := range p.nodes {
		n.fm.Register(name, proc)
	}
}

// CPUSlowdown reports the far-side compute penalty. Nodes share one
// NodeCfg, so node 0 speaks for the cluster.
func (p *Pool) CPUSlowdown() float64 { return p.nodes[0].fm.CPUSlowdown() }

// Sync applies every pending scheduled wipe at or before now on every
// fault domain, so stale flags are deterministic before a recovery pass.
func (p *Pool) Sync(now sim.Time) {
	for _, n := range p.nodes {
		if n.inj != nil {
			n.inj.Sync(now)
		}
	}
}

// AllocatedBytes sums live allocations across the cluster (replicas
// counted once per copy, matching what the nodes actually hold).
func (p *Pool) AllocatedBytes() uint64 {
	var sum uint64
	for _, n := range p.nodes {
		sum += n.fm.AllocatedBytes()
	}
	return sum
}
