package cluster

import (
	"fmt"

	"mira/internal/farmem"
	"mira/internal/sim"
)

// This file is the pool's direct (untimed) store interface — the
// counterpart of calling farmem.Node.Read/Write directly in single-node
// mode. The runtime uses it for workload setup (InitObject), result
// extraction (DumpObject), and offloaded-procedure memory access, where
// the timing is charged separately by the offload model.

// Read copies len(buf) bytes at pool virtual address addr from the first
// home that still has its memory. A range whose every home was wiped is
// unrecoverable and errors.
func (p *Pool) Read(addr uint64, buf []byte) error {
	p.mu.Lock()
	segs, err := p.segments(nil, addr, len(buf))
	if err != nil {
		p.mu.Unlock()
		return err
	}
	type pick struct {
		node int
		base uint64
		s    seg
	}
	picks := make([]pick, 0, len(segs))
	for _, s := range segs {
		found := false
		for _, h := range s.entry.Homes {
			if p.nodes[h.Node].stale {
				continue
			}
			picks = append(picks, pick{node: h.Node, base: h.Base, s: s})
			found = true
			break
		}
		if !found {
			p.mu.Unlock()
			return fmt.Errorf("cluster: read [%#x,+%d): every replica lost its memory", addr, len(buf))
		}
	}
	p.mu.Unlock()
	for _, pk := range picks {
		if err := p.nodes[pk.node].fm.Read(pk.base+pk.s.off, buf[pk.s.at:pk.s.at+pk.s.n]); err != nil {
			return err
		}
	}
	return nil
}

// Write copies buf to pool virtual address addr on every home, keeping the
// replicas identical.
func (p *Pool) Write(addr uint64, buf []byte) error {
	p.mu.Lock()
	segs, err := p.segments(nil, addr, len(buf))
	p.mu.Unlock()
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
