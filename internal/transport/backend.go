package transport

import (
	"mira/internal/farmem"
	"mira/internal/sim"
)

// Backend is the far-node surface the transport drives. The default backend
// talks straight to a farmem.Node; the fault injector (internal/faults)
// wraps the same interface and perturbs calls — delay spikes, transient I/O
// errors, payload corruption, crash windows — before they reach the node.
//
// Every read-shaped call returns the checksum (farmem.Checksum) of the bytes
// the far node actually sent (the "wire header"); the transport recomputes
// it over what arrived, on every reply, and retries on mismatch. The far
// node answers a whole-granule read's sum from the region's table of
// checksums at rest, as a NIC checks integrity in hardware; a Gather reply
// is hashed as assembled. The extra duration is injected delay the
// transport adds to the operation's completion (and tests against the
// per-attempt deadline).
//
// A Gather reply belongs to the backend that assembled it: it is valid until
// the next Gather on that backend and may be overwritten by it (the far node
// keeps one reply buffer, as a server keeps one send buffer per connection).
// Read, Write, Scatter and Call leave it alone — the transport drains queued
// write-backs between receiving a reply and handing it on. A decorator that
// forwards Gather may edit the reply in place (the fault injector's bit
// flip) but must not keep it.
type Backend interface {
	// Read fills buf from far memory at addr.
	Read(now sim.Time, addr uint64, buf []byte) (sum uint32, extra sim.Duration, err error)
	// Write pushes buf to far memory at addr.
	Write(now sim.Time, addr uint64, buf []byte) (extra sim.Duration, err error)
	// Gather assembles the requested pieces into one reply, valid until
	// the backend's next Gather.
	Gather(now sim.Time, addrs []uint64, sizes []int) (data []byte, sum uint32, extra sim.Duration, err error)
	// Scatter writes several pieces in one message.
	Scatter(now sim.Time, addrs []uint64, pieces [][]byte) (extra sim.Duration, err error)
	// Call executes an offloaded procedure; farCPU is the far node's
	// compute time (already slowdown-scaled).
	Call(now sim.Time, name string, args []byte) (res []byte, farCPU sim.Duration, extra sim.Duration, err error)
}

// NewNodeBackend returns the direct, fault-free backend over node — the
// default backend, and the one the fault injector wraps.
func NewNodeBackend(node *farmem.Node) Backend { return nodeBackend{node: node} }

// nodeBackend is the direct, fault-free backend over a farmem.Node.
type nodeBackend struct{ node *farmem.Node }

func (nb nodeBackend) Read(_ sim.Time, addr uint64, buf []byte) (uint32, sim.Duration, error) {
	sum, err := nb.node.ReadSum(addr, buf)
	return sum, 0, err
}

func (nb nodeBackend) Write(_ sim.Time, addr uint64, buf []byte) (sim.Duration, error) {
	return 0, nb.node.Write(addr, buf)
}

func (nb nodeBackend) Gather(_ sim.Time, addrs []uint64, sizes []int) ([]byte, uint32, sim.Duration, error) {
	data, err := nb.node.Gather(addrs, sizes)
	if err != nil {
		return nil, 0, 0, err
	}
	return data, farmem.Checksum(data), 0, nil
}

func (nb nodeBackend) Scatter(_ sim.Time, addrs []uint64, pieces [][]byte) (sim.Duration, error) {
	return 0, nb.node.Scatter(addrs, pieces)
}

func (nb nodeBackend) Call(_ sim.Time, name string, args []byte) ([]byte, sim.Duration, sim.Duration, error) {
	res, farCPU, err := nb.node.Call(name, args)
	return res, farCPU, 0, err
}
