// Package farmem implements the far-memory node: a byte-addressed memory
// pool behind a remote allocator, served over the simulated interconnect by
// one-sided reads/writes and two-sided messages, plus an RPC executor for
// functions Mira offloads to the far node's (slower) CPU (§4.8, §5.1).
//
// The node stores real bytes — data that applications read through the Mira
// cache is actual application data, so correctness of the whole data path is
// testable independent of the timing model.
package farmem

import (
	"fmt"
	"sort"
	"sync"

	"mira/internal/sim"
)

// DefaultBase is the first far-memory virtual address. It is deliberately
// large and non-zero: far addresses must never collide with the remote
// pointer encoding's "section 0 = local" convention (§5.2).
const DefaultBase uint64 = 1 << 32

// NodeConfig configures the far-memory node.
type NodeConfig struct {
	// Capacity is the number of bytes of far memory.
	Capacity uint64
	// CPUSlowdown is how much slower the far node's CPU is than the
	// compute node's (the paper motivates offloading only
	// computation-light functions because far nodes carry low-power ARM
	// cores). 1.0 means equal speed.
	CPUSlowdown float64
}

// DefaultNodeConfig returns a 64 GB node with a 3x slower CPU.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{Capacity: 64 << 30, CPUSlowdown: 3.0}
}

// Proc is an offloaded procedure: it executes on the far node with direct
// access to far memory and returns its result bytes plus the compute time it
// consumed at compute-node speed (the node scales it by CPUSlowdown).
type Proc func(mem *Mem, args []byte) (result []byte, compute sim.Duration, err error)

// Node is the far-memory server.
type Node struct {
	mu    sync.Mutex
	cfg   NodeConfig
	mem   *Mem
	alloc *Allocator
	procs map[string]Proc
	// reply is the buffer Gather assembles into: the node owns it and the
	// next Gather overwrites it.
	reply []byte

	// stats
	readBytes  int64
	writeBytes int64
	rpcCalls   int64
}

// NewNode creates a far-memory node.
func NewNode(cfg NodeConfig) *Node {
	if cfg.Capacity == 0 {
		cfg = DefaultNodeConfig()
	}
	if cfg.CPUSlowdown <= 0 {
		cfg.CPUSlowdown = 1
	}
	return &Node{
		cfg:   cfg,
		mem:   newMem(),
		alloc: NewAllocator(DefaultBase, cfg.Capacity),
		procs: make(map[string]Proc),
	}
}

// Mem is the node's raw memory. Physical backing is allocated lazily, one
// buffer per live allocation, so a 64 GB-capacity node costs only what its
// tenants actually allocate. Addresses within one allocation are contiguous,
// which is all the data path ever needs (a cache line, page, or offloaded
// object never spans allocations).
type Mem struct {
	regions []memRegion // sorted by base, disjoint
}

type memRegion struct {
	base uint64
	data []byte
	// sums is the region's checksums at rest: per granule (GranuleBytes,
	// region-relative) its CRC32C with sumKnown set, or zero where it is not
	// known. Made by the region's first whole-granule read, emptied by
	// every change to the granule's bytes, and recycled with data.
	sums []uint64
}

func newMem() *Mem { return &Mem{} }

// addRegion registers physical backing for a new allocation: zeroed bytes,
// recycled from a released node's when the free list holds a region of this
// size.
func (m *Mem) addRegion(base uint64, size uint64) {
	i := sort.Search(len(m.regions), func(i int) bool { return m.regions[i].base > base })
	m.regions = append(m.regions, memRegion{})
	copy(m.regions[i+1:], m.regions[i:])
	m.regions[i] = regionCache.take(int(size))
	m.regions[i].base = base
}

// removeRegion drops the backing of a freed allocation.
func (m *Mem) removeRegion(base uint64) {
	i := sort.Search(len(m.regions), func(i int) bool { return m.regions[i].base >= base })
	if i < len(m.regions) && m.regions[i].base == base {
		m.regions = append(m.regions[:i], m.regions[i+1:]...)
	}
}

// find locates the region containing [addr, addr+n).
func (m *Mem) find(addr uint64, n int) (*memRegion, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative length %d", ErrBadRequest, n)
	}
	i := sort.Search(len(m.regions), func(i int) bool { return m.regions[i].base > addr })
	if i == 0 {
		return nil, fmt.Errorf("%w: access [%#x,+%d) hits no allocation", ErrUnmapped, addr, n)
	}
	r := &m.regions[i-1]
	if addr+uint64(n) > r.base+uint64(len(r.data)) {
		return nil, fmt.Errorf("%w: access [%#x,+%d) overruns allocation [%#x,+%d)",
			ErrUnmapped, addr, n, r.base, len(r.data))
	}
	return r, nil
}

// ReadAt copies len(buf) bytes at addr into buf.
func (m *Mem) ReadAt(addr uint64, buf []byte) error {
	r, err := m.find(addr, len(buf))
	if err != nil {
		return err
	}
	copy(buf, r.data[addr-r.base:])
	return nil
}

// readSum is ReadAt that also returns the CRC32C of the bytes read.
func (m *Mem) readSum(addr uint64, buf []byte) (uint32, error) {
	r, err := m.find(addr, len(buf))
	if err != nil {
		return 0, err
	}
	off := addr - r.base
	copy(buf, r.data[off:])
	return r.sum(off, len(buf)), nil
}

// WriteAt copies buf into memory at addr.
func (m *Mem) WriteAt(addr uint64, buf []byte) error {
	r, err := m.find(addr, len(buf))
	if err != nil {
		return err
	}
	off := addr - r.base
	copy(r.data[off:], buf)
	r.invalidate(off, len(buf))
	return nil
}

// Slice returns a window over far memory for in-place access by offloaded
// procedures. The window aliases the backing: writes are visible
// immediately. Taking it forgets the checksums stored for the bytes it
// covers, so a procedure writes through it before the node serves its next
// read, as every procedure does within its Call.
func (m *Mem) Slice(addr uint64, n int) ([]byte, error) {
	r, err := m.find(addr, n)
	if err != nil {
		return nil, err
	}
	off := addr - r.base
	r.invalidate(off, n)
	return r.window(off, n), nil
}

// window is the n bytes at region offset off, capacity capped at them.
func (r *memRegion) window(off uint64, n int) []byte {
	return r.data[off : off+uint64(n) : off+uint64(n)]
}

// Alloc performs a remote allocation and returns the far virtual address.
func (n *Node) Alloc(size uint64) (uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr, err := n.alloc.Alloc(size)
	if err != nil {
		return 0, err
	}
	n.mem.addRegion(addr, n.alloc.SizeOf(addr))
	return addr, nil
}

// Free releases a remote allocation.
func (n *Node) Free(addr uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.alloc.Free(addr); err != nil {
		return err
	}
	n.mem.removeRegion(addr)
	return nil
}

// Release frees every allocation at once and hands the backing, and the
// Gather reply buffer, to the free lists the next node draws on — what the
// far node does when its tenant is gone. The node stays usable: it is empty,
// so every access answers ErrUnmapped until something is allocated again. A
// window from Mem.Slice, or a Gather reply, must not be used past Release;
// its bytes belong to whoever allocates next.
func (n *Node) Release() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, r := range n.mem.regions {
		regionCache.put(r)
	}
	n.mem.regions = nil
	replyCache.put(n.reply)
	n.reply = nil
	n.alloc = NewAllocator(DefaultBase, n.cfg.Capacity)
}

// AllocatedBytes reports bytes currently allocated at the far node.
func (n *Node) AllocatedBytes() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alloc.InUse()
}

// Read services a one-sided read: it copies len(buf) bytes at addr into buf.
// The caller charges network time; the node only moves bytes.
func (n *Node) Read(addr uint64, buf []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.mem.ReadAt(addr, buf); err != nil {
		return err
	}
	n.readBytes += int64(len(buf))
	return nil
}

// ReadSum is Read that also returns the CRC32C of the bytes read: what a
// one-sided read's reply carries. A read of one whole granule is answered
// from the region's table and hashes nothing once the granule's sum is
// known.
func (n *Node) ReadSum(addr uint64, buf []byte) (uint32, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sum, err := n.mem.readSum(addr, buf)
	if err != nil {
		return 0, err
	}
	n.readBytes += int64(len(buf))
	return sum, nil
}

// Write services a one-sided write.
func (n *Node) Write(addr uint64, buf []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.mem.WriteAt(addr, buf); err != nil {
		return err
	}
	n.writeBytes += int64(len(buf))
	return nil
}

// Gather services a two-sided scatter-gather read: the far node assembles
// the requested pieces into one reply message (§4.5 batching, §4.7 partial
// structure transmission). Pieces are returned concatenated in order, in a
// buffer the node owns: the reply is valid until the next Gather on this
// node, and a caller that needs the bytes longer copies them out.
func (n *Node) Gather(addrs []uint64, sizes []int) ([]byte, error) {
	if len(addrs) != len(sizes) {
		return nil, fmt.Errorf("%w: gather with %d addrs but %d sizes", ErrBadRequest, len(addrs), len(sizes))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total > cap(n.reply) {
		replyCache.put(n.reply)
		n.reply = replyCache.take(total)
	}
	out := n.reply[:total]
	off := 0
	for i, a := range addrs {
		if err := n.mem.ReadAt(a, out[off:off+sizes[i]]); err != nil {
			return nil, err
		}
		off += sizes[i]
	}
	n.readBytes += int64(total)
	return out, nil
}

// Scatter services a two-sided scatter write: one message carrying several
// pieces that the far node copies to their destinations.
func (n *Node) Scatter(addrs []uint64, pieces [][]byte) error {
	if len(addrs) != len(pieces) {
		return fmt.Errorf("%w: scatter with %d addrs but %d pieces", ErrBadRequest, len(addrs), len(pieces))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, a := range addrs {
		if err := n.mem.WriteAt(a, pieces[i]); err != nil {
			return err
		}
		n.writeBytes += int64(len(pieces[i]))
	}
	return nil
}

// Register installs an offloadable procedure under name.
func (n *Node) Register(name string, p Proc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.procs[name] = p
}

// Call executes a registered procedure on the far node's CPU and returns
// its result along with the far-CPU time consumed (already scaled by
// CPUSlowdown). Network time for args/results is the caller's to charge.
func (n *Node) Call(name string, args []byte) (result []byte, farCPU sim.Duration, err error) {
	n.mu.Lock()
	p, ok := n.procs[name]
	if !ok {
		n.mu.Unlock()
		return nil, 0, fmt.Errorf("%w: no procedure %q registered", ErrUnknownProc, name)
	}
	n.rpcCalls++
	mem := n.mem
	slow := n.cfg.CPUSlowdown
	n.mu.Unlock()

	res, compute, err := p(mem, args)
	if err != nil {
		return nil, 0, fmt.Errorf("farmem: procedure %q: %w", name, err)
	}
	return res, sim.Duration(float64(compute) * slow), nil
}

// CopyOut copies len(buf) bytes at addr into buf without counting toward
// the node's traffic stats. The capacity tier uses it to stage a demoted
// granule's bytes onto the flash side; it is a node-internal move, not
// wire traffic.
func (n *Node) CopyOut(addr uint64, buf []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mem.ReadAt(addr, buf)
}

// View returns a window over the n bytes at addr, in place: what a caller
// that only reads far memory (an oracle's dump) takes instead of a copy.
// Like CopyOut it is not traffic. The window is read-only and valid until
// the node is next written, allocated from or released; a caller that keeps
// the bytes past that copies them. Being read-only, it leaves the stored
// checksums alone.
func (n *Node) View(addr uint64, size int) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	r, err := n.mem.find(addr, size)
	if err != nil {
		return nil, err
	}
	return r.window(addr-r.base, size), nil
}

// CopyIn is the stat-free converse of CopyOut: the capacity tier restores a
// promoted granule's flash copy into DRAM with it.
func (n *Node) CopyIn(addr uint64, buf []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mem.WriteAt(addr, buf)
}

// WipeMemory zeroes every allocated byte while keeping the allocations
// themselves. The fault injector uses it to model a far-node restart that
// lost its volatile memory contents (a crash without a durable or replicated
// backing store).
func (n *Node) WipeMemory() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, r := range n.mem.regions {
		clear(r.data)
		clear(r.sums)
	}
}

// Stats reports cumulative node-side traffic and RPC counts.
func (n *Node) Stats() (readBytes, writeBytes, rpcCalls int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.readBytes, n.writeBytes, n.rpcCalls
}

// Mem exposes the raw memory for in-process offloaded procedures and tests.
func (n *Node) Mem() *Mem { return n.mem }

// Capacity reports the configured far-memory size in bytes.
func (n *Node) Capacity() uint64 { return n.cfg.Capacity }

// CPUSlowdown reports how much slower the node's CPU is than the compute
// node's.
func (n *Node) CPUSlowdown() float64 { return n.cfg.CPUSlowdown }
