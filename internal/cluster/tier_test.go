package cluster

import (
	"bytes"
	"testing"

	"mira/internal/codec"
	"mira/internal/farmem"
	"mira/internal/netmodel"
	"mira/internal/sim"
	"mira/internal/transport"
)

func tierPool(t *testing.T, tier *TierConfig) (*Pool, uint64) {
	t.Helper()
	p, err := New(Options{
		Nodes:   1,
		Seed:    7,
		NodeCfg: farmem.NodeConfig{Capacity: 1 << 20, CPUSlowdown: 1},
		Net:     netmodel.DefaultConfig(),
		Tier:    tier,
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.AllocSection(1, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	return p, base
}

func fillPattern(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)*3 + seed
	}
	return out
}

func TestTierDemotesAndPromotes(t *testing.T) {
	// 16 KB of DRAM over a 64 KB section: most granules must spill.
	p, base := tierPool(t, &TierConfig{DRAMBytes: 16 << 10})
	now := sim.Time(0)
	data := fillPattern(64<<10, 1)
	for off := 0; off < len(data); off += 4096 {
		if _, err := p.WriteOneSided(now, base+uint64(off), data[off:off+4096]); err != nil {
			t.Fatal(err)
		}
	}
	s := p.NodeStats()[0].Tier
	if s.Demotions == 0 {
		t.Fatalf("no demotions with 16K budget over 64K writes: %+v", s)
	}
	if s.ResidentBytes > 16<<10 {
		t.Fatalf("resident %d bytes exceeds 16K budget", s.ResidentBytes)
	}
	if s.SSDBytes == 0 {
		t.Fatalf("nothing on flash after demotions: %+v", s)
	}

	// Reading everything back promotes the cold granules and returns the
	// exact bytes that were written through the tier.
	got := make([]byte, len(data))
	if _, err := p.ReadOneSided(now, base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("tiered read-back differs from written bytes")
	}
	s = p.NodeStats()[0].Tier
	if s.Misses == 0 {
		t.Fatalf("full read-back over a spilled section promoted nothing: %+v", s)
	}

	// A re-read of the most recently used granule is a pure DRAM hit and
	// completes sooner than a promotion-bearing cold read did.
	hitsBefore := p.NodeStats()[0].Tier.Hits
	buf := make([]byte, 4096)
	if _, err := p.ReadOneSided(now, base+64<<10-4096, buf); err != nil {
		t.Fatal(err)
	}
	if p.NodeStats()[0].Tier.Hits != hitsBefore+1 {
		t.Fatal("hot granule re-read did not count as a tier hit")
	}
}

func TestTierPromotionChargesLatency(t *testing.T) {
	lat := 15 * sim.Microsecond
	fm := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 20, CPUSlowdown: 1})
	addr, err := fm.Alloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	tb := newTierBackend(transport.NewNodeBackend(fm), fm,
		TierConfig{DRAMBytes: 4096, PromoteLatency: lat})
	now := sim.Time(0)
	if _, err := tb.Write(now, addr, fillPattern(4096, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Write(now, addr+4096, fillPattern(4096, 3)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	// Granule A was demoted by the second write: reading it pays the flash
	// promotion latency through the backend's extra-duration channel.
	_, extra, err := tb.Read(now, addr, buf)
	if err != nil {
		t.Fatal(err)
	}
	if extra < lat {
		t.Fatalf("cold read extra %v, want >= %v", extra, lat)
	}
	// Re-read: resident now, no flash charge.
	_, extra, err = tb.Read(now, addr, buf)
	if err != nil {
		t.Fatal(err)
	}
	if extra != 0 {
		t.Fatalf("hot read charged %v extra, want 0", extra)
	}
}

func TestTierSurvivesCrashWipe(t *testing.T) {
	// Drive the tier backend directly: granule 0 demotes to flash, then the
	// node loses its DRAM. The flash copy must survive and promotion must
	// restore it; the resident granule's bytes are gone (zeroed).
	fm := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 20, CPUSlowdown: 1})
	addr, err := fm.Alloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	tb := newTierBackend(transport.NewNodeBackend(fm), fm, TierConfig{DRAMBytes: 4096})
	now := sim.Time(0)
	a := fillPattern(4096, 3)
	b := fillPattern(4096, 4)
	if _, err := tb.Write(now, addr, a); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Write(now, addr+4096, b); err != nil { // demotes granule A
		t.Fatal(err)
	}
	if tb.Stats().Demotions == 0 {
		t.Fatal("second granule write did not demote the first")
	}

	fm.WipeMemory() // crash: DRAM gone, flash survives

	got := make([]byte, 4096)
	if _, _, err := tb.Read(now, addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a) {
		t.Fatal("demoted granule lost its bytes across a wipe — flash must survive")
	}
	if _, _, err := tb.Read(now, addr+4096, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatal("resident granule kept bytes across a wipe — DRAM must zero")
	}
}

// A promoted granule is restored into DRAM with CopyIn, which must forget
// the checksum the node stored for the granule's old bytes: here a direct
// whole-granule read of the wiped DRAM stores the sum of zeros just before
// the tier brings the flash copy back, and the read through the tier must
// still return the flash bytes with their own sum.
func TestTierPromotedGranuleReadsBackItsSum(t *testing.T) {
	fm := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 20, CPUSlowdown: 1})
	addr, err := fm.Alloc(2 * farmem.GranuleBytes)
	if err != nil {
		t.Fatal(err)
	}
	tb := newTierBackend(transport.NewNodeBackend(fm), fm, TierConfig{DRAMBytes: farmem.GranuleBytes})
	now := sim.Time(0)
	a := fillPattern(farmem.GranuleBytes, 8)
	got := make([]byte, farmem.GranuleBytes)
	if _, err := tb.Write(now, addr, a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.Read(now, addr, got); err != nil { // stores a's sum
		t.Fatal(err)
	}
	if _, err := tb.Write(now, addr+farmem.GranuleBytes, fillPattern(farmem.GranuleBytes, 9)); err != nil {
		t.Fatal(err) // demotes granule a
	}
	fm.WipeMemory()
	if _, err := fm.ReadSum(addr, got); err != nil { // stores the sum of zeros
		t.Fatal(err)
	}
	misses := tb.Stats().Misses
	sum, _, err := tb.Read(now, addr, got)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Stats().Misses != misses+1 {
		t.Fatal("the read did not promote the demoted granule")
	}
	if !bytes.Equal(got, a) {
		t.Fatal("promoted granule lost its flash bytes")
	}
	if sum != farmem.Checksum(a) {
		t.Fatalf("promoted granule read with sum %#x, its bytes hash to %#x", sum, farmem.Checksum(a))
	}
}

func TestTierRestoreDropsFlashCopy(t *testing.T) {
	fm := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 20, CPUSlowdown: 1})
	addr, err := fm.Alloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	tb := newTierBackend(transport.NewNodeBackend(fm), fm, TierConfig{DRAMBytes: 4096})
	now := sim.Time(0)
	stale := fillPattern(4096, 5)
	if _, err := tb.Write(now, addr, stale); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Write(now, addr+4096, fillPattern(4096, 6)); err != nil {
		t.Fatal(err)
	}
	// Re-sync path: fresh bytes written straight into DRAM, then Restore.
	fresh := fillPattern(4096, 7)
	if err := fm.Write(addr, fresh); err != nil {
		t.Fatal(err)
	}
	tb.Restore(addr, 4096)
	got := make([]byte, 4096)
	if _, _, err := tb.Read(now, addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("stale flash copy shadowed re-synced DRAM bytes")
	}
	if tb.Stats().SSDBytes > 4096 {
		t.Fatalf("Restore left extra flash copies: %+v", tb.Stats())
	}
}

func TestTierDeterministic(t *testing.T) {
	run := func() TierStats {
		p, base := tierPool(t, &TierConfig{DRAMBytes: 16 << 10})
		now := sim.Time(0)
		data := fillPattern(64<<10, 8)
		for off := 0; off < len(data); off += 4096 {
			if _, err := p.WriteOneSided(now, base+uint64(off), data[off:off+4096]); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]byte, len(data))
		if _, err := p.ReadOneSided(now, base, got); err != nil {
			t.Fatal(err)
		}
		return p.NodeStats()[0].Tier
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("tier stats differ across identical runs:\n%+v\n%+v", a, b)
	}
}

func TestPoolSetWireCodecForwards(t *testing.T) {
	p, _ := tierPool(t, nil)
	if p.WireCodec() != codec.None {
		t.Fatal("fresh pool should default to codec.None")
	}
	p.SetWireCodec(codec.ByteRun)
	if p.Transport(0).WireCodec() != codec.ByteRun {
		t.Fatal("SetWireCodec did not reach the node transport")
	}
	p.SetWireCodec(codec.None)
	if p.WireCodec() != codec.None {
		t.Fatal("SetWireCodec(None) did not reset")
	}
}
