package swap

import (
	"bytes"
	"fmt"
	"testing"

	"mira/internal/codec"
	"mira/internal/farmem"
	"mira/internal/netmodel"
	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/transport"
	"mira/internal/transport/transporttest"
)

// unalignedRig builds a node + transport + cache over a region of exactly
// length bytes (not necessarily page-aligned), keeping the node handle so
// tests can inspect the raw far image.
type unalignedRig struct {
	t    *testing.T
	node *farmem.Node
	tr   *transport.T
	c    *Cache
	clk  *sim.Clock
}

func newUnalignedRig(t *testing.T, poolPages int, length int64, pf prefetch.Policy, batch bool) *unalignedRig {
	t.Helper()
	node := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 24, CPUSlowdown: 1})
	tr := transport.New(node, netmodel.DefaultConfig())
	base, err := node.Alloc(uint64(length))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, length)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := node.Write(base, data); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(int64(poolPages) * PageBytes)
	cfg.BatchPrefetch = batch
	c, err := New(cfg, transporttest.Scribble(tr), base, length, pf)
	if err != nil {
		t.Fatal(err)
	}
	return &unalignedRig{t: t, node: node, tr: tr, c: c, clk: sim.NewClock(0)}
}

// TestUnalignedRegionLengths is the tail-page audit: regions whose length is
// not a page multiple must read, batch-prefetch, write back, and charge the
// wire using the short tail size, never a full-page size.
func TestUnalignedRegionLengths(t *testing.T) {
	lengths := []int64{
		PageBytes,          // aligned control
		PageBytes + 1,      // one-byte tail
		2*PageBytes - 1,    // tail one byte short of full
		3*PageBytes + 1234, // mid-size tail
		5000,               // sub-two-pages
	}
	for _, length := range lengths {
		t.Run(fmt.Sprintf("len%d", length), func(t *testing.T) {
			rig := newUnalignedRig(t, 64, length, seqPrefetch{n: 3}, true)
			c, clk := rig.c, rig.clk

			// Cold sequential read of the whole region (demand faults plus
			// batched gather prefetch, tail page included).
			buf := make([]byte, length)
			if err := c.Read(clk, c.Base(), buf); err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				if buf[i] != byte(i*7) {
					t.Fatalf("byte %d: got %#x want %#x", i, buf[i], byte(i*7))
				}
			}
			// Every page was pulled exactly once (the pool is larger than
			// the region), so the wire carried exactly the region's bytes:
			// a full-page charge for the short tail would overcount.
			if moved := rig.tr.BytesMoved(); moved != length {
				t.Fatalf("cold read moved %d wire bytes, want exactly %d", moved, length)
			}

			// Dirty the region's last bytes and flush: the write-back must
			// persist and charge each overlapped page at its true size —
			// the tail page at its short size, not a full page.
			dirty := make([]byte, 100)
			if int64(len(dirty)) > length {
				dirty = dirty[:length]
			}
			for i := range dirty {
				dirty[i] = byte(0xA0 + i)
			}
			wbStart := rig.tr.BytesMoved()
			addr := c.Base() + uint64(length) - uint64(len(dirty))
			if err := c.Write(clk, addr, dirty); err != nil {
				t.Fatal(err)
			}
			if err := c.FlushAll(clk); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(dirty))
			if err := rig.node.Read(addr, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, dirty) {
				t.Fatalf("tail write-back did not persist: got %x want %x", got, dirty)
			}
			firstDirty := (length - int64(len(dirty))) / PageBytes
			var wantWb int64
			for no := firstDirty; no*PageBytes < length; no++ {
				sz := length - no*PageBytes
				if sz > PageBytes {
					sz = PageBytes
				}
				wantWb += sz
			}
			if moved := rig.tr.BytesMoved() - wbStart; moved != wantWb {
				t.Fatalf("tail write-back moved %d wire bytes, want %d", moved, wantWb)
			}
		})
	}
}

// TestUnalignedWireCodecCharging checks the codec interaction: with a wire
// codec installed, encoded bytes plus bytes saved must equal the raw region
// size — a tail page charged at full page size would break the identity.
func TestUnalignedWireCodecCharging(t *testing.T) {
	length := int64(3*PageBytes + 777)
	rig := newUnalignedRig(t, 64, length, seqPrefetch{n: 3}, true)
	rig.tr.SetWireCodec(codec.ByteRun)
	buf := make([]byte, length)
	if err := rig.c.Read(rig.clk, rig.c.Base(), buf); err != nil {
		t.Fatal(err)
	}
	moved, saved := rig.tr.BytesMoved(), rig.tr.Stats().WireSaved
	if moved+saved != length {
		t.Fatalf("codec charging: moved %d + saved %d != raw %d", moved, saved, length)
	}
}

// TestFaultsInRangeClamping pins the interval-intersection semantics: the
// query range is clipped to the region, and empty or disjoint queries report
// zero instead of aliasing a neighbor page's counts (or, for length 0, an
// address underflow).
func TestFaultsInRangeClamping(t *testing.T) {
	length := int64(2*PageBytes + 100) // 3 pages, short tail
	rig := newUnalignedRig(t, 64, length, nil, false)
	c, clk := rig.c, rig.clk
	// Fault each page once.
	buf := make([]byte, 1)
	for _, off := range []uint64{0, PageBytes, 2 * PageBytes} {
		if err := c.Read(clk, c.Base()+off, buf); err != nil {
			t.Fatal(err)
		}
	}
	base, end := c.Base(), c.Base()+uint64(length)
	cases := []struct {
		name   string
		far    uint64
		length int64
		want   int64
	}{
		{"whole region", base, length, 3},
		{"first page only", base, PageBytes, 1},
		{"tail page only", base + 2*PageBytes, 100, 1},
		{"overhanging end", base + 2*PageBytes, 10 * PageBytes, 1},
		{"starts below base", base - PageBytes, PageBytes + 10, 1},
		{"entirely below base", base - 2*PageBytes, PageBytes, 0},
		{"entirely past end", end + PageBytes, PageBytes, 0},
		{"zero length", base, 0, 0},
		{"negative length", base, -5, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := c.FaultsInRange(tc.far, tc.length); got != tc.want {
				t.Fatalf("FaultsInRange(%#x, %d) = %d, want %d", tc.far, tc.length, got, tc.want)
			}
		})
	}
}
