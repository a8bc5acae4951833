package transport_test

import (
	"bytes"
	"testing"

	"mira/internal/farmem"
	"mira/internal/netmodel"
	"mira/internal/transport"
	"mira/internal/transport/transporttest"
)

// What the other suites rely on when they run under transporttest.Scribble:
// a consumer that copies the reply out before its next call sees real bytes,
// one that keeps the reply across any call — a read, a write, a stats
// snapshot — finds it overwritten.
func TestScribbleLinkSpoilsAKeptReply(t *testing.T) {
	node := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 20, CPUSlowdown: 1})
	base, err := node.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x11, 0x22}, 64)
	if err := node.Write(base, want); err != nil {
		t.Fatal(err)
	}
	link := transporttest.Scribble(transport.New(node, netmodel.DefaultConfig()))
	for name, next := range map[string]func(){
		"ReadOneSided": func() { link.ReadOneSided(0, base, make([]byte, 8)) },
		"BreakerOpen":  func() { link.BreakerOpen(0) },
		"Stats":        func() { link.Stats() },
		"GatherOneSided": func() {
			link.GatherOneSided(0, []uint64{base + 1024}, []int{8})
		},
	} {
		kept, _, err := link.GatherTwoSided(0, []uint64{base, base + 64}, []int{64, 64})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kept, want) {
			t.Fatalf("%s: gather returned %x", name, kept)
		}
		copied := append([]byte(nil), kept...)
		next()
		if !bytes.Equal(copied, want) {
			t.Fatalf("%s: the copy changed", name)
		}
		if bytes.Equal(kept, want) {
			t.Fatalf("after %s the kept reply still reads as valid", name)
		}
	}
}

// CRC32C, not IEEE: the check value of the Castagnoli polynomial.
func TestChecksumIsCRC32C(t *testing.T) {
	if got := farmem.Checksum([]byte("123456789")); got != 0xE3069283 {
		t.Fatalf("Checksum(\"123456789\") = %#x, want the CRC32C check value 0xe3069283", got)
	}
}
