package cache

import (
	"fmt"
	"testing"
)

// Wall-clock micro-benchmarks of the section hot paths: the simulator's
// throughput is dominated by Lookup/Reserve, so regressions here slow every
// experiment.

func benchSection(b *testing.B, structure Structure) {
	cfg := Config{Name: "b", Structure: structure, Ways: 4, LineBytes: 128, SizeBytes: 1 << 20}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Warm a working set.
	const lines = 1024
	for i := uint64(0); i < lines; i++ {
		s.Reserve(i * 128)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Lookup(uint64(i%lines) * 128)
	}
}

func BenchmarkLookupHitDirect(b *testing.B)   { benchSection(b, Direct) }
func BenchmarkLookupHitSetAssoc(b *testing.B) { benchSection(b, SetAssoc) }
func BenchmarkLookupHitFullAssoc(b *testing.B) {
	benchSection(b, FullAssoc)
}

func BenchmarkReserveEvictCycle(b *testing.B) {
	for _, st := range []Structure{Direct, SetAssoc, FullAssoc} {
		b.Run(fmt.Sprint(st), func(b *testing.B) {
			cfg := Config{Name: "b", Structure: st, Ways: 4, LineBytes: 128, SizeBytes: 64 << 10}
			s, _ := New(cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := uint64(i) * 128
				if _, ok := s.Lookup(addr); !ok {
					s.Reserve(addr)
				}
			}
		})
	}
}
