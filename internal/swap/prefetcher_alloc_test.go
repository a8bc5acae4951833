//go:build !race

package swap_test

import (
	"math/rand"
	"testing"

	"mira/internal/netmodel"
	"mira/internal/prefetch"
	"mira/internal/sim"
	"mira/internal/swap"
	"mira/internal/transport/transporttest"
)

// TestFaultsUnderPrefetchersAllocatesNothing: major faults and the minor
// faults on the pages they prefetched allocate nothing on a warm cache —
// the policy appends its proposals to the cache's scratch — under readahead
// (the FastSwap baseline's policy) and under the zoo's History with its
// tables full, evicting a context on almost every fault.
func TestFaultsUnderPrefetchersAllocatesNothing(t *testing.T) {
	const pages = 256
	// A repeating irregular cycle History learns, with one page in four
	// drawn at random: misses and prefetched touches both, and new contexts
	// throughout.
	rng := rand.New(rand.NewSource(1))
	cycle := make([]int64, 24)
	for i := range cycle {
		cycle[i] = rng.Int63n(pages)
	}
	stream := make([]int64, 4096)
	for i := range stream {
		stream[i] = cycle[i%len(cycle)]
		if i%4 == 3 {
			stream[i] = rng.Int63n(pages)
		}
	}
	history := prefetch.NewHistory(prefetch.HistoryConfig{MaxEntries: 64})
	for _, tc := range []struct {
		name string
		pf   prefetch.Policy
	}{
		{"Readahead{N: 2}", prefetch.Readahead{N: 2}},
		{"History", history},
	} {
		cfg := swap.DefaultConfig(16 * swap.PageBytes)
		cfg.BatchPrefetch = true
		cfg.Net = netmodel.DefaultConfig()
		c, err := swap.New(cfg, &transporttest.QuietLink{Reply: make([]byte, 16*swap.PageBytes)}, 1<<32, pages*swap.PageBytes, tc.pf)
		if err != nil {
			t.Fatal(err)
		}
		clk := sim.NewClock(0)
		var buf [8]byte
		next := 0
		run := func() {
			for range 256 {
				_ = c.Write(clk, c.Base()+uint64(stream[next])*swap.PageBytes, buf[:])
				next = (next + 1) % len(stream)
			}
		}
		for range 2 * len(stream) / 256 {
			run()
		}
		before := c.Stats()
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("%s: %v allocs per 256 accesses, want 0", tc.name, n)
		}
		if st := c.Stats(); st.MajorFaults == before.MajorFaults || st.MinorFaults == before.MinorFaults {
			t.Fatalf("%s: %d major and %d minor faults in the measured runs: the test needs both",
				tc.name, st.MajorFaults-before.MajorFaults, st.MinorFaults-before.MinorFaults)
		}
	}
}
