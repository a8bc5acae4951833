package offload

import (
	"fmt"
	"slices"
	"testing"

	"mira/internal/cluster"
	"mira/internal/sim"
)

// TestPartitionSpreadsOverReplicas pins the placement table the scale-out
// benchmark's distagg array gets (4 nodes, R=2, 64 KiB stripes, pool seed
// 1): four stripes whose home pairs are {2,1}, {3,1}, {2,3} and {1,0}. Sent
// to each stripe's first home, node 2 would reduce two stripes and node 0
// none; the partition gives every node one stripe.
func TestPartitionSpreadsOverReplicas(t *testing.T) {
	const n = 1 << 15
	co := cluster.Options{Nodes: 4, Replicas: 2, Seed: 1, StripeBytes: 64 << 10}
	objs := []testObject{{name: "a", elemBytes: 8, count: n}}
	e, res := newTestEngine(t, co, Config{}, objs, [][]byte{make([]byte, 8*n)})
	table := sortedTable(e)

	var homes [][]int
	for _, ent := range table {
		if ent.VBase < res[0].base || ent.VBase >= res[0].base+8*n {
			continue
		}
		var hs []int
		for _, h := range ent.Homes {
			hs = append(hs, h.Node)
		}
		homes = append(homes, hs)
	}
	if got, want := fmt.Sprint(homes), "[[2 1] [3 1] [2 3] [1 0]]"; got != want {
		t.Fatalf("stripe homes %s, want %s: the pool's placement changed, re-pin this table", got, want)
	}

	subs, err := e.partition(res[0].base, 8, [][2]int64{{0, n}}, 0, table)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int][][2]int64{}
	for _, sb := range subs {
		got[sb.node] = sb.ranges
		if sb.elems != n/4 {
			t.Errorf("node %d reduces %d elements, want %d", sb.node, sb.elems, n/4)
		}
	}
	want := map[int][][2]int64{
		1: {{0, 8192}},
		3: {{8192, 16384}},
		2: {{16384, 24576}},
		0: {{24576, 32768}},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("partition %v, want %v", got, want)
	}
}

// TestPartitionBalancesUnderLoss: on random placement tables, with random
// nodes lost, the partition covers every element once, serves each segment
// from a surviving home, and gives no node more segments than an exhaustive
// search over home choices needs.
func TestPartitionBalancesUnderLoss(t *testing.T) {
	searched := 0
	for seed := uint64(1); seed <= 60; seed++ {
		rng := sim.NewRNG(seed)
		co := cluster.Options{Nodes: 2 + rng.Intn(4), Seed: seed, StripeBytes: 512}
		co.Replicas = 1 + rng.Intn(co.Nodes)
		count := int64(64 + rng.Intn(512))
		objs := []testObject{{name: "a", elemBytes: 8, count: count}}
		e, res := newTestEngine(t, co, Config{}, objs, [][]byte{make([]byte, 8*count)})
		table := sortedTable(e)
		lo := int64(rng.Intn(int(count / 2)))
		ranges := [][2]int64{{lo, lo + 1 + int64(rng.Intn(int(count-lo)))}}
		for i := range e.lost {
			e.lost[i] = rng.Intn(4) == 0
		}
		subs, err := e.spread(res[0].base, 8, ranges, table)
		if err != nil {
			continue // every replica of some stripe lost
		}
		// The segments, re-derived, and where the partition put each.
		type seg struct {
			homes []int
			node  int
		}
		var segs []seg
		covered := int64(0)
		for _, sb := range subs {
			if e.lost[sb.node] {
				t.Fatalf("seed %d: node %d is lost but serves %v", seed, sb.node, sb.ranges)
			}
			for _, r := range sb.ranges {
				covered += r[1] - r[0]
			}
		}
		if covered != ranges[0][1]-ranges[0][0] {
			t.Fatalf("seed %d: subs cover %d elements, want %d", seed, covered, ranges[0][1]-ranges[0][0])
		}
		for el := ranges[0][0]; el < ranges[0][1]; {
			ent := entryFor(table, res[0].base+uint64(el)*8)
			end := min(ranges[0][1], int64((ent.VBase+ent.Size-res[0].base+7)/8))
			var hs []int
			for _, h := range ent.Homes {
				if !e.lost[h.Node] {
					hs = append(hs, h.Node)
				}
			}
			node := -1
			for _, sb := range subs {
				for _, r := range sb.ranges {
					if r[0] <= el && el < r[1] {
						node = sb.node
					}
				}
			}
			if !slices.Contains(hs, node) {
				t.Fatalf("seed %d: element %d served by node %d, surviving homes %v", seed, el, node, hs)
			}
			segs = append(segs, seg{hs, node})
			el = end
		}
		got := 0
		load := make([]int, co.Nodes)
		for _, s := range segs {
			load[s.node]++
			got = max(got, load[s.node])
		}
		// Exhaustive minimum of the most-loaded node's segment count.
		best := len(segs)
		var search func(i int)
		search = func(i int) {
			if i == len(segs) {
				best = min(best, slices.Max(load))
				return
			}
			for _, h := range segs[i].homes {
				load[h]++
				if load[h] < best {
					search(i + 1)
				}
				load[h]--
			}
		}
		clear(load)
		if len(segs) <= 8 {
			searched++
			search(0)
			if got != best {
				t.Errorf("seed %d: most-loaded node serves %d segments, an exhaustive search needs %d", seed, got, best)
			}
		}
	}
	if searched < 30 {
		t.Errorf("only %d of 60 seeds reached the exhaustive comparison", searched)
	}
}
