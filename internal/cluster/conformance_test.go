package cluster_test

import (
	"testing"

	"mira/internal/cluster"
	"mira/internal/farmem"
	"mira/internal/faults"
	"mira/internal/netmodel"
	"mira/internal/transport/transporttest"
)

// TestClusterPerNodeBackendConformance runs the shared Backend contract
// against every per-node backend of a pool — both the raw node backends
// and one wrapped in a (quiet) fault domain — completing the three-way
// alignment with the plain and fault-injected backends.
func TestClusterPerNodeBackendConformance(t *testing.T) {
	const nodes = 3
	for i := 0; i < nodes; i++ {
		i := i
		t.Run(nodeName(i), func(t *testing.T) {
			transporttest.Conformance(t, func(t *testing.T) transporttest.Instance {
				p, err := cluster.New(cluster.Options{
					Nodes:    nodes,
					Replicas: 2,
					Seed:     1,
					NodeCfg:  farmem.NodeConfig{Capacity: 1 << 24, CPUSlowdown: 3},
					Net:      netmodel.DefaultConfig(),
					// A fault domain on node 0 that injects nothing except
					// determinism-preserving delays.
					Faults: []*faults.Config{{Seed: 11, DelayRate: 0.25, DelayMin: 1000, DelayMax: 5000}},
				})
				if err != nil {
					t.Fatal(err)
				}
				return transporttest.Instance{Backend: p.Backend(i), Node: p.FarNode(i)}
			})
		})
	}
}

// TestClusterTieredBackendConformance runs the contract against per-node
// backends with a capacity tier of two granules behind them, one of them
// also inside a quiet fault domain: reads and writes of more granules than
// DRAM holds demote granules to flash and promote them back with CopyIn, and
// every sum the tier's node answers must still cover what it returns.
func TestClusterTieredBackendConformance(t *testing.T) {
	const nodes = 2
	for i := 0; i < nodes; i++ {
		t.Run(nodeName(i), func(t *testing.T) {
			transporttest.Conformance(t, func(t *testing.T) transporttest.Instance {
				p, err := cluster.New(cluster.Options{
					Nodes:   nodes,
					Seed:    1,
					NodeCfg: farmem.NodeConfig{Capacity: 1 << 24, CPUSlowdown: 3},
					Net:     netmodel.DefaultConfig(),
					Tier:    &cluster.TierConfig{DRAMBytes: 2 * farmem.GranuleBytes},
					Faults:  []*faults.Config{{Seed: 11, DelayRate: 0.25, DelayMin: 1000, DelayMax: 5000}},
				})
				if err != nil {
					t.Fatal(err)
				}
				return transporttest.Instance{Backend: p.Backend(i), Node: p.FarNode(i)}
			})
		})
	}
}

func nodeName(i int) string {
	return "node" + string(rune('0'+i))
}
