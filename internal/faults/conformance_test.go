package faults_test

import (
	"testing"

	"mira/internal/farmem"
	"mira/internal/faults"
	"mira/internal/sim"
	"mira/internal/transport"
	"mira/internal/transport/transporttest"
)

// TestInjectorConformance proves the fault injector is transparent when its
// config injects nothing: same Backend contract as the raw node backend.
func TestInjectorConformance(t *testing.T) {
	transporttest.Conformance(t, func(t *testing.T) transporttest.Instance {
		node := farmem.NewNode(farmem.DefaultNodeConfig())
		return transporttest.Instance{
			Backend: faults.Wrap(transport.NewNodeBackend(node), node.WipeMemory, faults.Config{Seed: 42}),
			Node:    node,
		}
	})
}

// TestInjectorConformanceWithDelays runs the contract with delay injection
// active. Delays perturb completion times but never payloads or checksums,
// and the DeterministicReplay clause must still hold — two injectors with
// the same seed replay identical delay sequences.
func TestInjectorConformanceWithDelays(t *testing.T) {
	transporttest.Conformance(t, func(t *testing.T) transporttest.Instance {
		node := farmem.NewNode(farmem.DefaultNodeConfig())
		cfg := faults.Config{
			Seed:      7,
			DelayRate: 0.5,
			DelayMin:  1 * sim.Microsecond,
			DelayMax:  20 * sim.Microsecond,
		}
		return transporttest.Instance{Backend: faults.Wrap(transport.NewNodeBackend(node), node.WipeMemory, cfg), Node: node}
	})
}
