// Concurrency smoke test: many goroutines hammer one farmem.Node through
// one resilient transport (and the shared netmodel.Bandwidth accountant),
// with the fault injector in the path. Run under `go test -race` — the CI
// configuration — this flushes out locking bugs across the whole far-memory
// data path. It lives in an external test package so it can wire in
// internal/faults without an import cycle.
package transport_test

import (
	"sync"
	"testing"

	"mira/internal/farmem"
	"mira/internal/faults"
	"mira/internal/netmodel"
	"mira/internal/sim"
	"mira/internal/transport"
)

func TestConcurrentOpsUnderFaultsRace(t *testing.T) {
	node := farmem.NewNode(farmem.NodeConfig{Capacity: 1 << 22, CPUSlowdown: 2})
	node.Register("echo", func(_ *farmem.Mem, args []byte) ([]byte, sim.Duration, error) {
		return args, sim.Microsecond, nil
	})
	tr := transport.New(node, netmodel.DefaultConfig())
	base, err := node.Alloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(node, faults.Config{
		Seed:      99,
		ErrorRate: 0.01,
		DelayRate: 0.02,
		DelayMin:  sim.Microsecond,
		DelayMax:  10 * sim.Microsecond,
		// No corruption: concurrent bit flips on shared buffers are not a
		// scenario the single-clock simulator produces.
	})
	tr.SetBackend(inj)

	const (
		workers = 8
		opsEach = 150
		stride  = 4096
	)
	// A gather reply belongs to the link until the link's next gather
	// (transport.Link), so callers that share a link take turns for the
	// gather and for reading its reply; everything else stays unserialized.
	var gatherMu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			addr := base + uint64(g*stride)
			buf := make([]byte, 64)
			for i := 0; i < opsEach; i++ {
				at := sim.Time(i * 100)
				switch i % 5 {
				case 0:
					tr.WriteOneSided(at, addr, buf)
				case 1:
					tr.ReadOneSided(at, addr, buf)
				case 2:
					gatherMu.Lock()
					if data, _, err := tr.GatherTwoSided(at, []uint64{addr, addr + 64}, []int{32, 32}); err == nil {
						for _, v := range data {
							if v != 0 {
								t.Errorf("worker %d: gather returned %#x, nobody writes non-zero bytes", g, v)
								break
							}
						}
					}
					gatherMu.Unlock()
				case 3:
					tr.ScatterTwoSided(at, []uint64{addr, addr + 64}, [][]byte{buf[:32], buf[32:]})
				case 4:
					tr.Call(at, "echo", buf[:8])
				}
				// Errors are expected under injection; the test's assertion
				// is the race detector staying quiet.
			}
		}(g)
	}
	wg.Wait()

	if tr.BW.Transfers() == 0 {
		t.Fatal("no transfers completed")
	}
	if inj.Stats().Ops == 0 {
		t.Fatal("injector saw no operations")
	}
	_ = tr.Stats() // snapshot must not race either
}
