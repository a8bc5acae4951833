package harness

import (
	"fmt"
	"testing"

	"mira/internal/apps/arraysum"
	"mira/internal/apps/distagg"
	"mira/internal/apps/graphtraverse"
	"mira/internal/planner"
	"mira/internal/sim"
	"mira/internal/workload"
)

// TestPlaneComposesWithPoolAndOffload runs every plane mode on one node and
// on a 4-node R=2 pool, with offload off and auto. Every cell verifies
// against the native oracle and replays bit for bit. With offload off the
// hybrid race never loses to either pure plane; with offload auto it may,
// because the offload phase starts from whichever plan the race accepted.
func TestPlaneComposesWithPoolAndOffload(t *testing.T) {
	apps := []struct {
		name string
		mk   func() workload.Workload
	}{
		{"arraysum", func() workload.Workload { return arraysum.New(arraysum.Config{N: 8192, Seed: 1}) }},
		{"graph", func() workload.Workload {
			return graphtraverse.New(graphtraverse.Config{Edges: 4096, Nodes: 4096, Passes: 1, Seed: 21})
		}},
		{"distagg", func() workload.Workload { return distagg.New(distagg.Config{N: 1 << 12, Seed: 3}) }},
	}
	for _, app := range apps {
		for _, nodes := range []int{0, 4} {
			for _, offload := range []string{"off", "auto"} {
				times := map[string]sim.Duration{}
				for _, plane := range []string{"page", "line", "hybrid"} {
					cell := fmt.Sprintf("%s/nodes%d/offload-%s/%s", app.name, nodes, offload, plane)
					w := app.mk()
					opts := Options{Budget: w.FullMemoryBytes() / 4, Verify: true,
						Planner: planner.Options{Plane: plane, Offload: offload}}
					if nodes > 0 {
						opts.Nodes, opts.Replicas, opts.StripeBytes = nodes, 2, 4096
					}
					var runs [2]Result
					for i := range runs {
						res, err := Run(Mira, w, opts)
						if err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						runs[i] = res
					}
					a, b := runs[0], runs[1]
					if len(a.Cluster) != max(nodes, 1) { // no -nodes is a one-node pool
						t.Errorf("%s: %d node stats for %d nodes", cell, len(a.Cluster), max(nodes, 1))
					}
					if a.Time != b.Time || a.Messages != b.Messages || a.BytesMoved != b.BytesMoved {
						t.Errorf("%s: replay differs: %v/%d msgs/%d B, then %v/%d msgs/%d B",
							cell, a.Time, a.Messages, a.BytesMoved, b.Time, b.Messages, b.BytesMoved)
					}
					times[plane] = a.Time
					t.Logf("%s: %v", cell, a.Time)
				}
				if offload == "off" && times["hybrid"] > min(times["page"], times["line"]) {
					t.Errorf("%s/nodes%d: hybrid %v lost to a pure plane (page %v, line %v)",
						app.name, nodes, times["hybrid"], times["page"], times["line"])
				}
			}
		}
	}
}
