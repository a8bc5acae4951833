package main

import (
	"math"
	"strings"
	"testing"
)

func flags(mutate func(*runFlags)) runFlags {
	f := runFlags{System: "mira", Mem: 0.5, Compress: "off", Threads: 1, Replicas: 1, Stripe: 64 << 10, Set: map[string]bool{}}
	if mutate != nil {
		mutate(&f)
	}
	return f
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*runFlags)
		wantErr string // "" = must pass
	}{
		{"defaults", nil, ""},
		{"bad-compress", func(f *runFlags) { f.Compress = "gzip" }, "unknown Compress mode"},
		{"bad-plane", func(f *runFlags) { f.Plane = "both" }, "unknown Plane mode"},
		{"plane-hybrid-ok", func(f *runFlags) { f.Plane = "hybrid" }, ""},
		{"plane-page-ok", func(f *runFlags) { f.Plane = "page" }, ""},
		{"plane-wrong-system", func(f *runFlags) { f.Plane = "hybrid"; f.System = "fastswap" }, "-plane"},
		{"plane-with-prefetch", func(f *runFlags) { f.Plane = "line"; f.Prefetch = "leap" }, "does not apply to the line-plane"},
		{"plane-with-threads", func(f *runFlags) { f.Plane = "hybrid"; f.Threads = 4 }, "-threads"},
		{"plane-with-threads-1", func(f *runFlags) { f.Plane = "hybrid"; f.Set["threads"] = true }, "-threads"},
		{"plane-with-nodes-ok", func(f *runFlags) { f.Plane = "hybrid"; f.Nodes = 4 }, ""},
		{"prefetch-unknown", func(f *runFlags) { f.Prefetch = "stride" }, "unknown -prefetch"},
		{"prefetch-unknown-page-plane", func(f *runFlags) { f.Prefetch = "oracle"; f.System = "fastswap" }, "unknown -prefetch"},
		{"prefetch-history-ok", func(f *runFlags) { f.Prefetch = "history"; f.System = "leap" }, ""},
		{"prefetch-compiled-ok", func(f *runFlags) { f.Prefetch = "compiled" }, ""},
		{"prefetch-compiled-page-plane", func(f *runFlags) { f.Prefetch = "compiled"; f.System = "mira-swap" }, "-system mira"},
		{"prefetch-with-threads", func(f *runFlags) { f.Prefetch = "leap"; f.Threads = 2 }, "-threads"},
		{"threads-with-faults", func(f *runFlags) { f.Threads = 4; f.Faults = "crash" }, "-faults"},
		{"threads-faults-none-ok", func(f *runFlags) { f.Threads = 4; f.Faults = "none" }, ""},
		{"threads-with-nodes", func(f *runFlags) { f.Threads = 4; f.Nodes = 2 }, "-nodes"},
		{"tier-without-nodes-ok", func(f *runFlags) { f.TierDRAM = 1 << 20 }, ""},
		{"tier-with-nodes-ok", func(f *runFlags) { f.TierDRAM = 1 << 20; f.Nodes = 2 }, ""},
		{"tier-with-aifm-ok", func(f *runFlags) { f.System = "aifm"; f.TierDRAM = 1 << 20 }, ""},
		{"tier-with-native", func(f *runFlags) { f.System = "native"; f.TierDRAM = 1 << 20 }, "-tier-dram applies only"},
		{"tier-with-threads", func(f *runFlags) { f.Threads = 4; f.TierDRAM = 1 << 20 }, "-tier-dram does not apply to the -threads driver"},
		{"tier-zero-ok", func(f *runFlags) { f.TierDRAM = 0; f.Set["tier-dram"] = true }, ""},
		{"tier-negative", func(f *runFlags) { f.TierDRAM = -1; f.Set["tier-dram"] = true }, "-tier-dram -1"},
		{"replicas-without-nodes", func(f *runFlags) { f.Set["replicas"] = true }, "-nodes"},
		{"stripe-without-nodes", func(f *runFlags) { f.Set["stripe"] = true }, "-nodes"},
		{"faultnode-without-nodes", func(f *runFlags) { f.Set["fault-node"] = true }, "-nodes"},
		{"replicas-with-nodes-ok", func(f *runFlags) { f.Set["replicas"] = true; f.Nodes = 3 }, ""},
		// Values the run would otherwise replace with a default or run as given.
		{"mem-zero", func(f *runFlags) { f.Mem = 0 }, "-mem 0"},
		{"mem-negative", func(f *runFlags) { f.Mem = -1 }, "-mem -1"},
		{"mem-zero-fastswap", func(f *runFlags) { f.System = "fastswap"; f.Mem = 0 }, "-mem 0"},
		{"mem-nan", func(f *runFlags) { f.Mem = math.NaN() }, "-mem NaN"},
		{"mem-inf", func(f *runFlags) { f.Mem = math.Inf(1) }, "-mem +Inf"},
		{"mem-small-ok", func(f *runFlags) { f.Mem = 0.01 }, ""},
		{"mem-above-one-ok", func(f *runFlags) { f.Mem = 1.5 }, ""},
		{"threads-zero", func(f *runFlags) { f.Threads = 0; f.Set["threads"] = true }, "-threads 0"},
		{"threads-negative", func(f *runFlags) { f.Threads = -2; f.Set["threads"] = true }, "-threads -2"},
		{"threads-one-ok", func(f *runFlags) { f.Threads = 1; f.Set["threads"] = true }, ""},
		{"stripe-zero", func(f *runFlags) { f.Nodes = 2; f.Stripe = 0; f.Set["stripe"] = true }, "-stripe 0"},
		{"stripe-negative", func(f *runFlags) { f.Nodes = 2; f.Stripe = -4096; f.Set["stripe"] = true }, "-stripe -4096"},
		{"stripe-with-nodes-ok", func(f *runFlags) { f.Nodes = 2; f.Stripe = 4096; f.Set["stripe"] = true }, ""},
		{"bad-offload", func(f *runFlags) { f.Offload = "maybe" }, "unknown Offload mode"},
		{"offload-on-ok", func(f *runFlags) { f.Offload = "on"; f.Nodes = 4 }, ""},
		{"offload-auto-ok", func(f *runFlags) { f.Offload = "auto" }, ""},
		{"offload-off-ok", func(f *runFlags) { f.Offload = "off" }, ""},
		{"offload-wrong-system", func(f *runFlags) { f.Offload = "on"; f.System = "fastswap" }, "-system mira"},
		{"offload-off-any-system-ok", func(f *runFlags) { f.Offload = "off"; f.System = "leap" }, ""},
		{"offload-with-threads", func(f *runFlags) { f.Offload = "on"; f.Threads = 4 }, "-threads"},
		{"offload-with-plane-ok", func(f *runFlags) { f.Offload = "auto"; f.Plane = "hybrid" }, ""},
		{"private-sections-without-threads", func(f *runFlags) { f.Set["private-sections"] = true }, "-threads"},
		{"private-sections-with-fastswap", func(f *runFlags) {
			f.System = "fastswap"
			f.Threads = 4
			f.Set["private-sections"] = true
		}, "-system mira"},
		{"private-sections-ok", func(f *runFlags) { f.Threads = 4; f.Set["private-sections"] = true }, ""},
		{"compress-with-fastswap", func(f *runFlags) { f.Compress = "on"; f.System = "fastswap" }, "-system mira"},
		{"compress-auto-with-native", func(f *runFlags) { f.Compress = "auto"; f.System = "native" }, "-system mira"},
		{"compress-mira-swap-ok", func(f *runFlags) { f.Compress = "on"; f.System = "mira-swap" }, ""},
		{"compress-off-any-system-ok", func(f *runFlags) { f.Compress = "off"; f.System = "leap" }, ""},
		{"aifm-chunk-with-mira", func(f *runFlags) { f.Set["aifm-chunk"] = true }, "-system aifm"},
		{"aifm-meta-with-fastswap", func(f *runFlags) { f.System = "fastswap"; f.Set["aifm-meta"] = true }, "-system aifm"},
		{"aifm-flags-ok", func(f *runFlags) {
			f.System = "aifm"
			f.Set["aifm-chunk"] = true
			f.Set["aifm-meta"] = true
		}, ""},
		{"fault-seed-without-faults", func(f *runFlags) { f.Set["fault-seed"] = true }, "-faults"},
		{"fault-seed-with-faults-none", func(f *runFlags) { f.Faults = "none"; f.Set["fault-seed"] = true }, "-faults"},
		{"fault-seed-with-faults-ok", func(f *runFlags) { f.Faults = "chaos"; f.Set["fault-seed"] = true }, ""},
		// Pool ranges: cluster.Options clamps them, so an out-of-range value
		// would run a different pool than the one asked for.
		{"replicas-above-nodes", func(f *runFlags) { f.Nodes = 2; f.Replicas = 3; f.Set["replicas"] = true }, "-replicas 3"},
		{"replicas-zero", func(f *runFlags) { f.Nodes = 2; f.Replicas = 0; f.Set["replicas"] = true }, "-replicas 0"},
		{"replicas-equal-nodes-ok", func(f *runFlags) { f.Nodes = 2; f.Replicas = 2; f.Set["replicas"] = true }, ""},
		{"fault-node-out-of-range", func(f *runFlags) {
			f.Nodes = 2
			f.Faults = "crash"
			f.FaultNode = 7
			f.Set["fault-node"] = true
		}, "-fault-node 7"},
		{"fault-node-negative", func(f *runFlags) { f.Nodes = 2; f.FaultNode = -1; f.Set["fault-node"] = true }, "-fault-node -1"},
		{"fault-node-last-ok", func(f *runFlags) {
			f.Nodes = 2
			f.Faults = "crash"
			f.FaultNode = 1
			f.Set["fault-node"] = true
		}, ""},
		{"fault-node-without-faults", func(f *runFlags) { f.Nodes = 2; f.FaultNode = 1; f.Set["fault-node"] = true }, "-faults"},
		// Flags the chosen driver does not read.
		{"threads-with-batch-false", func(f *runFlags) { f.Threads = 2; f.NoBatch = true }, "-batch does not apply to the -threads driver"},
		{"threads-with-compress", func(f *runFlags) { f.Threads = 2; f.Compress = "on" }, "-compress does not apply to the -threads driver"},
		{"threads-with-leap", func(f *runFlags) { f.Threads = 2; f.System = "leap" }, "-system mira or fastswap"},
		{"compress-with-page-prefetch", func(f *runFlags) {
			f.System = "mira-swap"
			f.Prefetch = "history"
			f.Compress = "on"
		}, "-compress does not apply to the page-plane -prefetch runner"},
		{"prefetch-with-aifm", func(f *runFlags) { f.System = "aifm"; f.Prefetch = "leap" }, "-system mira, mira-swap, fastswap or leap"},
		// The line-plane runner plans with the plain run's planner options.
		{"line-prefetch-with-planner-flags-ok", func(f *runFlags) {
			f.Prefetch = "history"
			f.Compress = "auto"
			f.Offload = "on"
			f.NoBatch = true
		}, ""},
		{"batch-false-with-page-prefetch-ok", func(f *runFlags) { f.System = "leap"; f.Prefetch = "history"; f.NoBatch = true }, ""},
		{"batch-false-with-fastswap-page-prefetch-ok", func(f *runFlags) {
			f.System = "fastswap"
			f.Prefetch = "readahead"
			f.NoBatch = true
		}, ""},
		// A plain fastswap, mira-swap, aifm or native run batches nothing.
		{"batch-false-ok", func(f *runFlags) { f.NoBatch = true }, ""},
		{"batch-false-with-leap-ok", func(f *runFlags) { f.System = "leap"; f.NoBatch = true }, ""},
		{"batch-false-with-fastswap", func(f *runFlags) { f.System = "fastswap"; f.NoBatch = true }, "-system mira or leap"},
		{"batch-false-with-mira-swap", func(f *runFlags) { f.System = "mira-swap"; f.NoBatch = true }, "-system mira or leap"},
		{"batch-false-with-aifm", func(f *runFlags) { f.System = "aifm"; f.NoBatch = true }, "-system mira or leap"},
		{"batch-false-with-native", func(f *runFlags) { f.System = "native"; f.NoBatch = true }, "-system mira or leap"},
		// A native run holds everything local.
		{"nodes-with-native", func(f *runFlags) { f.System = "native"; f.Nodes = 2 }, "-nodes applies only"},
		// aifm keeps its objects on the pool like every other far system.
		{"nodes-with-aifm-ok", func(f *runFlags) { f.System = "aifm"; f.Nodes = 2 }, ""},
		{"aifm-pool-flags-ok", func(f *runFlags) {
			f.System = "aifm"
			f.Nodes = 4
			f.Replicas = 2
			f.Faults = "crash-wipe"
			f.FaultNode = 1
			f.Set["replicas"] = true
			f.Set["stripe"] = true
			f.Set["fault-node"] = true
		}, ""},
		{"faults-with-native", func(f *runFlags) { f.System = "native"; f.Faults = "crash" }, "-faults applies only"},
	}
	for _, c := range cases {
		err := validateFlags(flags(c.mutate))
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: invalid combination accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}
