package main

import (
	"strings"
	"testing"
)

func flags(mutate func(*runFlags)) runFlags {
	f := runFlags{System: "mira", Compress: "off", Threads: 1, Set: map[string]bool{}}
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
		{"bad-compress", func(f *runFlags) { f.Compress = "gzip" }, "-compress"},
		{"bad-plane", func(f *runFlags) { f.Plane = "both" }, "-plane"},
		{"plane-hybrid-ok", func(f *runFlags) { f.Plane = "hybrid" }, ""},
		{"plane-page-ok", func(f *runFlags) { f.Plane = "page" }, ""},
		{"plane-wrong-system", func(f *runFlags) { f.Plane = "hybrid"; f.System = "fastswap" }, "-plane"},
		{"plane-with-prefetch", func(f *runFlags) { f.Plane = "line"; f.Prefetch = "leap" }, "mutually exclusive"},
		{"plane-with-threads", func(f *runFlags) { f.Plane = "hybrid"; f.Threads = 4 }, "-threads"},
		{"plane-with-threads-1", func(f *runFlags) { f.Plane = "hybrid"; f.Set["threads"] = true }, "-threads"},
		{"plane-with-nodes-ok", func(f *runFlags) { f.Plane = "hybrid"; f.Nodes = 4 }, ""},
		{"window-without-prefetch", func(f *runFlags) { f.PrefetchWindow = 32; f.Set["prefetch-window"] = true }, "-prefetch"},
		{"window-with-prefetch-ok", func(f *runFlags) {
			f.Prefetch = "programmed"
			f.PrefetchWindow = 32
			f.Set["prefetch-window"] = true
		}, ""},
		{"window-default-ok", func(f *runFlags) { f.PrefetchWindow = 0 }, ""},
		{"window-with-leap", func(f *runFlags) {
			f.Prefetch = "leap"
			f.PrefetchWindow = 32
			f.Set["prefetch-window"] = true
		}, "-prefetch programmed"},
		{"prefetch-unknown", func(f *runFlags) { f.Prefetch = "stride" }, "unknown -prefetch"},
		{"prefetch-unknown-page-plane", func(f *runFlags) { f.Prefetch = "oracle"; f.System = "fastswap" }, "unknown -prefetch"},
		{"prefetch-history-ok", func(f *runFlags) { f.Prefetch = "history"; f.System = "leap" }, ""},
		{"prefetch-compiled-ok", func(f *runFlags) { f.Prefetch = "compiled" }, ""},
		{"prefetch-compiled-page-plane", func(f *runFlags) { f.Prefetch = "compiled"; f.System = "mira-swap" }, "-system mira"},
		{"prefetch-with-threads", func(f *runFlags) { f.Prefetch = "leap"; f.Threads = 2 }, "-threads"},
		{"threads-with-faults", func(f *runFlags) { f.Threads = 4; f.Faults = "crash" }, "-faults"},
		{"threads-faults-none-ok", func(f *runFlags) { f.Threads = 4; f.Faults = "none" }, ""},
		{"threads-with-nodes", func(f *runFlags) { f.Threads = 4; f.Nodes = 2 }, "-nodes"},
		{"tier-without-nodes", func(f *runFlags) { f.TierDRAM = 1 << 20 }, "-nodes"},
		{"tier-with-nodes-ok", func(f *runFlags) { f.TierDRAM = 1 << 20; f.Nodes = 2 }, ""},
		{"replicas-without-nodes", func(f *runFlags) { f.Set["replicas"] = true }, "-nodes"},
		{"stripe-without-nodes", func(f *runFlags) { f.Set["stripe"] = true }, "-nodes"},
		{"faultnode-without-nodes", func(f *runFlags) { f.Set["fault-node"] = true }, "-nodes"},
		{"replicas-with-nodes-ok", func(f *runFlags) { f.Set["replicas"] = true; f.Nodes = 3 }, ""},
		{"bad-offload", func(f *runFlags) { f.Offload = "maybe" }, "-offload"},
		{"offload-on-ok", func(f *runFlags) { f.Offload = "on"; f.Nodes = 4 }, ""},
		{"offload-auto-ok", func(f *runFlags) { f.Offload = "auto" }, ""},
		{"offload-off-ok", func(f *runFlags) { f.Offload = "off" }, ""},
		{"offload-wrong-system", func(f *runFlags) { f.Offload = "on"; f.System = "fastswap" }, "-system mira"},
		{"offload-off-any-system-ok", func(f *runFlags) { f.Offload = "off"; f.System = "leap" }, ""},
		{"offload-with-threads", func(f *runFlags) { f.Offload = "on"; f.Threads = 4 }, "-threads"},
		{"offload-with-plane-ok", func(f *runFlags) { f.Offload = "auto"; f.Plane = "hybrid" }, ""},
		{"chunk-without-offload", func(f *runFlags) { f.OffloadChunk = 4096; f.Set["offload-chunk"] = true }, "-offload"},
		{"chunk-with-offload-off", func(f *runFlags) {
			f.Offload = "off"
			f.OffloadChunk = 4096
			f.Set["offload-chunk"] = true
		}, "-offload"},
		{"chunk-with-offload-ok", func(f *runFlags) {
			f.Offload = "on"
			f.OffloadChunk = 4096
			f.Set["offload-chunk"] = true
		}, ""},
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
