package planner

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mira/internal/cluster"
	"mira/internal/farmem"
	"mira/internal/trace"
)

// fingerprintFile pins every planning decision of the grid below, one
// "app/mode hash" line per cell.
const fingerprintFile = "testdata/plan_fingerprints.txt"

// fingerprintModes are the option sets the grid plans every ledger app under:
// each planning phase, alone, in each of its modes.
var fingerprintModes = []struct {
	name string
	set  func(o *Options)
}{
	{"default", func(o *Options) {}},
	{"compress-on", func(o *Options) { o.Compress = "on" }},
	{"compress-auto", func(o *Options) { o.Compress = "auto" }},
	{"plane-page", func(o *Options) { o.Plane = "page" }},
	{"plane-line", func(o *Options) { o.Plane = "line" }},
	{"plane-hybrid", func(o *Options) { o.Plane = "hybrid" }},
	{"offload-on", func(o *Options) { o.Offload = "on" }},
	{"offload-auto", func(o *Options) { o.Offload = "auto" }},
	{"offload-auto-pool", func(o *Options) {
		o.Offload = "auto"
		o.Cluster = &cluster.Options{Nodes: 4, Replicas: 2, Seed: 1, StripeBytes: 4096,
			NodeCfg: farmem.DefaultNodeConfig()}
	}},
	{"enable-offload", func(o *Options) { o.EnableOffload = true }},
}

// TestPlanFingerprints plans every ledger app under every mode and hashes what
// a caller can see of the plan — the Result fields the ledger oracle compares,
// the session counts, and the planner trace — against the committed file. A
// refactor of the planning flow must leave every line as it is; on a mismatch
// the test prints the cell's new line.
func TestPlanFingerprints(t *testing.T) {
	want := readFingerprints(t)
	apps := ledgerApps()
	names := make([]string, 0, len(apps))
	for app := range apps {
		names = append(names, app)
	}
	sort.Strings(names)
	seen := map[string]bool{}
	for _, app := range names {
		for _, m := range fingerprintModes {
			cell := app + "/" + m.name
			seen[cell] = true
			got := planFingerprint(t, apps[app](), m.set)
			if want[cell] != got {
				t.Errorf("%s: plan fingerprint %q, committed %q; new line:\n%s %s", cell, got, want[cell], cell, got)
			}
		}
	}
	for cell := range want {
		if !seen[cell] {
			t.Errorf("%s is in %s but not in the grid", cell, fingerprintFile)
		}
	}
}

func readFingerprints(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(fingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			cell, sum, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("%s: malformed line %q", fingerprintFile, line)
			}
			out[cell] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// planFingerprint plans w at a quarter of its footprint under set and hashes
// the outcome. A planning error is part of the outcome.
func planFingerprint(t *testing.T, w Workload, set func(o *Options)) string {
	t.Helper()
	opts := Options{LocalBudget: w.FullMemoryBytes() / 4, Trace: trace.New()}
	set(&opts)
	h := sha256.New()
	res, err := Plan(w, opts)
	if err != nil {
		fmt.Fprintf(h, "error %s\n", err)
	} else {
		for _, f := range []struct {
			name string
			v    interface{}
		}{
			{"Program", res.Program},
			{"Config", res.Config},
			{"Plan", res.Plan},
			{"BaselineTime", res.BaselineTime},
			{"FinalTime", res.FinalTime},
			{"Iterations", res.Iterations},
			{"Planes", res.Planes},
			{"Offloaded", res.Offloaded},
			{"Runs", res.Runs},
			{"Reused", res.Reused},
		} {
			fmt.Fprintf(h, "%s ", f.name)
			deepWrite(h, reflect.ValueOf(f.v))
			h.Write([]byte{'\n'})
		}
	}
	var trc bytes.Buffer
	if err := opts.Trace.WriteTrace(&trc); err != nil {
		t.Fatal(err)
	}
	h.Write(trc.Bytes())
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// deepWrite writes v to h with the distinctions reflect.DeepEqual draws:
// pointers by what they point to, nil apart from empty, maps in key order.
func deepWrite(h io.Writer, v reflect.Value) {
	if !v.IsValid() {
		fmt.Fprint(h, "<invalid>")
		return
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			fmt.Fprint(h, "nil")
			return
		}
		fmt.Fprintf(h, "&%s(", v.Elem().Type())
		deepWrite(h, v.Elem())
		fmt.Fprint(h, ")")
	case reflect.Struct:
		fmt.Fprint(h, "{")
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(h, "%s:", v.Type().Field(i).Name)
			deepWrite(h, v.Field(i))
			fmt.Fprint(h, ",")
		}
		fmt.Fprint(h, "}")
	case reflect.Slice, reflect.Map:
		if v.IsNil() {
			fmt.Fprint(h, "nil")
			return
		}
		if v.Kind() == reflect.Map {
			keys := v.MapKeys()
			sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
			fmt.Fprint(h, "map[")
			for _, k := range keys {
				deepWrite(h, k)
				fmt.Fprint(h, ":")
				deepWrite(h, v.MapIndex(k))
				fmt.Fprint(h, ",")
			}
			fmt.Fprint(h, "]")
			return
		}
		fallthrough
	case reflect.Array:
		fmt.Fprint(h, "[")
		for i := 0; i < v.Len(); i++ {
			deepWrite(h, v.Index(i))
			fmt.Fprint(h, ",")
		}
		fmt.Fprint(h, "]")
	case reflect.Bool:
		fmt.Fprint(h, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprint(h, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprint(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(h, "%#x", math.Float64bits(v.Float()))
	case reflect.String:
		fmt.Fprintf(h, "%q", v.String())
	case reflect.Func, reflect.Chan:
		fmt.Fprint(h, v.IsNil())
	default:
		panic("deepWrite: unhandled kind " + v.Kind().String())
	}
}
