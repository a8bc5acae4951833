package rt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestLineSeam scans the package's non-test files and fails on a call that
// moves a line across a section boundary anywhere but line.go: a slot taken
// with sec.Reserve, a line evicted with sec.Drop, an entry taken out of a
// write-back queue, or a far read into a line. A miss path that spells the
// sequence out by hand is one that can forget a step of it — the way bulk
// forgot the write-back queue and SetSectionScale forgot the snapshots. It
// fails the same way on an assignment to a line's marks (cache.Line.Ready,
// Spec) outside line.go: the prefetch counters move with them.
func TestLineSeam(t *testing.T) {
	// Calls allowed only in line.go, with how many sites line.go may have.
	seam := map[string]int{
		"Reserve":        1, // claim
		"Drop":           2, // drop, and unclaim's undo
		"take":           1, // takeParked
		"ReadOneSided":   1, // fetch
		"GatherTwoSided": 1, // fetch, selective
		"GatherOneSided": 1, // land
		"fetchLine":      0, // fetch's name before the seam
	}
	// A line's marks, which only line.go assigns.
	marks := map[string]bool{"Ready": true, "Spec": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	sites := make(map[string]int)
	scanned := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		scanned++
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range as.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || !marks[sel.Sel.Name] {
						continue
					}
					if path != "line.go" {
						t.Errorf("%s: a line's %s set outside line.go — go through speculate, touchSpec, waitReady or onWire",
							fset.Position(sel.Pos()), sel.Sel.Name)
					}
					sites[sel.Sel.Name]++
				}
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if _, guarded := seam[name]; !guarded {
				return true
			}
			if (name == "Reserve" || name == "Drop") && !onSection(sel.X) {
				return true
			}
			if path != "line.go" {
				t.Errorf("%s: %s called outside line.go — compose claim, fetch, land and drop instead",
					fset.Position(call.Pos()), name)
				return true
			}
			sites[name]++
			return true
		})
	}
	if scanned < 10 {
		t.Fatalf("scanned only %d files — wrong directory?", scanned)
	}
	for name, limit := range seam {
		if sites[name] > limit {
			t.Errorf("line.go calls %s at %d sites, the seam allows %d", name, sites[name], limit)
		}
	}
	if sites["Reserve"] == 0 || sites["GatherOneSided"] == 0 || sites["Ready"] == 0 || sites["Spec"] == 0 {
		t.Fatalf("found no Reserve or GatherOneSided call or no mark assignment at all: the scan no longer sees line.go (%v)", sites)
	}
}

// onSection reports whether a method's receiver expression is a cache
// section field (s.sec, p.s.sec, …).
func onSection(x ast.Expr) bool {
	sel, ok := x.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "sec"
}

// TestRawSizeReaders scans the non-test files of rt, cache and swap for reads
// of the three byte sizes a configuration carries — cache.Config.SizeBytes,
// Config.SwapPool, swap.Config.PoolBytes — and fails on one outside the
// places Config.Geometry accounts for. The planner answers a candidate from a
// recorded run whenever Geometry and CarveUpBytes agree, so a new reader of
// the raw bytes is a way for two such runs to differ: it fails here until
// Geometry (or the ledger's key) covers it.
func TestRawSizeReaders(t *testing.T) {
	// Function → reads it may hold, and what Geometry makes of each.
	want := map[string]int{
		"cache:Config.Lines":          1, // the floor to whole lines, which Geometry applies
		"cache:Config.Validate":       2, // positive or not (and the message saying so): kept by the floor's minimum of one line
		"cache:Config.Scaled":         1, // elastic rescale of the raw bytes: Geometry's stated exception
		"rt:Runtime.SectionLiveBytes": 1, // of a Scaled configuration: a whole number of lines
		"swap:Config.Pages":           1, // the floor to whole pages, which Geometry applies
		"swap:New":                    2, // positive or not (and the message): a pool that is not positive stays as it is
		"rt:Config.CarveUpBytes":      2, // the raw total, the other half of the ledger's key
		"rt:Config.Geometry":          2, // pool positive or not; the pool handed to swap.Config.Pages
		"rt:Runtime.Bind":             1, // the pool handed to effectiveSwapCfg → swap.New, after a positive-or-not check
	}
	sized := map[string]bool{"SizeBytes": true, "SwapPool": true, "PoolBytes": true}
	got := map[string]int{}
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../cache", "../swap"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				name := f.Name.Name + ":" + fn.Name.Name
				if fn.Recv != nil {
					recv := fn.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					name = f.Name.Name + ":" + types.ExprString(recv) + "." + fn.Name.Name
				}
				// Not reads: the target of an assignment, and a method call
				// (ir.Object.SizeBytes() is an object's size, not a cache's).
				notRead := map[ast.Expr]bool{}
				ast.Inspect(fn, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							notRead[lhs] = true
						}
					case *ast.CallExpr:
						notRead[n.Fun] = true
					case *ast.SelectorExpr:
						if sized[n.Sel.Name] && !notRead[n] {
							got[name]++
							if want[name] == 0 {
								t.Errorf("%s: %s reads %s — Config.Geometry does not account for this reader",
									fset.Position(n.Pos()), name, n.Sel.Name)
							}
						}
					}
					return true
				})
			}
		}
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%s reads a raw byte size at %d sites, Config.Geometry accounts for %d", name, got[name], n)
		}
	}
}
