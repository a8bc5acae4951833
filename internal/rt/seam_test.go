package rt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestLineSeam scans the package's non-test files and fails on a call that
// moves a line across a section boundary anywhere but line.go: a slot taken
// with sec.Reserve, a line evicted with sec.Drop, an entry taken out of a
// write-back queue, or a far read into a line. A miss path that spells the
// sequence out by hand is one that can forget a step of it — the way bulk
// forgot the write-back queue and SetSectionScale forgot the snapshots.
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
	if sites["Reserve"] == 0 || sites["GatherOneSided"] == 0 {
		t.Fatalf("found no Reserve or GatherOneSided call at all: the scan no longer sees line.go (%v)", sites)
	}
}

// onSection reports whether a method's receiver expression is a cache
// section field (s.sec, p.s.sec, …).
func onSection(x ast.Expr) bool {
	sel, ok := x.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "sec"
}
