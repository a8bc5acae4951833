package session

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneRunDriver scans every non-test Go file outside benchmark/ and fails
// on a call to rt.New or to a Bind method anywhere but this package: a
// runtime constructed elsewhere is a run that can disagree with the one the
// planner measured.
func TestOneRunDriver(t *testing.T) {
	root := filepath.Join("..", "..")
	const rtPath = "mira/internal/rt"
	fset := token.NewFileSet()
	scanned := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch filepath.ToSlash(rel) {
			case "benchmark", ".bench_build", ".git", "internal/rt", "internal/session":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		scanned++
		rtName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == rtPath {
				rtName = "rt"
				if imp.Name != nil {
					rtName = imp.Name.Name
				}
			}
		}
		if rtName == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, _ := sel.X.(*ast.Ident)
			if sel.Sel.Name == "Bind" || (sel.Sel.Name == "New" && x != nil && x.Name == rtName) {
				t.Errorf("%s: %s.%s called outside internal/session — open a session instead",
					fset.Position(call.Pos()), exprName(sel.X), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("scanned only %d files from %s — wrong root?", scanned, root)
	}
}

func exprName(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "(…)"
}
