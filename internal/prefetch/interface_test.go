package prefetch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnePrefetchInterface scans every non-test Go file of the module and
// fails on a second prefetch contract: an interface outside this package
// that declares a prefetch hook, or a method named after the page plane's
// old hooks. Both planes consume Policy and its optional extensions; a
// baseline that predicts inside its fault handler states that cost in its
// plane's fault path, not in a hook of its own.
func TestOnePrefetchInterface(t *testing.T) {
	hooks := map[string]bool{"OnMiss": true, "OnFault": true, "OnPrefetchedTouch": true, "IssueDelay": true}
	oldMethods := map[string]bool{"OnFault": true, "IssueDelay": true}
	root := filepath.Join("..", "..")
	here, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	scanned := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		inPrefetch := filepath.Dir(abs) == here
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		scanned++
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				if inPrefetch {
					return true
				}
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						if hooks[name.Name] {
							t.Errorf("%s: interface declares %s — consume prefetch.Policy (or one of its extensions) instead",
								fset.Position(name.Pos()), name.Name)
						}
					}
				}
			case *ast.FuncDecl:
				if n.Recv != nil && oldMethods[n.Name.Name] {
					t.Errorf("%s: method %s is a page-plane hook the swap cache no longer calls — implement prefetch.Policy",
						fset.Position(n.Name.Pos()), n.Name.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 100 {
		t.Fatalf("scanned only %d files: is the module root at %s?", scanned, root)
	}
}
