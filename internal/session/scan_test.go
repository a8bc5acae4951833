package session

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestOneRunDriver scans every non-test Go file outside benchmark/ for the
// two things only one place may build:
//
//   - a runtime: a call to rt.New or to a Bind method anywhere but this
//     package is a run that can disagree with the one the planner measured;
//   - a far side: a call to farmem.NewNode, transport.New,
//     transport.NewWithPolicy, faults.New or faults.Wrap anywhere but
//     internal/cluster and the test-support packages is a private far node
//     that shares no pool with the systems it is compared against.
func TestOneRunDriver(t *testing.T) {
	root := filepath.Join("..", "..")
	// farSide lists, by import path, the constructors only the pool calls.
	farSide := map[string][]string{
		"mira/internal/farmem":    {"NewNode"},
		"mira/internal/transport": {"New", "NewWithPolicy"},
		"mira/internal/faults":    {"New", "Wrap"},
	}
	fset := token.NewFileSet()
	scanned := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch filepath.ToSlash(rel) {
			case "benchmark", ".bench_build", ".git":
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
		dir := filepath.ToSlash(filepath.Dir(rel))
		runtimeOK := dir == "internal/rt" || dir == "internal/session"
		farSideOK := dir == "internal/cluster" || strings.HasSuffix(dir, "test")
		// imported maps each file-local package name to its import path.
		imported := map[string]string{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = p
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
			fn := sel.Sel.Name
			var pkg string
			if x, ok := sel.X.(*ast.Ident); ok {
				pkg = imported[x.Name]
			}
			if !runtimeOK && (fn == "Bind" || fn == "New" && pkg == "mira/internal/rt") {
				t.Errorf("%s: %s.%s called outside internal/session — open a session instead",
					fset.Position(call.Pos()), exprName(sel.X), fn)
			}
			if !farSideOK && slices.Contains(farSide[pkg], fn) {
				t.Errorf("%s: %s.%s builds a far side outside internal/cluster — run on a cluster.Pool instead",
					fset.Position(call.Pos()), exprName(sel.X), fn)
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
