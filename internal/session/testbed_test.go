package session_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mira/internal/baselines/fastswap"
	"mira/internal/baselines/leap"
	"mira/internal/farmem"
	"mira/internal/harness"
	"mira/internal/netmodel"
	"mira/internal/planner"
	"mira/internal/rt"
	"mira/internal/serve"
	"mira/internal/session"
)

// TestOneTestbed: the link model, the far node and the local cost model are
// described once — on cluster.Options (the pool's links and nodes) and
// rt.Config (the runtime's charges). A run option that carries its own copy
// can disagree with the pool the run executes on, so none of the run
// drivers' option structs may have a field of those types.
func TestOneTestbed(t *testing.T) {
	testbed := []reflect.Type{
		reflect.TypeFor[netmodel.Config](),
		reflect.TypeFor[farmem.NodeConfig](),
		reflect.TypeFor[rt.CostModel](),
	}
	for _, opts := range []reflect.Type{
		reflect.TypeFor[harness.Options](),
		reflect.TypeFor[planner.Options](),
		reflect.TypeFor[session.Spec](),
		reflect.TypeFor[fastswap.Options](),
		reflect.TypeFor[leap.Options](),
		reflect.TypeFor[serve.Options](),
	} {
		for i := 0; i < opts.NumField(); i++ {
			f := opts.Field(i)
			ft := f.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			for _, tb := range testbed {
				if ft == tb {
					t.Errorf("%s.%s is a %s: the testbed is set on cluster.Options and rt.Config only", opts, f.Name, tb)
				}
			}
		}
	}
}

// TestOneBatchingSwitch: the unbatched data path has one switch,
// planner.TechniqueMask.NoBatching, and the write-back queue bound one home,
// rt.Config.WritebackQueueLines, which the planner fills from the mask. A
// second NoBatching or WritebackQueueLines field is a second meaning of
// "unbatched" that figures and A/B runs can disagree on, so this scans every
// non-test Go file outside benchmark/ for struct fields of those names.
func TestOneBatchingSwitch(t *testing.T) {
	home := map[string]string{
		"NoBatching":          "internal/planner.TechniqueMask",
		"WritebackQueueLines": "internal/rt.Config",
	}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	homes := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() && slices.Contains([]string{"benchmark", ".bench_build", ".git"}, filepath.ToSlash(rel)) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		owner := "(anonymous)"
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				owner = n.Name.Name
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					for _, name := range fld.Names {
						at := filepath.ToSlash(filepath.Dir(rel)) + "." + owner
						if want, ok := home[name.Name]; ok && at == want {
							homes++
						} else if ok {
							t.Errorf("%s: field %s of %s: its one home is %s", fset.Position(name.Pos()), name.Name, at, want)
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if homes != len(home) {
		t.Fatalf("found %d of the %d homes under %s — wrong root?", homes, len(home), root)
	}
}
