package session_test

import (
	"reflect"
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
