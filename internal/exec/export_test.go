package exec

import (
	"mira/internal/ir"
	"mira/internal/sim"
)

// Runner is what both interpreters look like to the oracle tests in
// package exec_test (which can import the apps and the planner; an
// in-package test cannot, they import exec).
type Runner interface {
	Run(clk *sim.Clock) (Value, error)
}

// NewReference builds the tree-walking reference interpreter
// (reference_test.go).
func NewReference(p *ir.Program, be Backend, opt Options) (Runner, error) {
	return newRef(p, be, opt)
}
