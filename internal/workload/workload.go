// Package workload defines the interface between applications and the
// systems that run them (Mira's planner/runtime and the FastSwap, Leap, and
// AIFM baselines). Every app exposes its program, loads its data through
// ObjectIniter, and verifies results through ObjectDumper — so one app
// definition runs identically on four far-memory systems and the
// integration tests can require bit-identical outputs.
package workload

import (
	"sync"

	"mira/internal/exec"
	"mira/internal/ir"
)

// ObjectIniter loads initial object contents (setup is untimed). InitObject
// copies: data is usually an image every session of the workload is loaded
// from, and an implementation neither writes to it nor keeps it.
type ObjectIniter interface {
	InitObject(name string, data []byte) error
}

// Image is one object's initial contents: a pure function of the workload's
// configuration, so it is generated once per workload, on first use, and
// shared read-only by every session the planner, the harness, mtrun's threads
// or a serving fleet open on it.
type Image struct {
	once sync.Once
	data []byte
}

// Bytes returns the image, calling gen for it the first time. The result
// must not be written to.
func (im *Image) Bytes(gen func() []byte) []byte {
	im.once.Do(func() { im.data = gen() })
	return im.data
}

// ObjectDumper reads back an object's final far-memory contents. The bytes
// may be the backend's memory in place, not a copy: they are read-only, and
// valid until the backend is next run, flushed or closed. A caller that
// keeps a dump past that — to compare it with a later one, or after the
// session is closed — clones it, as session.Dump does.
type ObjectDumper interface {
	DumpObject(name string) ([]byte, error)
}

// Workload is one benchmark application.
type Workload interface {
	// Name labels the workload.
	Name() string
	// Program returns the canonical (untransformed) IR.
	Program() *ir.Program
	// Init loads workload data.
	Init(t ObjectIniter) error
	// Params binds the entry function's parameters.
	Params() map[string]exec.Value
	// FullMemoryBytes is the workload's far-data footprint — the 100%
	// point of the local-memory axis.
	FullMemoryBytes() int64
}

// Verifier is implemented by workloads that can check their own output.
type Verifier interface {
	Verify(d ObjectDumper) error
}
