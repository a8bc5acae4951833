// Package ir defines Mira's intermediate representation. It plays the role
// MLIR's remotable/rmem dialects play in the paper (§5.1): applications are
// expressed as programs over named memory objects, the analysis passes
// (internal/analysis) infer access patterns / lifetimes / batching from the
// IR, and codegen (internal/codegen) rewrites it — annotating accesses as
// native loads, inserting prefetch and eviction-hint operations, fusing
// loops — before the executor (internal/exec) runs it against a runtime.
//
// The IR is deliberately small but covers the constructs the paper
// analyzes: counted loops with affine index arithmetic, indirect indices
// (B[A[i]]), struct-typed arrays with per-field access (selective
// transmission), conditionals, calls (offloadable), and coarse tensor
// intrinsics for ML workloads whose access patterns the analyzer knows
// natively (the paper's GPT-2 runs on ONNX operators the same way).
package ir

import "fmt"

// Program is a whole application: its allocation sites (Objects) and
// functions. Entry names the function executed first.
type Program struct {
	Name    string
	Objects []*Object
	Funcs   []*Func
	Entry   string
}

// Object is one allocation site: a 1-D array of Count fixed-size elements,
// optionally structured into Fields. Objects are the unit the planner
// assigns to cache sections (§4.1 "we further nail down the analysis scope
// to large objects").
type Object struct {
	Name      string
	ElemBytes int
	Count     int64
	// Fields structures each element; empty means one unnamed scalar
	// field covering the whole element.
	Fields []Field
	// Float declares the element interpretation for whole-element
	// loads/stores when Fields is empty.
	Float bool
	// Local pins the object to local memory (stacks, synchronization
	// state — the paper never places stack or code in far memory).
	Local bool
}

// Field is a named byte range within an element.
type Field struct {
	Name   string
	Offset int
	Bytes  int
	Float  bool
}

// SizeBytes is the object's total footprint.
func (o *Object) SizeBytes() int64 { return int64(o.ElemBytes) * o.Count }

// FieldByName resolves a field; the empty name resolves to the
// whole-element pseudo-field.
func (o *Object) FieldByName(name string) (Field, bool) {
	if name == "" {
		return Field{Name: "", Offset: 0, Bytes: o.ElemBytes, Float: o.Float}, true
	}
	for _, f := range o.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// Func is one function: scalar parameters and a statement body. Registers
// are function-local scalar slots (SSA-lite: they may be reassigned, e.g.
// reduction accumulators).
type Func struct {
	Name    string
	Params  []string
	Body    []Stmt
	NumRegs int
	// NoSharedWrites marks functions verified free of shared writable
	// data, the precondition for offloading (§4.8). The builder sets it;
	// analysis re-verifies.
	NoSharedWrites bool
}

// Object resolves an object by name.
func (p *Program) Object(name string) (*Object, bool) {
	for _, o := range p.Objects {
		if o.Name == name {
			return o, true
		}
	}
	return nil, false
}

// LocalBytes sums the objects pinned in local memory: what they take out of
// a local-memory budget before any cache or page pool.
func (p *Program) LocalBytes() int64 {
	var t int64
	for _, o := range p.Objects {
		if o.Local {
			t += o.SizeBytes()
		}
	}
	return t
}

// Func resolves a function by name.
func (p *Program) Func(name string) (*Func, bool) {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}

// EntryFunc returns the entry function.
func (p *Program) EntryFunc() (*Func, error) {
	f, ok := p.Func(p.Entry)
	if !ok {
		return nil, fmt.Errorf("ir: program %q: entry function %q not found", p.Name, p.Entry)
	}
	return f, nil
}

// ---- Statements ----

// Stmt is one IR statement.
type Stmt interface{ stmt() }

// Loop is a counted loop: for iv := Start; iv < End; iv += Step. The
// induction variable lives in register IVReg; analysis recognizes affine
// expressions over IVRegs (scalar evolution, §5.2.2).
type Loop struct {
	Name  string
	IVReg int
	Start Expr
	End   Expr
	Step  Expr
	Body  []Stmt
}

// Load reads Obj[Index].Field into register Dst.
type Load struct {
	Dst   int
	Obj   string
	Index Expr
	Field string
	// Native marks the access as compiled to a native memory load
	// (§4.4): codegen sets it when analysis proves the line resident.
	Native bool
}

// Store writes Val to Obj[Index].Field.
type Store struct {
	Obj    string
	Index  Expr
	Field  string
	Val    Expr
	Native bool
	// NoFetch marks a store the compiler proved will overwrite whole
	// cache lines: misses allocate without fetching (§4.5 read/write
	// optimization).
	NoFetch bool
}

// Assign evaluates Val into register Dst.
type Assign struct {
	Dst int
	Val Expr
}

// If branches on Cond != 0.
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// Call invokes Callee with scalar arguments bound to its parameters. If Dst
// is >= 0, the callee's return value lands there. Offload marks the call as
// executed on the far-memory node (§4.8); codegen sets it.
type Call struct {
	Dst     int
	Callee  string
	Args    []Expr
	Offload bool
}

// Return ends the enclosing function, yielding Val (may be nil).
type Return struct {
	Val Expr
}

// Prefetch asynchronously fetches the line holding Obj[Index].Field (§4.5).
// Codegen inserts these one network round-trip ahead of the access.
type Prefetch struct {
	Obj   string
	Index Expr
	Field string
}

// BatchPrefetch fetches several lines — possibly of different objects — in
// a single scatter-gather message (§4.5 data access batching). Codegen emits
// one per fused-loop iteration group.
type BatchPrefetch struct {
	Entries []PrefetchRef
}

// PrefetchRef is one element of a BatchPrefetch.
type PrefetchRef struct {
	Obj   string
	Index Expr
	Field string
}

// GatherPrefetch is a window of chained indirect prefetches rung on one
// doorbell (§4.5 data access batching applied to §1's chained prefetch): for
// every source element j in [Lo, Hi) and every chain c, it loads
// Src[j].c.SrcField and prefetches the line of c.Target at that value, and it
// posts all of those prefetches as one batched gather. Native marks the
// source loads as native loads (§4.4), as Load.Native does. Codegen emits one
// per window of a pointer-chasing loop.
type GatherPrefetch struct {
	Src    string
	Lo, Hi Expr
	Chains []GatherChain
	Native bool
}

// GatherChain is one chain of a GatherPrefetch: a source field whose values
// index Target. TargetField is the field of Target the loop reads: the
// prefetch fetches its line ("" names the element, whose line is its first).
type GatherChain struct {
	SrcField    string
	Target      string
	TargetField string
}

// Evict marks the line holding Obj[Index] evictable and schedules an
// asynchronous write-back (§4.5 eviction hints). Codegen inserts these after
// the lifetime-analysis last access.
type Evict struct {
	Obj   string
	Index Expr
}

// Fence blocks until all in-flight asynchronous operations (prefetches,
// flushes) complete. Codegen emits one before offloaded calls.
type Fence struct{}

// Release ends an object's cached lifetime (§4.1 "we end a section as soon
// as its lifetime in the program ends"): every cached line is dropped,
// dirty ones flushed asynchronously, freeing local memory for live data.
// Codegen emits one after the object's last use.
type Release struct {
	Obj string
}

// Intrinsic is a coarse tensor operation over float64 matrices stored in
// objects. The analyzer knows each kind's access pattern without inspecting
// loops, the way the paper's compiler understands ONNX operators.
type Intrinsic struct {
	Kind IntrKind
	Dst  TensorRef
	A    TensorRef
	B    TensorRef // unused for unary kinds
	// Ahead lists the far operands of the next intrinsic that reads far
	// memory, for the executor to prefetch once this one has read its own
	// operands and before it computes (§6.1 layer-wise streaming: an
	// operator sequence is static, so the next operator's inputs can be on
	// the wire while this one runs). Codegen fills it; nil issues nothing.
	Ahead []PrefetchRange
}

// PrefetchRange is a contiguous element range of one object to prefetch:
// elements [Off, Off+Elems) of Obj, one prefetch per Step elements — one
// cache line of a section-placed object, one page of a swap-placed one.
type PrefetchRange struct {
	Obj   string
	Off   Expr
	Elems int64
	Step  int64
}

// TensorRef addresses a Rows x Cols row-major float64 matrix starting at
// element offset Off within object Obj.
type TensorRef struct {
	Obj  string
	Off  Expr
	Rows int64
	Cols int64
}

// Elems reports the element count of the matrix view.
func (t TensorRef) Elems() int64 { return t.Rows * t.Cols }

// IntrKind enumerates tensor intrinsics.
type IntrKind int

const (
	// IntrMatMul computes Dst[M,N] += A[M,K] * B[K,N].
	IntrMatMul IntrKind = iota
	// IntrMatMulT computes Dst[M,N] += A[M,K] * B[N,K]^T (B stored
	// row-major with N rows of K columns) — the attention-score shape.
	IntrMatMulT
	// IntrAdd computes Dst = A + B elementwise.
	IntrAdd
	// IntrLayerNorm normalizes each row of A into Dst.
	IntrLayerNorm
	// IntrSoftmax applies a rowwise softmax of A into Dst.
	IntrSoftmax
	// IntrGelu applies the GELU activation elementwise.
	IntrGelu
	// IntrCopy copies A into Dst.
	IntrCopy
	// IntrZero clears Dst (no source operand).
	IntrZero
)

func (k IntrKind) String() string {
	switch k {
	case IntrMatMul:
		return "matmul"
	case IntrMatMulT:
		return "matmul_t"
	case IntrAdd:
		return "add"
	case IntrLayerNorm:
		return "layernorm"
	case IntrSoftmax:
		return "softmax"
	case IntrGelu:
		return "gelu"
	case IntrCopy:
		return "copy"
	case IntrZero:
		return "zero"
	default:
		return fmt.Sprintf("IntrKind(%d)", int(k))
	}
}

func (*Loop) stmt()           {}
func (*Load) stmt()           {}
func (*Store) stmt()          {}
func (*Assign) stmt()         {}
func (*If) stmt()             {}
func (*Call) stmt()           {}
func (*Return) stmt()         {}
func (*Prefetch) stmt()       {}
func (*BatchPrefetch) stmt()  {}
func (*GatherPrefetch) stmt() {}
func (*Evict) stmt()          {}
func (*Fence) stmt()          {}
func (*Release) stmt()        {}
func (*Intrinsic) stmt()      {}

// Walk visits every statement in body recursively, pre-order. The visitor
// returns false to prune a subtree.
func Walk(body []Stmt, fn func(Stmt) bool) {
	for _, s := range body {
		if !fn(s) {
			continue
		}
		switch st := s.(type) {
		case *Loop:
			Walk(st.Body, fn)
		case *If:
			Walk(st.Then, fn)
			Walk(st.Else, fn)
		}
	}
}
