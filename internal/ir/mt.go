package ir

import "strconv"

// ReplicaName is the name object or function name carries in replica i of
// a merged multithreaded program (see MergeReplicas).
func ReplicaName(name string, i int) string {
	return name + "#t" + strconv.Itoa(i)
}

// MergeReplicas builds one program holding n independent renamed copies of
// p: every object and function of copy i is suffixed "#t<i>", and every
// reference (loads, stores, prefetches, eviction hints, releases, tensor
// intrinsics and their operands ahead, calls) is rewritten to the suffixed
// names. The multithreaded drivers bind the merged program to ONE runtime,
// so n simulated threads with private data contend for the same cache
// sections, write-back queues, and swap pool — thread i enters at
// ReplicaName(p.Entry, i).
//
// The merged program's Entry is replica 0's entry.
func MergeReplicas(p *Program, n int) *Program {
	out := &Program{Name: p.Name, Entry: ReplicaName(p.Entry, 0)}
	for i := 0; i < n; i++ {
		c := Clone(p)
		rename := func(name string) string { return ReplicaName(name, i) }
		for _, o := range c.Objects {
			o.Name = rename(o.Name)
		}
		for _, f := range c.Funcs {
			f.Name = rename(f.Name)
			renameBlock(f.Body, rename)
		}
		out.Objects = append(out.Objects, c.Objects...)
		out.Funcs = append(out.Funcs, c.Funcs...)
	}
	return out
}

// renameBlock rewrites every object and callee reference in a statement
// block, in place.
func renameBlock(body []Stmt, rename func(string) string) {
	for _, s := range body {
		switch st := s.(type) {
		case *Loop:
			renameBlock(st.Body, rename)
		case *Load:
			st.Obj = rename(st.Obj)
		case *Store:
			st.Obj = rename(st.Obj)
		case *If:
			renameBlock(st.Then, rename)
			renameBlock(st.Else, rename)
		case *Call:
			st.Callee = rename(st.Callee)
		case *Prefetch:
			st.Obj = rename(st.Obj)
		case *BatchPrefetch:
			for i := range st.Entries {
				st.Entries[i].Obj = rename(st.Entries[i].Obj)
			}
		case *GatherPrefetch:
			st.Src = rename(st.Src)
			for i := range st.Chains {
				st.Chains[i].Target = rename(st.Chains[i].Target)
			}
		case *Evict:
			st.Obj = rename(st.Obj)
		case *Release:
			st.Obj = rename(st.Obj)
		case *Intrinsic:
			for _, t := range []*TensorRef{&st.Dst, &st.A, &st.B} {
				if t.Obj != "" {
					t.Obj = rename(t.Obj)
				}
			}
			for i := range st.Ahead {
				st.Ahead[i].Obj = rename(st.Ahead[i].Obj)
			}
		}
	}
}
