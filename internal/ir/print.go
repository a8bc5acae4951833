package ir

import (
	"fmt"
	"strings"
)

// Print renders a program in a textual form analogous to the paper's
// Fig. 13/14 listings. cmd/mirac uses it to show the remotable/rmem
// conversion and the optimizations codegen applied.
func Print(p *Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program %s (entry %s)\n", p.Name, p.Entry)
	for _, o := range p.Objects {
		fmt.Fprintf(&sb, "object %s: %d x %dB", o.Name, o.Count, o.ElemBytes)
		if o.Local {
			sb.WriteString(" local")
		}
		if len(o.Fields) > 0 {
			parts := make([]string, len(o.Fields))
			for i, f := range o.Fields {
				parts[i] = fmt.Sprintf("%s@%d+%d", f.Name, f.Offset, f.Bytes)
			}
			fmt.Fprintf(&sb, " {%s}", strings.Join(parts, ", "))
		}
		sb.WriteByte('\n')
	}
	for _, f := range p.Funcs {
		fmt.Fprintf(&sb, "func %s(%s) {\n", f.Name, strings.Join(f.Params, ", "))
		printBlock(&sb, f.Body, 1)
		sb.WriteString("}\n")
	}
	return sb.String()
}

func printBlock(sb *strings.Builder, body []Stmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, s := range body {
		switch st := s.(type) {
		case *Loop:
			name := ""
			if st.Name != "" {
				name = " '" + st.Name + "'"
			}
			fmt.Fprintf(sb, "%sloop%s %%%d = %s .. %s step %s {\n",
				ind, name, st.IVReg, ExprString(st.Start), ExprString(st.End), ExprString(st.Step))
			printBlock(sb, st.Body, depth+1)
			fmt.Fprintf(sb, "%s}\n", ind)
		case *Load:
			mode := "rmem.load"
			if st.Native {
				mode = "native.load"
			}
			fmt.Fprintf(sb, "%s%%%d = %s %s[%s]%s\n", ind, st.Dst, mode, st.Obj, ExprString(st.Index), fieldSuffix(st.Field))
		case *Store:
			mode := "rmem.store"
			if st.Native {
				mode = "native.store"
			}
			fmt.Fprintf(sb, "%s%s %s[%s]%s = %s\n", ind, mode, st.Obj, ExprString(st.Index), fieldSuffix(st.Field), ExprString(st.Val))
		case *Assign:
			fmt.Fprintf(sb, "%s%%%d = %s\n", ind, st.Dst, ExprString(st.Val))
		case *If:
			fmt.Fprintf(sb, "%sif %s {\n", ind, ExprString(st.Cond))
			printBlock(sb, st.Then, depth+1)
			if len(st.Else) > 0 {
				fmt.Fprintf(sb, "%s} else {\n", ind)
				printBlock(sb, st.Else, depth+1)
			}
			fmt.Fprintf(sb, "%s}\n", ind)
		case *Call:
			args := make([]string, len(st.Args))
			for i, a := range st.Args {
				args[i] = ExprString(a)
			}
			kind := "call"
			if st.Offload {
				kind = "rmem.call_offloaded"
			}
			if st.Dst >= 0 {
				fmt.Fprintf(sb, "%s%%%d = %s %s(%s)\n", ind, st.Dst, kind, st.Callee, strings.Join(args, ", "))
			} else {
				fmt.Fprintf(sb, "%s%s %s(%s)\n", ind, kind, st.Callee, strings.Join(args, ", "))
			}
		case *Return:
			if st.Val != nil {
				fmt.Fprintf(sb, "%sreturn %s\n", ind, ExprString(st.Val))
			} else {
				fmt.Fprintf(sb, "%sreturn\n", ind)
			}
		case *Prefetch:
			fmt.Fprintf(sb, "%srmem.prefetch %s[%s]%s\n", ind, st.Obj, ExprString(st.Index), fieldSuffix(st.Field))
		case *BatchPrefetch:
			parts := make([]string, len(st.Entries))
			for i, e := range st.Entries {
				parts[i] = fmt.Sprintf("%s[%s]%s", e.Obj, ExprString(e.Index), fieldSuffix(e.Field))
			}
			fmt.Fprintf(sb, "%srmem.prefetch_batch %s\n", ind, strings.Join(parts, ", "))
		case *GatherPrefetch:
			parts := make([]string, len(st.Chains))
			for i, c := range st.Chains {
				parts[i] = fmt.Sprintf("%s[%s[j]%s]", c.Target, st.Src, fieldSuffix(c.SrcField))
			}
			mode := "load"
			if st.Native {
				mode = "native.load"
			}
			fmt.Fprintf(sb, "%srmem.prefetch_gather j in [%s, %s) %s: %s\n", ind, ExprString(st.Lo), ExprString(st.Hi), mode, strings.Join(parts, ", "))
		case *Evict:
			fmt.Fprintf(sb, "%srmem.evict %s[%s]\n", ind, st.Obj, ExprString(st.Index))
		case *Fence:
			fmt.Fprintf(sb, "%srmem.fence\n", ind)
		case *Release:
			fmt.Fprintf(sb, "%srmem.release %s\n", ind, st.Obj)
		case *Intrinsic:
			fmt.Fprintf(sb, "%srmem.%s dst=%s a=%s b=%s", ind, st.Kind, tensorString(st.Dst), tensorString(st.A), tensorString(st.B))
			if len(st.Ahead) > 0 {
				parts := make([]string, len(st.Ahead))
				for i, r := range st.Ahead {
					parts[i] = fmt.Sprintf("%s[%s:+%d/%d]", r.Obj, ExprString(r.Off), r.Elems, r.Step)
				}
				fmt.Fprintf(sb, " ahead=%s", strings.Join(parts, ", "))
			}
			sb.WriteString("\n")
		default:
			fmt.Fprintf(sb, "%s<unknown %T>\n", ind, s)
		}
	}
}

func fieldSuffix(f string) string {
	if f == "" {
		return ""
	}
	return "." + f
}

func tensorString(t TensorRef) string {
	if t.Obj == "" {
		return "-"
	}
	return fmt.Sprintf("%s[%s:%dx%d]", t.Obj, ExprString(t.Off), t.Rows, t.Cols)
}

// ExprString renders an expression.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return "<nil>"
	case *Const:
		return fmt.Sprintf("%d", x.I)
	case *ConstF:
		return fmt.Sprintf("%g", x.F)
	case *Reg:
		return fmt.Sprintf("%%%d", x.ID)
	case *Param:
		return "$" + x.Name
	case *Bin:
		switch x.Op {
		case OpMin, OpMax:
			return fmt.Sprintf("%s(%s, %s)", x.Op, ExprString(x.A), ExprString(x.B))
		default:
			return fmt.Sprintf("(%s %s %s)", ExprString(x.A), x.Op, ExprString(x.B))
		}
	case *Un:
		return fmt.Sprintf("%s(%s)", x.Op, ExprString(x.A))
	default:
		return fmt.Sprintf("<expr %T>", e)
	}
}
