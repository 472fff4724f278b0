package analysis

import (
	"go/ast"
	"go/types"
)

// BatchRetain enforces the zero-copy batch contract from DESIGN.md
// §2.4/§2.7: slices handed out by a batch (vcol/vbatch/colbuf payload
// slices) or carved from the segment layout (store.SegCol) are views
// of storage the producer may reuse or that a later version extends in
// place. Operators may retain whole *vbatch
// values (Exchange workers do), but a payload slice stored into
// long-lived operator state — a struct field or a variable captured
// from an enclosing scope inside a closure — survives across Next
// calls and turns into silent wrong answers when the view's backing
// moves. Retention requires an explicit copy (append to a fresh
// slice, or a colbuf push); assignments whose right-hand side is a
// call already are copies and are never flagged. Building one view
// container out of another (a vcol from a SegCol window, a tail
// column extension) is the layout plumbing itself and is exempt.
var BatchRetain = &Analyzer{
	Name: "batchretain",
	Doc:  "zero-copy batch/segment slices must not be retained in fields or captured state without a copy",
	Run:  runBatchRetain,
}

// batchViewTypes are the container types whose slice-typed fields are
// zero-copy views; they are also the only types allowed to hold such
// views in their fields (a batch is built out of views — that is the
// point).
var batchViewTypes = map[string]bool{
	"vcol":   true,
	"vbatch": true,
	"colbuf": true,
	"SegCol": true,
}

// batchView reports whether e reads a slice-typed field of a batch
// container, possibly re-sliced or parenthesized — a zero-copy view.
func batchView(info *types.Info, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.SliceExpr:
			e = x.X
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return false
	}
	if _, isSlice := s.Obj().Type().Underlying().(*types.Slice); !isSlice {
		return false
	}
	n := namedOf(s.Recv())
	return n != nil && batchViewTypes[n.Obj().Name()]
}

// viewOwner resolves the struct type an assignment target stores
// into: x.f → type of x, x.f[i] → type of x. ok=false when the
// target is not a field store.
func viewOwner(info *types.Info, lhs ast.Expr) (*types.Named, bool) {
	for {
		switch x := lhs.(type) {
		case *ast.ParenExpr:
			lhs = x.X
			continue
		case *ast.IndexExpr:
			lhs = x.X
			continue
		}
		break
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil, false
	}
	return namedOf(s.Recv()), true
}

func runBatchRetain(p *Pass) {
	for _, f := range p.Files {
		// Collect function literals so capture checks can tell whether
		// a variable was declared outside the closure assigning to it.
		var lits []*ast.FuncLit
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				lits = append(lits, fl)
			}
			return true
		})
		innermost := func(pos ast.Node) *ast.FuncLit {
			var best *ast.FuncLit
			for _, fl := range lits {
				if fl.Pos() <= pos.Pos() && pos.End() <= fl.End() {
					if best == nil || fl.Pos() > best.Pos() {
						best = fl
					}
				}
			}
			return best
		}

		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) != len(st.Rhs) {
					return true
				}
				for i, rhs := range st.Rhs {
					if !batchView(p.Info, rhs) {
						continue
					}
					lhs := st.Lhs[i]
					if owner, isField := viewOwner(p.Info, lhs); isField {
						if owner != nil && batchViewTypes[owner.Obj().Name()] {
							continue // building a batch out of views
						}
						p.Reportf(rhs.Pos(),
							"zero-copy batch slice stored into a struct field outlives the batch; copy it (append to a fresh slice) or keep it local to one Next")
						continue
					}
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := p.Info.Defs[id]
					if obj == nil {
						obj = p.Info.Uses[id]
					}
					if obj == nil {
						continue
					}
					if obj.Parent() == p.Pkg.Scope() {
						p.Reportf(rhs.Pos(),
							"zero-copy batch slice stored into package-level %s outlives the batch; copy it", id.Name)
						continue
					}
					if fl := innermost(st); fl != nil {
						if obj.Pos() < fl.Pos() || obj.Pos() > fl.End() {
							p.Reportf(rhs.Pos(),
								"zero-copy batch slice captured into %s, declared outside this closure, is retained across Next calls; copy it", id.Name)
						}
					}
				}
			case *ast.CompositeLit:
				owner := namedOf(p.Info.TypeOf(st))
				if owner == nil || batchViewTypes[owner.Obj().Name()] {
					return true
				}
				if _, isStruct := owner.Underlying().(*types.Struct); !isStruct {
					return true
				}
				for _, elt := range st.Elts {
					v := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if batchView(p.Info, v) {
						p.Reportf(v.Pos(),
							"zero-copy batch slice stored into a %s literal outlives the batch; copy it", owner.Obj().Name())
					}
				}
			}
			return true
		})
	}
}
