package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NilRecv verifies the nil-receiver contract of types annotated
// //gvevet:nilsafe (observe.Tracer, Telemetry, Histogram and the other
// sinks): every pointer-receiver method must compare the receiver
// against nil before its first receiver field access. The repo leans on
// this — a command calls `tracer.Begin(...)` or `tel.Region()` without a
// guard because a nil receiver is the documented "off" state — so an
// unguarded method is a latent panic at every such call site.
//
// Method calls through the receiver are exempt: a nil-safe type's own
// methods guard themselves. The check is positional (the first guard
// must precede the first field access), which matches the early-return
// idiom the codebase uses. Only exported methods are checked — the
// contract is about the API surface; unexported helpers run behind the
// exported guards and may assume a non-nil receiver.
var NilRecv = &Analyzer{
	Name: "nilrecv",
	Doc:  "requires a nil-receiver guard before field access in methods of //gvevet:nilsafe types",
	Run:  runNilRecv,
}

func runNilRecv(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) == 0 || fn.Body == nil {
				continue
			}
			if !fn.Name.IsExported() {
				continue // internal helpers run behind the exported guards
			}
			recvType, ptr := receiverTypeName(fn)
			if !ptr || !pass.Directives.NilSafeType(recvType) {
				continue
			}
			if len(fn.Recv.List[0].Names) == 0 {
				continue // unnamed receiver: cannot be dereferenced
			}
			recv := fn.Recv.List[0].Names[0]
			if recv.Name == "_" {
				continue
			}
			recvObj := pass.Info.Defs[recv]

			guardPos := token.NoPos
			var firstDeref *ast.SelectorExpr
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if (n.Op == token.EQL || n.Op == token.NEQ) && isNilCompare(pass, recvObj, n) {
						if !guardPos.IsValid() || n.Pos() < guardPos {
							guardPos = n.Pos()
						}
					}
				case *ast.SelectorExpr:
					id, ok := n.X.(*ast.Ident)
					if !ok || pass.Info.Uses[id] != recvObj {
						return true
					}
					if sel := pass.Info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
						if firstDeref == nil || n.Pos() < firstDeref.Pos() {
							firstDeref = n
						}
					}
				}
				return true
			})
			if firstDeref == nil {
				continue
			}
			if !guardPos.IsValid() || guardPos > firstDeref.Pos() {
				pass.Report(firstDeref.Pos(),
					"method %s on nil-safe type *%s accesses %s.%s before a nil-receiver guard",
					fn.Name.Name, recvType, recv.Name, firstDeref.Sel.Name)
			}
		}
	}
}

// receiverTypeName unwraps *T (possibly generic T[...]) receivers.
func receiverTypeName(fn *ast.FuncDecl) (name string, pointer bool) {
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		pointer = true
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name, pointer
	case *ast.IndexExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return id.Name, pointer
		}
	case *ast.IndexListExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return id.Name, pointer
		}
	}
	return "", pointer
}

// isNilCompare reports whether b compares the receiver object against
// nil on either side.
func isNilCompare(pass *Pass, recvObj types.Object, b *ast.BinaryExpr) bool {
	isRecv := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pass.Info.Uses[id] == recvObj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isRecv(b.X) && isNil(b.Y)) || (isNil(b.X) && isRecv(b.Y))
}
