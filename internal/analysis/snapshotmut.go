package analysis

import (
	"go/ast"
	"go/types"
)

// SnapshotMut returns the analyzer enforcing snapshot immutability
// statically. protected maps a package path to the additional packages
// allowed to write its struct fields; the owning package itself is always
// allowed.
//
// The engine's correctness argument is that a published snapshot — the
// frozen M*(k) view behind a shard's atomic pointer — is never mutated
// again, while the writer's mutable index changes only through the owning
// packages' refinement code: the writer refines in place, freezes into
// fresh arrays, and publishes a fresh pointer. At runtime that is checked by
// fingerprinting the published views; statically it means no package
// outside the owners may assign to fields of types those packages declare,
// whether directly (n.K = 3) or through an element (n.Extent[0] = v).
func SnapshotMut(protected map[string][]string) *Analyzer {
	return &Analyzer{
		Name: "snapshotmut",
		Doc:  "index/engine struct fields may only be assigned inside their owning packages",
		Run:  func(pass *Pass) { runSnapshotMut(pass, protected) },
	}
}

func runSnapshotMut(pass *Pass, protected map[string][]string) {
	cur := pass.Pkg.Path
	check := func(lhs ast.Expr) {
		sel, ok := unwrapLValue(lhs).(*ast.SelectorExpr)
		if !ok {
			return
		}
		selection, ok := pass.Pkg.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return
		}
		field := selection.Obj()
		if field.Pkg() == nil {
			return
		}
		owner := field.Pkg().Path()
		allowed, isProtected := protected[owner]
		if !isProtected || cur == owner {
			return
		}
		for _, w := range allowed {
			if w == cur {
				return
			}
		}
		pass.Reportf(lhs.Pos(), "write to field %s of %s.%s outside its owning package %s: published snapshots are immutable; mutate through the owner's API",
			field.Name(), owner, fieldOwnerType(selection), owner)
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					check(lhs)
				}
			case *ast.IncDecStmt:
				check(n.X)
			}
			return true
		})
	}
}

// fieldOwnerType names the struct type a selection's field belongs to, for
// diagnostics.
func fieldOwnerType(sel *types.Selection) string {
	t := sel.Recv()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
