package analysis

import (
	"go/ast"
	"go/types"
)

// NoPanic returns the analyzer forbidding panic in library code.
//
// Library code must return errors for anything an input can trigger; the
// fuzzers exist precisely because the index and graph loaders once panicked
// on corrupt bytes. Panics that guard internal invariants (states
// unreachable from any input, e.g. "index: split of dead node") stay,
// annotated with //mrlint:allow nopanic <reason>. Commands (package main)
// and test files are exempt.
func NoPanic() *Analyzer {
	return &Analyzer{
		Name: "nopanic",
		Doc:  "forbid panic in non-main library code; annotate internal-invariant panics",
		Run:  runNoPanic,
	}
}

func runNoPanic(pass *Pass) {
	if pass.Pkg.Types.Name() == "main" {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			if b, ok := pass.Pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "panic" {
				return true
			}
			pass.Reportf(call.Pos(), "panic in library code: return an error instead, or annotate an internal invariant with //mrlint:allow nopanic <reason>")
			return true
		})
	}
}
