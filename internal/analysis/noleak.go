package analysis

import (
	"go/ast"
	"go/types"
)

// NoLeak returns the analyzer policing goroutine lifecycles in library code.
//
// Every goroutine launched by library code must have a visible way to stop
// or be awaited: a context.Context, a channel, or a sync.WaitGroup somewhere
// in the spawned call (its arguments or, for function literals, the body).
// The engine's snapshot readers and the bounded validation pools all
// satisfy this; a bare `go f()` with none of the three is how refiners leak.
//
// A goroutine spawned as a function literal containing an unconditional
// `for { ... }` loop is a background service (the adaptive tuner's epoch
// loop is the archetype) and is held to a stricter standard: it must
// reference BOTH a stop signal (a context.Context or a channel, so Close
// can tell it to exit) AND a sync.WaitGroup (so Close can join it before
// returning). One without the other either never stops or stops without
// anyone knowing when.
//
// Bare time.Sleep is forbidden in the same scope: library code waits on
// channels, contexts or timers it can cancel, never on wall-clock naps.
// Commands (package main) and test files are exempt.
func NoLeak() *Analyzer {
	return &Analyzer{
		Name: "noleak",
		Doc:  "library goroutines need a context, channel or WaitGroup in scope; background loops need a stop signal and a join; no bare time.Sleep",
		Run:  runNoLeak,
	}
}

func runNoLeak(pass *Pass) {
	if pass.Pkg.Types.Name() == "main" {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok && hasInfiniteLoop(lit.Body) {
					stop := hasSignal(info, n.Call, isStopSignalType)
					join := hasSignal(info, n.Call, isJoinType)
					if !stop || !join {
						pass.Reportf(n.Pos(), "background loop goroutine must take a stop signal (context or channel) and be joined through a sync.WaitGroup on Close")
					}
				} else if !hasLifecycleSignal(info, n.Call) {
					pass.Reportf(n.Pos(), "goroutine without lifecycle control: pass a context.Context, a stop channel, or a sync.WaitGroup it participates in")
				}
			case *ast.CallExpr:
				if isPkgFunc(info, n.Fun, "time", "Sleep") {
					pass.Reportf(n.Pos(), "bare time.Sleep in library code: wait on a cancellable timer, channel or context instead")
				}
			}
			return true
		})
	}
}

// hasInfiniteLoop reports whether body contains an unconditional `for` loop
// (no condition, so only a return/break/panic inside exits it), ignoring
// loops in nested function literals — those are separate goroutine bodies
// or synchronous callees with their own accounting.
func hasInfiniteLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if n.Cond == nil {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

// hasLifecycleSignal reports whether the spawned call mentions a value whose
// type implies the goroutine can be stopped or awaited: a context.Context, a
// channel, or a sync.WaitGroup.
func hasLifecycleSignal(info *types.Info, call *ast.CallExpr) bool {
	return hasSignal(info, call, isLifecycleType)
}

// hasSignal reports whether any expression in the spawned call (arguments
// and, for function literals, the body) has a type satisfying pred.
func hasSignal(info *types.Info, call *ast.CallExpr, pred func(types.Type) bool) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		if found {
			return false
		}
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		tv, ok := info.Types[expr]
		if !ok || tv.Type == nil {
			return true
		}
		if pred(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isLifecycleType(t types.Type) bool {
	return isStopSignalType(t) || isJoinType(t)
}

// isStopSignalType: something that can tell the goroutine to exit.
func isStopSignalType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	return isNamed(t, "context", "Context")
}

// isJoinType: something the owner can wait on for the goroutine to finish.
func isJoinType(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return isNamed(t, "sync", "WaitGroup")
}
