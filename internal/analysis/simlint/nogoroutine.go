package simlint

import (
	"go/ast"
	"go/types"
	"strings"

	"charmgo/internal/analysis/framework"
)

// NoGoroutine forbids `go` statements and channel operations in simulation
// code: everything must run on the caller's goroutine through the event
// kernel, or determinism dies with the scheduler (cf. the AMT-runtime
// reproducibility argument — nondeterministic thread interleaving is the
// main obstacle to reproducible measurement).
//
// One audited, shape-verified exception exists: the AMPI rank-thread
// handoff in internal/ampi. Each rank is a user-level thread in strict
// lockstep with the scheduler via a resume/yield channel pair, so at most
// one goroutine runs at any instant. Those sites carry
// `//simlint:rank-handoff` (on the function's doc comment or the line above
// the statement), and the analyzer verifies the annotated goroutine actually
// follows the protocol: it must first block on <-resume and hand the PE back
// with yield <- struct{}{}.
//
// The bench harness's point workers (internal/bench) run independent
// simulations concurrently; they are outside simulation scope, and the
// race detector, not this analyzer, checks what they share.
var NoGoroutine = &framework.Analyzer{
	Name: "nogoroutine",
	Doc: "forbid goroutines and channel ops in simulation code, except the " +
		"annotated (//simlint:rank-handoff) AMPI resume/yield handoff",
	Run: runNoGoroutine,
}

func runNoGoroutine(pass *framework.Pass) error {
	if !simulationScope(pass.PkgPath) {
		return nil
	}
	inAmpi := under(rel(pass.PkgPath), "internal/ampi")
	// Lines carrying a statement-level annotation, per file.
	rank := annotatedLines(pass, "rank-handoff")
	for _, fi := range pass.Functions() {
		if fi.Decl == nil || isTestFile(pass, fi.Pos()) {
			continue // literals are checked within their enclosing declaration
		}
		c := &goroutineCtx{
			pass:          pass,
			inAmpi:        inAmpi,
			rankAnnotated: lineChecker(pass, rank[fi.File]),
		}
		fd := fi.Decl
		allowRank := inAmpi && (docDirective(fd, "rank-handoff") || c.rankAnnotated(fd))
		c.walk(fd.Body, allowRank)
	}
	return nil
}

// goroutineCtx carries the per-function annotation state through the walk.
type goroutineCtx struct {
	pass          *framework.Pass
	inAmpi        bool
	rankAnnotated func(ast.Node) bool
}

// annotatedLines collects, per file, the lines carrying a statement-level
// directive of the given verb.
func annotatedLines(pass *framework.Pass, verb string) map[*ast.File]map[int]bool {
	out := make(map[*ast.File]map[int]bool)
	for _, f := range pass.Files {
		lines := make(map[int]bool)
		for _, d := range framework.Directives(pass.Fset, f) {
			if d.Verb == verb {
				lines[d.Pos.Line] = true
			}
		}
		out[f] = lines
	}
	return out
}

// lineChecker reports whether a node sits on (or one line below) an
// annotated line.
func lineChecker(pass *framework.Pass, lines map[int]bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		line := pass.Fset.Position(n.Pos()).Line
		return lines[line] || lines[line-1]
	}
}

// walk checks one subtree. allowRank is true inside audited handoff code —
// a function annotated with //simlint:rank-handoff, or the body of a
// goroutine whose `go` statement carries the annotation — where the
// resume/yield channel pair may be used. All other channels stay
// forbidden.
func (c *goroutineCtx) walk(root ast.Node, allowRank bool) {
	pass := c.pass
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			rankAnn := allowRank || (c.inAmpi && c.rankAnnotated(n))
			checkGoStmt(pass, n, c.inAmpi, rankAnn)
			// Descend manually so the protocol channels inside an
			// annotated goroutine are permitted.
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				c.walk(lit.Body, rankAnn)
				for _, arg := range n.Call.Args {
					c.walk(arg, allowRank)
				}
				return false
			}
		case *ast.SendStmt:
			if !(allowRank && handoffChan(n.Chan)) {
				pass.Reportf(n.Pos(), "channel send in simulation code: "+
					"only the annotated AMPI resume/yield handoff may use channels")
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && !(allowRank && handoffChan(n.X)) {
				pass.Reportf(n.Pos(), "channel receive in simulation code: "+
					"only the annotated AMPI resume/yield handoff may use channels")
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select in simulation code: scheduling must be "+
				"decided by the event kernel, never by channel readiness")
		case *ast.RangeStmt:
			if t := pass.TypesInfo.Types[n.X].Type; t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.Pos(), "range over channel in simulation code")
				}
			}
		case *ast.CallExpr:
			checkChanBuiltins(pass, n, allowRank)
		}
		return true
	})
}

// docDirective reports a `//simlint:<verb>` directive (optionally followed
// by a `-- reason`) in the function's doc comment.
func docDirective(fd *ast.FuncDecl, verb string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//simlint:"+verb)
		if ok && (rest == "" || strings.HasPrefix(rest, " ")) {
			return true
		}
	}
	return false
}

// handoffChan reports whether a channel expression names one of the two
// audited handoff channels.
func handoffChan(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name == "resume" || x.Sel.Name == "yield"
	case *ast.Ident:
		return x.Name == "resume" || x.Name == "yield"
	}
	return false
}

// checkGoStmt validates a go statement: forbidden outside internal/ampi,
// and inside it must be annotated and follow the handoff shape — the
// spawned thread's first act is to block on <-resume, and it hands the PE
// back with a send on yield.
func checkGoStmt(pass *framework.Pass, g *ast.GoStmt, inAmpi, annotated bool) {
	switch {
	case !inAmpi:
		pass.Reportf(g.Pos(), "goroutine in simulation code: all work must run on the "+
			"event loop (see DESIGN.md \"Determinism rules\")")
	case !annotated:
		pass.Reportf(g.Pos(), "goroutine in internal/ampi without //simlint:rank-handoff: "+
			"annotate the audited handoff or remove the goroutine")
	case !handoffShape(g):
		pass.Reportf(g.Pos(), "annotated rank-handoff goroutine breaks the protocol: the "+
			"thread must first block on <-resume and finish with a send on yield")
	}
}

// handoffShape checks the yield/resume protocol on an annotated goroutine.
func handoffShape(g *ast.GoStmt) bool {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok || len(lit.Body.List) == 0 {
		return false
	}
	first, ok := lit.Body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	recv, ok := first.X.(*ast.UnaryExpr)
	if !ok || recv.Op.String() != "<-" || !isNamed(recv.X, "resume") {
		return false
	}
	yields := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SendStmt); ok && isNamed(s.Chan, "yield") {
			yields = true
		}
		return true
	})
	return yields
}

// isNamed matches an identifier or selector of the given terminal name.
func isNamed(x ast.Expr, name string) bool {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name == name
	case *ast.Ident:
		return x.Name == name
	}
	return false
}

// checkChanBuiltins flags make(chan ...) and close(ch) outside audited code.
func checkChanBuiltins(pass *framework.Pass, call *ast.CallExpr, funcOK bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	if !ok {
		return
	}
	switch b.Name() {
	case "make":
		if len(call.Args) == 0 {
			return
		}
		t := pass.TypesInfo.Types[call.Args[0]].Type
		if t == nil {
			return
		}
		if _, isChan := t.Underlying().(*types.Chan); isChan && !funcOK {
			pass.Reportf(call.Pos(), "channel creation in simulation code: only the "+
				"annotated AMPI rank-handoff may own channels")
		}
	case "close":
		if len(call.Args) == 1 {
			t := pass.TypesInfo.Types[call.Args[0]].Type
			if t == nil {
				return
			}
			if _, isChan := t.Underlying().(*types.Chan); isChan && !funcOK {
				pass.Reportf(call.Pos(), "closing a channel in simulation code")
			}
		}
	}
}
