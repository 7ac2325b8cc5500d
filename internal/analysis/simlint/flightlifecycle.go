package simlint

import (
	"go/ast"
	"go/token"
	"go/types"

	"charmgo/internal/analysis/framework"
)

// FlightLifecycle proves every flight record obeys its lifecycle exactly
// once on every non-panicking path: a pooled `flight record` is born
// (pool Get), filled, launched into the engine or else zeroed and Put
// back; a completion callback re-enters it, may use it, and must
// zero-then-Put before exit. No path may drop a live flight (a leak the
// pool never recovers), use one after retirement (the recycled-record
// corruption poolleak cannot see because the Put happens in a different
// function), or Put one that was never zeroed. The machine tracks each
// record through the local that holds it (one cell per variable; two
// locals aliasing one flight are two cells, see testdata alias.go) and is
// deliberately intraprocedural: the launch verb hands
// the record to the engine, and the annotated completion callback
// independently proves the second half of the lifecycle (the composition
// contract in DESIGN.md §6).
var FlightLifecycle = &framework.Analyzer{
	Name: "flightlifecycle",
	Doc: "prove flight records are launched or retired exactly once per path: " +
		"no dropped flights, no use after retirement, Put only after zeroing",
	Grammar: "//simlint:proto flight record   (type doc: pooled completion record)\n" +
		"//simlint:proto flight complete   (func doc: completion callback that must retire it)",
	Run: runFlightLifecycle,
}

// flightMachine declares the lifecycle: born → live (birth or callback
// entry) → launched (handed to the engine; still readable) or zeroed →
// retired (Put). "use" (any field access) self-loops in every state that
// still owns the record — and has no rule in "retired", so a use after
// Put reports.
func flightMachine() *framework.Machine[string] {
	return framework.NewMachine("flight", "born").
		Rule("born", "record", "live").
		Rule("born", "enter", "live").
		Rule("live", "use", "live").
		Rule("live", "launch", "launched").
		Rule("live", "zero", "zeroed").
		Rule("launched", "use", "launched").
		Rule("zeroed", "put", "retired").
		Accept("launched", "retired")
}

func flightEngine(pass *framework.Pass, c *protoCtx) *framework.Typestate[string] {
	return pass.Prog.Memo("flightlifecycle-engine", func() any {
		ts := &framework.Typestate[string]{
			Machine:  flightMachine(),
			Analyzer: pass.Analyzer,
			Prog:     pass.Prog,
		}
		ts.Classify = func(fi *framework.FuncInfo, n ast.Node, emit func(framework.TsOp)) {
			classifyFlight(c, ts, fi, n, emit)
		}
		return ts
	}).(*framework.Typestate[string])
}

// classifyFlight attributes flight operations to one CFG node. Bare
// flight identifiers are not uses — only selector accesses are — so the
// releasing Put's own argument and the launch call's record argument do
// not read the record they hand off.
func classifyFlight(c *protoCtx, ts *framework.Typestate[string], fi *framework.FuncInfo, n ast.Node, emit func(framework.TsOp)) {
	info := fi.Pass.TypesInfo
	role := ""
	if obj := fi.Obj(); obj != nil {
		role = c.flightRole(framework.FuncID(obj))
	}
	flightVar := func(e ast.Expr) *types.Var {
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			if v, ok = info.Defs[id].(*types.Var); !ok {
				return nil
			}
		}
		if !c.isFlightPtr(v.Type()) {
			return nil
		}
		return v
	}

	inspectNode(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			// Birth: `fl := pool.Get()` / `fl := arg.(*T)`. A type assert
			// inside a role-annotated callback is the record re-entering
			// mid-lifecycle, not a fresh birth.
			if m.Tok == token.DEFINE {
				for i, l := range m.Lhs {
					v := flightVar(l)
					if v == nil {
						continue
					}
					verb := "record"
					if role != "" && i < len(m.Rhs) {
						if _, isAssert := m.Rhs[i].(*ast.TypeAssertExpr); isAssert {
							verb = "enter"
						}
					}
					emit(framework.TsOp{Key: ts.RecordKey(v), Birth: true, Pos: m.Pos()})
					emit(framework.TsOp{Key: ts.RecordKey(v), Verb: verb, Pos: m.Pos()})
				}
				return true
			}
			// Zero: `*fl = T{}` readies a record for Put.
			if len(m.Lhs) == 1 {
				if star, ok := m.Lhs[0].(*ast.StarExpr); ok {
					if v := flightVar(star.X); v != nil {
						emit(framework.TsOp{Key: ts.RecordKey(v), Verb: "zero", Pos: m.Pos()})
						return true
					}
				}
			}
		case *ast.CallExpr:
			// Put: the pool retirement verb.
			if sel, ok := m.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Put" {
				for _, a := range m.Args {
					if v := flightVar(a); v != nil {
						emit(framework.TsOp{Key: ts.RecordKey(v), Verb: "put", Pos: m.Pos()})
					}
				}
				return true
			}
			// Launch: a call passing both a completion function value and the
			// bare record (AtArg and machine-layer wrappers) hands the
			// record to the engine.
			if funcValueArg(info, m) {
				for _, a := range m.Args {
					if v := flightVar(a); v != nil {
						emit(framework.TsOp{Key: ts.RecordKey(v), Verb: "launch", Pos: m.Pos()})
					}
				}
			}
		case *ast.SelectorExpr:
			// Any field access through the record is a use.
			if v := flightVar(m.X); v != nil {
				emit(framework.TsOp{Key: ts.RecordKey(v), Verb: "use", Pos: m.Pos()})
				return false
			}
		}
		return true
	})
}

func runFlightLifecycle(pass *framework.Pass) error {
	if !simulationScope(pass.PkgPath) {
		return nil
	}
	c := protoContext(pass)
	ts := flightEngine(pass, c)
	for _, pf := range c.scopeFuncs(pass) {
		if !inPass(pass, pf.pkg.PkgPath) {
			continue
		}
		role := c.flightRole(pf.id)
		var accept func(string) bool
		if role != "" {
			if role != "complete" {
				pass.Reportf(pf.decl.Name.Pos(),
					"unknown flight role %q: want complete", role)
				continue
			}
			// A completion callback must actually retire the record:
			// exiting merely "launched" would hand it back to the engine.
			accept = func(s string) bool { return s == "retired" }
		}
		fi := findFuncInfo(pass, pf.decl)
		if fi == nil {
			continue
		}
		for _, v := range ts.Analyze(fi, nil, accept) {
			switch {
			case v.Exit && role != "":
				pass.Reportf(v.Pos,
					"flight entering `flight %s` callback %s may exit in state %q: "+
						"the callback must leave it retired to its pool", role, pf.display, v.State)
			case v.Exit:
				pass.Reportf(v.Pos,
					"flight born here may be dropped: some path through %s exits in "+
						"state %q without launching or retiring it", pf.display, v.State)
			case v.Verb == "use" && v.State == "retired":
				pass.Reportf(v.Pos,
					"flight used after being returned to its pool: the pool may have "+
						"recycled it into another record")
			case v.Verb == "put":
				pass.Reportf(v.Pos,
					"flight Put from state %q: records must be zeroed before pool "+
						"retirement (and only retired once)", v.State)
			default:
				pass.Reportf(v.Pos,
					"flight lifecycle violation in %s: %q is not legal in state %q",
					pf.display, v.Verb, v.State)
			}
		}
	}
	return nil
}
