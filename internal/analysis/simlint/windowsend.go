package simlint

import (
	"go/ast"
	"go/types"

	"charmgo/internal/analysis/framework"
)

// WindowSend closes the loophole shardescape's write check cannot see:
// scheduling is a method call, not a store, yet a worker that schedules
// onto another shard inside a window bypasses the lookahead horizon the
// conservative-window protocol depends on. Inside worker-side code
// (minus the audited //simlint:outbox-transfer verbs) the analyzer
// rejects:
//
//   - scheduling calls on the sharded coordinator itself (ShardedEngine
//     methods) — the coordinator routes across shards;
//   - scheduling calls through the Kernel interface — dynamic dispatch
//     may resolve to the coordinator;
//   - Engine scheduling calls whose receiver expression traverses a
//     ShardedEngine value (se.shards[d].AtArg(...)) — another shard's
//     engine reached via the coordinator.
//
// The one sanctioned path is Shard.Send: the outbox-transfer verb that
// buffers cross-shard events past the window horizon (and whose runtime
// panic guard backs the static rule up).
var WindowSend = &framework.Analyzer{
	Name: "windowsend",
	Doc: "shard-worker code must not schedule through the coordinator or another " +
		"shard's engine; cross-shard events go through the Shard.Send outbox",
	Run: runWindowSend,
}

// schedMethods is the kernel scheduling surface (engine.go, shard.go,
// kernel.go): anything that books an event.
var schedMethods = map[string]bool{
	"At": true, "AtArg": true,
	"Schedule": true, "ScheduleArg": true,
}

func runWindowSend(pass *framework.Pass) error {
	if !simulationScope(pass.PkgPath) {
		return nil
	}
	c := shardContext(pass)
	if len(c.workerLits) == 0 {
		return nil
	}
	for _, body := range workerBodies(pass, c) {
		scanWindowSends(pass, body)
	}
	return nil
}

func scanWindowSends(pass *framework.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !schedMethods[sel.Sel.Name] {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		pkgPath, recvName, iface := recvType(fn)
		if !under(rel(pkgPath), "internal/sim") {
			return true
		}
		switch {
		case recvName == "ShardedEngine":
			pass.Reportf(call.Pos(),
				"shard worker schedules through the coordinator (ShardedEngine.%s): "+
					"cross-shard events must go through the Shard.Send outbox", sel.Sel.Name)
		case iface:
			pass.Reportf(call.Pos(),
				"shard worker schedules through the %s interface (%s): dynamic dispatch may cross "+
					"shards; use the shard's own engine or the Shard.Send outbox", recvName, sel.Sel.Name)
		case recvName == "Engine" && mentionsShardedEngine(pass, sel.X):
			pass.Reportf(call.Pos(),
				"shard worker schedules on an engine reached through the coordinator (%s): "+
					"another shard's queue; use the Shard.Send outbox", sel.Sel.Name)
		}
		return true
	})
}

// recvType names a method's receiver: package path, type name, and
// whether the method belongs to an interface.
func recvType(fn *types.Func) (pkgPath, name string, iface bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		iface = true
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", "", iface
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), iface
}

// mentionsShardedEngine reports whether any sub-expression of the
// receiver has (pointer-to-)ShardedEngine type — the syntactic signature
// of reaching an engine through the coordinator's routing tables.
func mentionsShardedEngine(pass *framework.Pass, x ast.Expr) bool {
	found := false
	ast.Inspect(x, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok || found {
			return !found
		}
		t := pass.TypesInfo.TypeOf(e)
		if t == nil {
			return true
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Name() == "ShardedEngine" &&
			named.Obj().Pkg() != nil && under(rel(named.Obj().Pkg().Path()), "internal/sim") {
			found = true
		}
		return !found
	})
	return found
}
