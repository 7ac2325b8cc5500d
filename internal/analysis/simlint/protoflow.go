package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"charmgo/internal/analysis/framework"
)

// This file builds the whole-program context the protoflow analyzer
// family (creditbalance, flightlifecycle, eventtotality, boundedretry)
// shares: the `//simlint:proto` protocol bindings and the syntactic
// facts (event emissions, function references, credit-field writers)
// their typestate machines consume.
//
// The annotation grammar (DESIGN.md §6 "Protocol typestate rules"; also
// printed by `simlint -rules`):
//
//	//simlint:proto credit window            struct field: a per-connection SMSG credit window
//	//simlint:proto credit account           struct field: the global in-flight credit account
//	//simlint:proto credit consume           func doc: consumes one credit (window and account
//	                                         move +1 together, or not at all on refusal paths)
//	//simlint:proto credit return            func doc: returns one credit (-1 together, or 0 on
//	                                         the no-connection / flight-launch paths)
//	//simlint:proto credit drain             func doc: re-issues queued sends on EvCreditReturn
//	//simlint:proto flight record            type doc: a pooled completion record
//	//simlint:proto flight complete          func doc: a flight's terminal completion callback
//	//simlint:proto event kind <class>...    const doc/comment: classifies an event kind; class
//	                                         "polled" means no dispatcher must handle it
//	//simlint:proto event dispatch <class> [Kind...]
//	                                         func doc: the function dispatches every kind of
//	                                         <class>; extra Kind names are accounted arms the
//	                                         body handles without naming the constant
//	//simlint:proto retry bounded            func doc: a fault handler that re-posts failed
//	                                         descriptors under an Attempts guard with backoff
//	//simlint:proto retry post               func doc: a posting verb re-posts flow through
//	                                         (GNI.PostFma / PostRdma / the rdmaUnit selector)

// protoFn is one in-scope declared function with its proto annotations.
type protoFn struct {
	id      string
	display string
	pkg     *framework.Package
	decl    *ast.FuncDecl
	anns    [][]string // each //simlint:proto line, tokenized after the verb
}

// eventKind is one labeled event constant.
type eventKind struct {
	id        string // "pkg/path.Name"
	name      string
	classes   []string
	typeKey   string // "pkg/path.TypeName"
	pkgPath   string
	pos       token.Pos
	emissions []token.Pos // composite `Type: Kind` / `.Type = Kind` sites
}

// protoDispatcher is one `event dispatch` annotated handler.
type protoDispatcher struct {
	fn     *protoFn
	class  string
	extras map[string]bool // kind names accounted without a body reference
	refs   map[string]bool // labeled const ids the body references
}

// protoCtx is the shared protoflow context, built once per Run.
type protoCtx struct {
	prog *framework.Program

	fns map[string]*protoFn // every in-scope declared function

	creditFields map[string]string // "pkg.Type.field" -> "window" | "account"
	flightTypes  map[string]bool   // "pkg.Type" of annotated flight records

	eventConsts map[string]*eventKind // "pkg.Name"
	eventTypes  map[string]bool       // typeKeys that carry labeled kinds
	unlabeled   []*eventKind          // consts of a labeled type without a label
	dispatchers []*protoDispatcher

	refs          map[string]map[string]bool // funcID -> referenced funcIDs
	creditWriters map[string]bool            // funcID -> direct annotated-field write
	creditTouch   map[string]bool            // funcID -> transitively reaches a writer
	creditReach   map[string]bool            // funcIDs reachable from credit-role fns
}

// protoContext builds (once per Run) the shared protoflow context.
func protoContext(pass *framework.Pass) *protoCtx {
	return pass.Prog.Memo("protoflow", func() any {
		c := &protoCtx{
			prog:          pass.Prog,
			fns:           make(map[string]*protoFn),
			creditFields:  make(map[string]string),
			flightTypes:   make(map[string]bool),
			eventConsts:   make(map[string]*eventKind),
			eventTypes:    make(map[string]bool),
			refs:          make(map[string]map[string]bool),
			creditWriters: make(map[string]bool),
			creditTouch:   make(map[string]bool),
		}
		c.collectAnnotations()
		c.collectBodies()
		return c
	}).(*protoCtx)
}

// protoAnnLines extracts `//simlint:proto` lines from a comment group,
// tokenized ("credit window" -> ["credit", "window"]).
func protoAnnLines(cgs ...*ast.CommentGroup) [][]string {
	var out [][]string
	for _, cg := range cgs {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//simlint:proto")
			if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
				continue
			}
			if f := strings.Fields(rest); len(f) > 0 {
				out = append(out, f)
			}
		}
	}
	return out
}

// annIs matches one tokenized annotation line against a prefix.
func annIs(ann []string, words ...string) bool {
	if len(ann) < len(words) {
		return false
	}
	for i, w := range words {
		if ann[i] != w {
			return false
		}
	}
	return true
}

// collectAnnotations walks every in-scope declaration for proto bindings.
func (c *protoCtx) collectAnnotations() {
	for _, pkg := range c.prog.Pkgs {
		if !simulationScope(pkg.PkgPath) {
			continue
		}
		for _, f := range pkg.Syntax {
			if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					c.addFunc(pkg, d)
				case *ast.GenDecl:
					c.addGenDecl(pkg, d)
				}
			}
		}
	}
	// Totality pre-check input: every const of a type that carries labeled
	// kinds must itself be labeled.
	for _, pkg := range c.prog.Pkgs {
		if !simulationScope(pkg.PkgPath) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			cn, ok := scope.Lookup(name).(*types.Const)
			if !ok {
				continue
			}
			tk := namedTypeKey(cn.Type())
			if tk == "" || !c.eventTypes[tk] {
				continue
			}
			id := pkg.Types.Path() + "." + cn.Name()
			if _, labeled := c.eventConsts[id]; !labeled {
				c.unlabeled = append(c.unlabeled, &eventKind{
					id: id, name: cn.Name(), typeKey: tk, pkgPath: pkg.PkgPath, pos: cn.Pos(),
				})
			}
		}
	}
	sort.Slice(c.unlabeled, func(i, j int) bool { return c.unlabeled[i].id < c.unlabeled[j].id })
	sort.Slice(c.dispatchers, func(i, j int) bool { return c.dispatchers[i].fn.id < c.dispatchers[j].fn.id })
}

func (c *protoCtx) addFunc(pkg *framework.Package, d *ast.FuncDecl) {
	if d.Body == nil {
		return
	}
	fn, _ := pkg.TypesInfo.Defs[d.Name].(*types.Func)
	id := framework.FuncID(fn)
	if id == "" {
		return
	}
	if _, exists := c.fns[id]; exists {
		// Test-variant packages re-present the base package's files; the
		// first sighting wins so dispatchers are not double-registered.
		return
	}
	pf := &protoFn{id: id, display: d.Name.Name, pkg: pkg, decl: d, anns: protoAnnLines(d.Doc)}
	c.fns[id] = pf
	for _, ann := range pf.anns {
		if annIs(ann, "event", "dispatch") && len(ann) >= 3 {
			disp := &protoDispatcher{fn: pf, class: ann[2], extras: make(map[string]bool)}
			for _, k := range ann[3:] {
				disp.extras[k] = true
			}
			c.dispatchers = append(c.dispatchers, disp)
		}
	}
}

func (c *protoCtx) addGenDecl(pkg *framework.Package, d *ast.GenDecl) {
	switch d.Tok {
	case token.TYPE:
		for _, spec := range d.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			for _, ann := range protoAnnLines(d.Doc, ts.Doc, ts.Comment) {
				if annIs(ann, "flight", "record") {
					c.flightTypes[pkg.Types.Path()+"."+ts.Name.Name] = true
				}
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, fld := range st.Fields.List {
				for _, ann := range protoAnnLines(fld.Doc, fld.Comment) {
					for _, name := range fld.Names {
						key := pkg.Types.Path() + "." + ts.Name.Name + "." + name.Name
						switch {
						case annIs(ann, "credit", "window"):
							c.creditFields[key] = "window"
						case annIs(ann, "credit", "account"):
							c.creditFields[key] = "account"
						}
					}
				}
			}
		}
	case token.CONST:
		for _, spec := range d.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			cgs := []*ast.CommentGroup{vs.Doc, vs.Comment}
			if len(d.Specs) == 1 {
				// Unparenthesized `const X = ...`: the doc sits on the GenDecl.
				cgs = append(cgs, d.Doc)
			}
			for _, ann := range protoAnnLines(cgs...) {
				if !annIs(ann, "event", "kind") || len(ann) < 3 {
					continue
				}
				for _, name := range vs.Names {
					cn, ok := pkg.TypesInfo.Defs[name].(*types.Const)
					if !ok {
						continue
					}
					id := pkg.Types.Path() + "." + cn.Name()
					tk := namedTypeKey(cn.Type())
					c.eventConsts[id] = &eventKind{
						id: id, name: cn.Name(), classes: ann[2:],
						typeKey: tk, pkgPath: pkg.PkgPath, pos: name.Pos(),
					}
					if tk != "" {
						c.eventTypes[tk] = true
					}
				}
			}
		}
	}
}

// collectBodies walks every in-scope function body once for the
// syntactic facts: the reference graph, direct credit-field writers,
// event emissions, and dispatcher arm references.
func (c *protoCtx) collectBodies() {
	byID := make(map[string]*protoDispatcher)
	for _, d := range c.dispatchers {
		d.refs = make(map[string]bool)
		byID[d.fn.id] = d
	}
	for _, pf := range c.fns {
		refs := make(map[string]bool)
		disp := byID[pf.id]
		info := pf.pkg.TypesInfo
		ast.Inspect(pf.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				switch obj := info.Uses[n].(type) {
				case *types.Func:
					if fid := framework.FuncID(obj); fid != "" {
						refs[fid] = true
					}
				case *types.Const:
					if disp != nil && obj.Pkg() != nil {
						id := obj.Pkg().Path() + "." + obj.Name()
						if _, ok := c.eventConsts[id]; ok {
							disp.refs[id] = true
						}
					}
				}
			case *ast.KeyValueExpr:
				// Composite-literal emission: Event{..., Type: Kind, ...}.
				if key, ok := n.Key.(*ast.Ident); ok && key.Name == "Type" {
					c.noteEmission(info, n.Value, n.Pos())
				}
			case *ast.AssignStmt:
				// Assignment emission: ev.Type = Kind.
				for i, l := range n.Lhs {
					if sel, ok := l.(*ast.SelectorExpr); ok && sel.Sel.Name == "Type" && i < len(n.Rhs) {
						c.noteEmission(info, n.Rhs[i], n.Pos())
					}
				}
				if key := c.assignedCreditField(info, n); key != "" {
					c.creditWriters[pf.id] = true
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && c.selectorCreditRole(info, sel) != "" {
					c.creditWriters[pf.id] = true
				}
			}
			return true
		})
		c.refs[pf.id] = refs
	}
}

// noteEmission records an emission site when the expression resolves to
// a labeled event constant.
func (c *protoCtx) noteEmission(info *types.Info, v ast.Expr, pos token.Pos) {
	if k := c.constKind(info, v); k != nil {
		k.emissions = append(k.emissions, pos)
	}
}

// constKind resolves an expression to the labeled event kind it names.
func (c *protoCtx) constKind(info *types.Info, e ast.Expr) *eventKind {
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	if cn, ok := info.Uses[id].(*types.Const); ok && cn.Pkg() != nil {
		return c.eventConsts[cn.Pkg().Path()+"."+cn.Name()]
	}
	return nil
}

// selectorCreditRole resolves x.f to "window"/"account" when f is an
// annotated credit field.
func (c *protoCtx) selectorCreditRole(info *types.Info, sel *ast.SelectorExpr) string {
	return c.creditFields[fieldKeyOfSel(info, sel)]
}

// assignedCreditField reports the credit-field key an assignment writes,
// "" when it touches none.
func (c *protoCtx) assignedCreditField(info *types.Info, as *ast.AssignStmt) string {
	for _, l := range as.Lhs {
		if sel, ok := l.(*ast.SelectorExpr); ok {
			if role := c.selectorCreditRole(info, sel); role != "" {
				return fieldKeyOfSel(info, sel)
			}
		}
	}
	return ""
}

// fieldKeyOfSel resolves a field selector x.f to its "pkg.Type.f" key, ""
// when it selects no field of a named type. It reads type information
// alone, so protocol classifiers can run under summary-solve scratch
// passes.
func fieldKeyOfSel(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	t := s.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Sel.Name
}

// fnAnn returns the first proto annotation of fn matching the prefix
// words, or nil.
func (c *protoCtx) fnAnn(id string, words ...string) []string {
	pf, ok := c.fns[id]
	if !ok {
		return nil
	}
	for _, ann := range pf.anns {
		if annIs(ann, words...) {
			return ann
		}
	}
	return nil
}

// touchesCredit reports whether the function (transitively) reaches a
// direct credit-field writer through the reference graph.
func (c *protoCtx) touchesCredit(id string) bool {
	if v, ok := c.creditTouch[id]; ok {
		return v
	}
	seen := map[string]bool{id: true}
	queue := []string{id}
	found := false
	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		if c.creditWriters[cur] {
			found = true
			break
		}
		for next := range c.refs[cur] {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	c.creditTouch[id] = found
	return found
}

// isFlightPtr reports whether a type is a pointer to an annotated flight
// record type.
func (c *protoCtx) isFlightPtr(t types.Type) bool {
	if t == nil {
		return false
	}
	ptr, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	tk := namedTypeKey(ptr.Elem())
	return tk != "" && c.flightTypes[tk]
}

// namedTypeKey renders "pkg/path.TypeName" for (possibly pointer-to)
// named types, "" otherwise.
func namedTypeKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// inPass reports whether a position belongs to the pass's package — the
// report-once discipline for whole-program findings (each analyzer runs
// once per package; a finding is reported by the package that owns the
// flagged declaration).
func inPass(pass *framework.Pass, pkgPath string) bool {
	return pass.PkgPath == pkgPath || strings.TrimSuffix(pass.PkgPath, "_test") == pkgPath
}

// scopeFuncs lists the context functions declared in the pass's package,
// in source order.
func (c *protoCtx) scopeFuncs(pass *framework.Pass) []*protoFn {
	var out []*protoFn
	for _, pf := range c.fns {
		if pf.pkg.PkgPath == pass.PkgPath {
			out = append(out, pf)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].decl.Pos() < out[j].decl.Pos() })
	return out
}

// creditRole reports the function's declared credit role ("consume",
// "return", "drain"), or "".
func (c *protoCtx) creditRole(id string) string {
	if ann := c.fnAnn(id, "credit"); len(ann) >= 2 {
		return ann[1]
	}
	return ""
}

// flightRole reports the function's declared flight role ("complete"), or
// "".
func (c *protoCtx) flightRole(id string) string {
	if ann := c.fnAnn(id, "flight"); len(ann) >= 2 {
		return ann[1]
	}
	return ""
}

// retryRole reports the function's declared retry role ("bounded",
// "post"), or "".
func (c *protoCtx) retryRole(id string) string {
	if ann := c.fnAnn(id, "retry"); len(ann) >= 2 {
		return ann[1]
	}
	return ""
}

// creditReachable reports whether id is the transitive-reference closure
// of some credit-role-annotated function (computed once, cached).
func (c *protoCtx) creditReachable(id string) bool {
	if c.creditReach == nil {
		c.creditReach = make(map[string]bool)
		var queue []string
		for fid := range c.fns {
			if c.creditRole(fid) != "" {
				c.creditReach[fid] = true
				queue = append(queue, fid)
			}
		}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for next := range c.refs[cur] {
				if !c.creditReach[next] {
					c.creditReach[next] = true
					queue = append(queue, next)
				}
			}
		}
	}
	return c.creditReach[id]
}

// staticCalleeID resolves a call's static callee to its callgraph FuncID,
// "" for dynamic calls (method values, stored function variables).
func staticCalleeID(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return framework.FuncID(fn)
	}
	return ""
}

// funcValueArg reports whether any argument passes a declared function as
// a value (the closure-free completion-callback idiom: the launch verb of
// the flight protocol).
func funcValueArg(info *types.Info, call *ast.CallExpr) bool {
	for _, a := range call.Args {
		var id *ast.Ident
		switch a := a.(type) {
		case *ast.Ident:
			id = a
		case *ast.SelectorExpr:
			id = a.Sel
		default:
			continue
		}
		if _, ok := info.Uses[id].(*types.Func); ok {
			return true
		}
	}
	return false
}

// inspectNode walks one CFG block node's executable subtree: function
// literals do not execute at their definition site, a range statement
// contributes only its header expressions, and a type-switch clause only
// its binding (cfg.go "Node granularity").
func inspectNode(n ast.Node, f func(ast.Node) bool) {
	var walk func(ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil {
				return false
			}
			switch mm := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CaseClause:
				return false
			case *ast.RangeStmt:
				if !f(mm) {
					return false
				}
				for _, e := range []ast.Expr{mm.Key, mm.Value, mm.X} {
					if e != nil {
						walk(e)
					}
				}
				return false
			}
			return f(m)
		})
	}
	walk(n)
}

// findFuncInfo locates the pass's FuncInfo for a declaration, sharing the
// pass-level CFG cache across the protoflow analyzers of one package.
func findFuncInfo(pass *framework.Pass, decl *ast.FuncDecl) *framework.FuncInfo {
	for _, fi := range pass.Functions() {
		if fi.Decl == decl {
			return fi
		}
	}
	return nil
}
