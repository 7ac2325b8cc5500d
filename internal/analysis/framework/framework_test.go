package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadModule loads one real package (with its test files) through the
// offline loader and checks the pieces analysis needs: syntax, types, and
// a populated Uses map.
func TestLoadModule(t *testing.T) {
	l := NewLoader(".")
	pkgs, err := l.LoadModule("charmgo/internal/stats")
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, p := range pkgs {
		if p.PkgPath != "charmgo/internal/stats" {
			continue
		}
		found = true
		if len(p.Syntax) == 0 {
			t.Fatal("no syntax loaded")
		}
		if p.Types.Scope().Lookup("SortedKeys") == nil {
			t.Error("SortedKeys not found in package scope")
		}
		if len(p.TypesInfo.Uses) == 0 {
			t.Error("TypesInfo.Uses is empty")
		}
	}
	if !found {
		t.Fatalf("charmgo/internal/stats not among %d loaded packages", len(pkgs))
	}
}

// parseOne wraps a source string into a Package good enough for the
// directive and suppression helpers (which only need Fset and Syntax).
func parseOne(t *testing.T, filename, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{PkgPath: "p", Fset: fset, Syntax: []*ast.File{f}}
}

func TestDirectives(t *testing.T) {
	pkg := parseOne(t, "d.go", `package p

//simlint:rank-handoff
func a() {}

func b() {
	//simlint:allow maporder -- reason text
	_ = 1
}
`)
	ds := Directives(pkg.Fset, pkg.Syntax[0])
	if len(ds) != 2 {
		t.Fatalf("got %d directives, want 2", len(ds))
	}
	if ds[0].Verb != "rank-handoff" || ds[0].Args != "" {
		t.Errorf("directive 0 = %+v", ds[0])
	}
	if ds[1].Verb != "allow" || ds[1].Args != "maporder -- reason text" {
		t.Errorf("directive 1 = %+v", ds[1])
	}
}

// TestUnknownDirectives pins the closed directive grammar over
// testdata/verbs.go: the six grammar verbs pass, and a typo plus the four
// retired shard-ownership verbs are listed in position order.
func TestUnknownDirectives(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "verbs.go"))
	if err != nil {
		t.Fatal(err)
	}
	pkg := parseOne(t, "verbs.go", string(src))
	var got []string
	for _, d := range UnknownDirectives([]*Package{pkg}) {
		got = append(got, d.Verb)
	}
	want := []string{"alow", "shared", "outbox", "outbox-transfer", "shard-worker"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unknown verbs = %q, want %q", got, want)
	}
}

func TestSuppressions(t *testing.T) {
	pkg := parseOne(t, "s.go", `package p

func a() {
	//simlint:allow maporder -- justified here
	_ = 1 // line 5: suppressed finding

	//simlint:allow maporder -- nothing underneath (line 7)
	_ = 2

	//simlint:allow maporder
	_ = 3 // line 11: bare allow suppresses nothing
}
`)
	diags := []Diagnostic{
		{Analyzer: "maporder", Pos: token.Position{Filename: "s.go", Line: 5}, Message: "escape"},
		{Analyzer: "maporder", Pos: token.Position{Filename: "s.go", Line: 11}, Message: "escape"},
	}
	got := applySuppressions(pkg, diags)

	var msgs []string
	for _, d := range got {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, " | ")
	if len(got) != 3 {
		t.Fatalf("got %d diagnostics (%s), want 3", len(got), joined)
	}
	if !strings.Contains(joined, "escape") {
		t.Errorf("finding above the bare allow should survive: %s", joined)
	}
	if !strings.Contains(joined, "unused //simlint:allow maporder") {
		t.Errorf("missing unused-allow report: %s", joined)
	}
	if !strings.Contains(joined, "unexplained suppression") {
		t.Errorf("missing unexplained-suppression report: %s", joined)
	}
	for _, d := range got {
		if d.Analyzer == "maporder" && d.Pos.Line == 5 {
			t.Errorf("line 5 finding should have been suppressed: %s", joined)
		}
	}
}
