package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"charmgo/internal/analysis/framework"
)

// jsonDiag is the -json wire form of one finding. The field set and
// ordering are a stable contract for CI and editor tooling — the golden
// test in render_test.go pins them.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// jsonSuppression is the -audit -json wire form of one audited exception:
// an allow directive or a proto binding.
type jsonSuppression struct {
	Directive string `json:"directive"`
	Analyzer  string `json:"analyzer"`
	File      string `json:"file"`
	Line      int    `json:"line"`
	Col       int    `json:"col"`
	Reason    string `json:"reason"`
}

// renderDiagsJSON renders findings as an indented JSON array (`[]` when
// clean, never null), terminated by a newline. Input order is preserved:
// framework.Run already sorts by file, line, analyzer, column, message.
func renderDiagsJSON(diags []framework.Diagnostic) ([]byte, error) {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}
	return marshalLines(out)
}

// renderAuditJSON renders the suppression audit as an indented JSON
// array in the framework's file/line order.
func renderAuditJSON(sups []framework.Suppression) ([]byte, error) {
	out := make([]jsonSuppression, 0, len(sups))
	for _, s := range sups {
		out = append(out, jsonSuppression{
			Directive: s.Verb,
			Analyzer:  s.Analyzer,
			File:      s.Pos.Filename,
			Line:      s.Pos.Line,
			Col:       s.Pos.Column,
			Reason:    s.Reason,
		})
	}
	return marshalLines(out)
}

// renderRules renders the registered analyzers in suite order with their
// one-line contract and (when the analyzer consumes `//simlint:`
// annotations) the annotation grammar, one indented line each. The shape
// is a stable contract pinned by the golden test in render_test.go.
func renderRules(analyzers []*framework.Analyzer) []byte {
	var b strings.Builder
	for i, a := range analyzers {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s\n", a.Name)
		fmt.Fprintf(&b, "  %s\n", a.Doc)
		if a.Grammar == "" {
			continue
		}
		for _, line := range strings.Split(strings.TrimRight(a.Grammar, "\n"), "\n") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return []byte(b.String())
}

func marshalLines(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
