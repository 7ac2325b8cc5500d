package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"charmgo/internal/analysis/framework"
	"charmgo/internal/analysis/simlint"
)

// benchBudget is the checked-in wall-clock budget for `simlint -bench`
// (cmd/simlint/budget.json). The numbers carry ~4x headroom over a warm
// local run so real regressions — an analyzer or a shared whole-program
// pass going quadratic — trip the gate while CI jitter does not.
type benchBudget struct {
	// LoadSeconds bounds package loading and type-checking.
	LoadSeconds float64 `json:"load_seconds"`
	// AnalysisSeconds bounds the summed analyzer time.
	AnalysisSeconds float64 `json:"analysis_seconds"`
	// AnalyzerSeconds bounds any single analyzer. Shared lazily built
	// state (the call graph, the protocol context) is attributed to the
	// first analyzer that forces it.
	AnalyzerSeconds float64 `json:"analyzer_seconds"`
}

// runBench times each analyzer over the loaded packages, prints the
// breakdown, and returns 1 if any budget line is exceeded.
func runBench(pkgs []*framework.Package, load time.Duration, budgetPath string) int {
	if budgetPath == "" {
		budgetPath = filepath.Join("cmd", "simlint", "budget.json")
	}
	data, err := os.ReadFile(budgetPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}
	var budget benchBudget
	if err := json.Unmarshal(data, &budget); err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %s: %v\n", budgetPath, err)
		return 2
	}

	diags, timings, err := framework.RunTimed(pkgs, simlint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 2
	}

	bad := 0
	var total time.Duration
	for _, tm := range timings {
		total += tm.Elapsed
		over := ""
		if tm.Elapsed.Seconds() > budget.AnalyzerSeconds {
			over = fmt.Sprintf("  OVER BUDGET (%.1fs)", budget.AnalyzerSeconds)
			bad++
		}
		fmt.Printf("%-16s %9.1fms%s\n", tm.Analyzer, float64(tm.Elapsed.Microseconds())/1000, over)
	}
	fmt.Printf("%-16s %9.1fms (budget %.1fs)\n", "analysis total", float64(total.Microseconds())/1000, budget.AnalysisSeconds)
	fmt.Printf("%-16s %9.1fms (budget %.1fs)\n", "load+typecheck", float64(load.Microseconds())/1000, budget.LoadSeconds)
	fmt.Printf("%-16s %9d\n", "findings", len(diags))

	if total.Seconds() > budget.AnalysisSeconds {
		fmt.Fprintf(os.Stderr, "simlint: analysis %.1fs exceeds budget %.1fs\n", total.Seconds(), budget.AnalysisSeconds)
		bad++
	}
	if load.Seconds() > budget.LoadSeconds {
		fmt.Fprintf(os.Stderr, "simlint: load %.1fs exceeds budget %.1fs\n", load.Seconds(), budget.LoadSeconds)
		bad++
	}
	if bad > 0 {
		return 1
	}
	return 0
}
