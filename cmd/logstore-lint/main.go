// Command logstore-lint runs the project's invariant analyzers
// (internal/lint) over module packages and reports findings in the
// standard file:line:col format.
//
// Usage:
//
//	logstore-lint [-list] [-only name,name] [-stats] [patterns...]
//
// Patterns are package directories or "dir/..." trees; the default is
// "./..." (the whole module). Exit status: 0 clean, 1 findings, 2 usage
// or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"logstore/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	stats := flag.Bool("stats", false, "print per-analyzer timing and finding counts")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All()
	if *only != "" {
		analyzers = lint.ByName(strings.Split(*only, ","))
		if analyzers == nil {
			fmt.Fprintf(os.Stderr, "logstore-lint: unknown analyzer in -only=%s\n", *only)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "logstore-lint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "logstore-lint: %v\n", err)
		os.Exit(2)
	}

	findings, runStats, err := lint.RunStats(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "logstore-lint: %v\n", err)
		os.Exit(2)
	}
	if *stats {
		for _, s := range runStats {
			fmt.Fprintf(os.Stderr, "logstore-lint: %-12s %8.1fms  %d finding(s)\n",
				s.Name, float64(s.Duration.Microseconds())/1000, s.Findings)
		}
	}

	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "logstore-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
