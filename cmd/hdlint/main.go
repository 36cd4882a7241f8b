// Command hdlint runs the repo's invariant analyzers (locksafety,
// hotalloc, versionbump, snapshotalias, deadexport) over module packages
// and exits nonzero on any finding. It is stdlib-only: packages are
// parsed and typechecked with go/parser, go/types and the source
// importer, so the check runs anywhere a Go toolchain source tree exists
// — no generated export data, no third-party driver.
//
// Usage:
//
//	hdlint [-only analyzer,analyzer] [packages]
//
// Package patterns follow the go tool's relative forms ("./...",
// "./internal/infer", "internal/serve/..."); the default is "./...".
// Like the go tool, the patterns skip nested modules; a nested module
// whose go.mod replaces this one with its directory (bench/) still loads,
// because deadexport counts its references.
//
// Suppress an individual finding with
//
//	//hdlint:ignore <analyzer> <reason>
//
// on the offending line or the line above. The reason is mandatory;
// malformed directives are findings themselves.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"boosthd/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer subset (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hdlint [-only analyzers] [packages]\n\nanalyzers:\n")
		for _, a := range analysis.Analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.Analyzers
	if *only != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "hdlint:", err)
			os.Exit(2)
		}
	}

	prog, pkgs, err := analysis.Load(".", flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "hdlint:", err)
		os.Exit(2)
	}

	findings := analysis.Run(prog, pkgs, analyzers)
	for _, f := range findings {
		rel := f.Pos.Filename
		if r, err := relTo(prog.RootDir, rel); err == nil {
			rel = r
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", rel, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "hdlint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}

func relTo(root, path string) (string, error) {
	if !strings.HasPrefix(path, root) {
		return path, nil
	}
	return strings.TrimPrefix(strings.TrimPrefix(path, root), string(os.PathSeparator)), nil
}
