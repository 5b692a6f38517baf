// Command sunfloor-lint is the multichecker enforcing this repo's
// determinism contract at compile time. It runs the three internal/determlint
// analyzers — maprange, floataccum, wallclock — over the requested packages
// and, by default, the standard `go vet` suite alongside, so one invocation
// covers both the generic and the repo-specific bug classes:
//
//	go run ./cmd/sunfloor-lint ./...
//
// The exit status is 0 when the tree is clean, 1 when any analyzer or vet
// reports a finding, and 2 on operational errors (unparseable packages,
// missing go tool). Findings are printed one per line, sorted by position:
//
//	internal/graph/partition.go:118:2: range over map ... [maprange]
//
// See the package documentation of internal/determlint for the contract,
// the analyzers and the //determlint waiver syntax. Cache-key coverage needs
// no analyzer: internal/memo's Key hashes every exported option field by
// reflection, and its tests check the execution knobs it leaves out.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"

	"sunfloor3d/internal/determlint"
	"sunfloor3d/internal/determlint/analysis"
	"sunfloor3d/internal/determlint/analysis/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sunfloor-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	vet := fs.Bool("vet", true, "also run the standard `go vet` suite on the packages")
	describe := fs.Bool("analyzers", false, "describe the analyzer suite and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: sunfloor-lint [flags] [packages]\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *describe {
		for _, a := range determlint.Suite() {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	failed := false
	if *vet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = stdout
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			if _, ok := err.(*exec.ExitError); !ok {
				fmt.Fprintf(stderr, "sunfloor-lint: running go vet: %v\n", err)
				return 2
			}
			failed = true
		}
	}

	loader := load.New(".", "")
	pkgs, err := loader.Packages(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "sunfloor-lint: %v\n", err)
		return 2
	}

	type finding struct {
		pos       string
		file      string
		line, col int
		msg       string
		name      string
	}
	var findings []finding
	for _, pkg := range pkgs {
		for _, a := range determlint.Suite() {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				p := pkg.Fset.Position(d.Pos)
				findings = append(findings, finding{
					pos: p.String(), file: p.Filename, line: p.Line, col: p.Column,
					msg: d.Message, name: name,
				})
			}
			if _, err := a.Run(pass); err != nil {
				fmt.Fprintf(stderr, "sunfloor-lint: %s on %s: %v\n", a.Name, pkg.Path, err)
				return 2
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		if a.col != b.col {
			return a.col < b.col
		}
		return a.name < b.name
	})
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s: %s [%s]\n", relPos(f.pos), f.msg, f.name)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "sunfloor-lint: %d finding(s)\n", len(findings))
		failed = true
	}
	if failed {
		return 1
	}
	return 0
}

// relPos trims the working directory prefix so findings print repo-relative.
func relPos(pos string) string {
	wd, err := os.Getwd()
	if err != nil {
		return pos
	}
	return strings.TrimPrefix(pos, wd+string(os.PathSeparator))
}
