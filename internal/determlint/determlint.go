package determlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"sunfloor3d/internal/determlint/analysis"
)

// Suite returns the determlint analyzers in the order sunfloor-lint runs
// them.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{MapRange, FloatAccum, WallClock}
}

// resultAffectingInternal lists the internal packages whose output feeds the
// serialised Result (directly or through the memo fingerprint). A package on
// this list must produce byte-identical output run-to-run; everything else —
// the server, the benchmark harnesses, the experiment figure writers, the
// commands — is allowed to iterate maps and read clocks freely.
var resultAffectingInternal = map[string]bool{
	"bench":     true,
	"contend":   true,
	"fault":     true,
	"floorplan": true,
	"geom":      true,
	"graph":     true,
	"lp":        true,
	"memo":      true,
	"mesh":      true,
	"model":     true,
	"noclib":    true,
	"partition": true,
	"place":     true,
	"route":     true,
	"sim":       true,
	"synth":     true,
	"topology":  true,
	"workload":  true,
}

// ResultAffecting reports whether the package at path is bound by the
// determinism contract: the sunfloor3d facade itself plus the internal
// packages listed in resultAffectingInternal.
func ResultAffecting(path string) bool {
	if path == "sunfloor3d" {
		return true
	}
	rest, ok := strings.CutPrefix(path, "sunfloor3d/internal/")
	if !ok {
		return false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return resultAffectingInternal[rest]
}

// A waiver directive suppresses determlint findings at a specific site with a
// mandatory justification:
//
//	//determlint:ordered <reason>   — maprange and floataccum
//	//determlint:wallclock <reason> — wallclock
//
// A directive written on its own line waives the line below it; written at
// the end of a code line it waives that line; written in a function's doc
// comment it waives the entire function. The reason is not optional: a
// directive without one is itself a finding.
const directivePrefix = "//determlint:"

// knownDirectives maps directive names to the analyzers that honour them.
var knownDirectives = map[string]string{
	"ordered":   "maprange, floataccum",
	"wallclock": "wallclock",
}

// directive is one parsed //determlint: comment.
type directive struct {
	pos    token.Pos
	name   string
	reason string
}

// waiverSet indexes the waiver directives of one package.
type waiverSet struct {
	fset       *token.FileSet
	directives []directive
	// lines maps directive name -> "file:line" keys the directive waives.
	lines map[string]map[string]bool
	// spans maps directive name -> position ranges (function bodies) waived
	// by a doc-comment directive.
	spans map[string][]span
}

type span struct{ pos, end token.Pos }

// collectWaivers parses every //determlint: directive in the package.
func collectWaivers(pass *analysis.Pass) *waiverSet {
	w := &waiverSet{
		fset:  pass.Fset,
		lines: make(map[string]map[string]bool),
		spans: make(map[string][]span),
	}
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				name, reason, _ := strings.Cut(rest, " ")
				d := directive{pos: c.Pos(), name: name, reason: strings.TrimSpace(reason)}
				w.directives = append(w.directives, d)
				p := pass.Fset.Position(c.Pos())
				if w.lines[d.name] == nil {
					w.lines[d.name] = make(map[string]bool)
				}
				w.lines[d.name][lineKey(p.Filename, p.Line)] = true
				w.lines[d.name][lineKey(p.Filename, p.Line+1)] = true
			}
		}
		// A directive inside a function's doc comment waives the whole body.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				name, _, _ := strings.Cut(rest, " ")
				w.spans[name] = append(w.spans[name], span{fd.Body.Pos(), fd.Body.End()})
			}
		}
	}
	return w
}

func lineKey(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

// waived reports whether a finding of the given directive class at pos is
// suppressed.
func (w *waiverSet) waived(name string, pos token.Pos) bool {
	p := w.fset.Position(pos)
	if w.lines[name][lineKey(p.Filename, p.Line)] {
		return true
	}
	for _, s := range w.spans[name] {
		if pos >= s.pos && pos < s.end {
			return true
		}
	}
	return false
}

// validate reports malformed directives: unknown names and missing reasons.
// It is called from maprange only, so each defect is reported exactly once
// per package even though several analyzers share the waiver set.
func (w *waiverSet) validate(pass *analysis.Pass) {
	for _, d := range w.directives {
		if _, ok := knownDirectives[d.name]; !ok {
			pass.Reportf(d.pos, "unknown determlint directive %q (known: ordered, wallclock)", d.name)
			continue
		}
		if d.reason == "" {
			pass.Reportf(d.pos, "determlint:%s directive requires a justification: //determlint:%s <reason>", d.name, d.name)
		}
	}
}
