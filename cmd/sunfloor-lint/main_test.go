package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCleanTree asserts the shipped tree lints clean: the determlint suite
// over every package in the module reports nothing. The vet half is skipped
// here (the CI test job runs `go vet` already; running it from a test would
// recompile the world twice).
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-vet=false", "sunfloor3d/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("sunfloor-lint exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("expected no findings, got:\n%s", stdout.String())
	}
}

// TestDescribeAnalyzers asserts -analyzers lists the full suite, one line
// per analyzer.
func TestDescribeAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers"}, &stdout, &stderr); code != 0 {
		t.Fatalf("sunfloor-lint -analyzers exited %d: %s", code, stderr.String())
	}
	names := []string{"maprange:", "floataccum:", "wallclock:"}
	for _, name := range names {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-analyzers output missing %q:\n%s", name, stdout.String())
		}
	}
	if lines := strings.Count(stdout.String(), "\n"); lines != len(names) {
		t.Errorf("-analyzers printed %d lines, want %d:\n%s", lines, len(names), stdout.String())
	}
}
