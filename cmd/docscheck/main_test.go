package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writePkg writes src as the only file of a fresh package directory.
func writePkg(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestContextFields flags an exported struct's exported context.Context
// fields, named or embedded, and passes a package that takes ctx as an
// argument and keeps a context only in an unexported field.
func TestContextFields(t *testing.T) {
	violating := writePkg(t, `// Package p has options that carry a context.
package p

import "context"

// Options tunes a solve.
type Options struct {
	// Ctx bounds the solve.
	Ctx context.Context
	// MaxNodes bounds the search.
	MaxNodes int
}

// Job embeds its context.
type Job struct {
	context.Context
}
`)
	_, ctxFields, _, err := checkDir(violating)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctxFields) != 2 || !strings.Contains(ctxFields[0], "Options.Ctx") ||
		!strings.Contains(ctxFields[1], "Job.Context") {
		t.Fatalf("context fields = %q, want Options.Ctx and Job.Context", ctxFields)
	}

	clean := writePkg(t, `// Package p takes ctx first.
package p

import "context"

// Options tunes a solve.
type Options struct {
	// MaxNodes bounds the search.
	MaxNodes int
}

// Solver keeps the context of the solve in progress.
type Solver struct {
	ctx context.Context
}

// Solve runs under ctx.
func (s *Solver) Solve(ctx context.Context, opt Options) error {
	s.ctx = ctx
	return s.ctx.Err()
}
`)
	missing, ctxFields, total, err := checkDir(clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 || len(ctxFields) != 0 {
		t.Fatalf("clean package flagged: missing %q, context fields %q", missing, ctxFields)
	}
	if total != 5 {
		t.Errorf("audited %d exported identifiers, want 5", total)
	}
}
