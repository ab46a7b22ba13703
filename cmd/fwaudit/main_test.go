package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func withArgs(t *testing.T, args ...string) int {
	t.Helper()
	old := os.Args
	defer func() { os.Args = old }()
	os.Args = append([]string{"fwaudit"}, args...)
	return run()
}

func TestAuditFindsProblems(t *testing.T) {
	dir := t.TempDir()
	// Shadowed rule + semantically redundant rule.
	fw := writeFile(t, dir, "messy.fw", `
src in 10.0.0.0/8 -> accept
src in 10.1.0.0/16 -> discard
dst in 8.8.8.8 -> accept
any -> accept
`)
	if code := withArgs(t, fw); code != 1 {
		t.Fatalf("exit = %d, want 1 (findings)", code)
	}
	if code := withArgs(t, "-complete=false", fw); code != 1 {
		t.Fatalf("-complete=false: exit = %d, want 1 (findings)", code)
	}
}

func TestAuditCleanPolicy(t *testing.T) {
	dir := t.TempDir()
	fw := writeFile(t, dir, "clean.fw", `
src in 224.168.0.0/16 -> discard
any -> accept
`)
	if code := withArgs(t, fw); code != 0 {
		t.Fatalf("exit = %d, want 0 (clean)", code)
	}
}

func TestAuditErrors(t *testing.T) {
	if code := withArgs(t); code != 2 {
		t.Fatalf("no args: exit = %d, want 2", code)
	}
	if code := withArgs(t, "/nonexistent.fw"); code != 2 {
		t.Fatalf("missing file: exit = %d, want 2", code)
	}
	dir := t.TempDir()
	partial := writeFile(t, dir, "partial.fw", "dport in 25 -> accept\n")
	if code := withArgs(t, partial); code != 2 {
		t.Fatalf("non-comprehensive: exit = %d, want 2", code)
	}
}
