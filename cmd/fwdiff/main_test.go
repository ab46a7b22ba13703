package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"diversefw/internal/trace"
)

// writeFile drops a fixture into the test's temp dir.
func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// withArgs runs run() with the given command line.
func withArgs(t *testing.T, args ...string) int {
	t.Helper()
	old := os.Args
	defer func() { os.Args = old }()
	os.Args = append([]string{"fwdiff"}, args...)
	return run()
}

const teamA = `
dst in 192.168.0.1 && dport in 25 -> accept
src in 224.168.0.0/16 -> discard
any -> accept
`

const teamB = `
src in 224.168.0.0/16 -> discard
dst in 192.168.0.1 && dport in 25 && proto in tcp -> accept
dst in 192.168.0.1 -> discard
any -> accept
`

func TestRunDifferingPolicies(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.fw", teamA)
	b := writeFile(t, dir, "b.fw", teamB)
	if code := withArgs(t, a, b); code != 1 {
		t.Fatalf("exit = %d, want 1 (policies differ)", code)
	}
	if code := withArgs(t, "-v", a, b); code != 1 {
		t.Fatalf("verbose exit = %d, want 1", code)
	}
	if code := withArgs(t, "-json", a, b); code != 1 {
		t.Fatalf("json exit = %d, want 1", code)
	}
	if code := withArgs(t, "-json", a, a); code != 0 {
		t.Fatalf("json equivalent exit = %d, want 0", code)
	}
}

func TestRunEquivalentPolicies(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.fw", teamA)
	a2 := writeFile(t, dir, "a2.fw", teamA)
	if code := withArgs(t, a, a2); code != 0 {
		t.Fatalf("exit = %d, want 0 (equivalent)", code)
	}
}

func TestRunUsageErrors(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.fw", teamA)
	if code := withArgs(t); code != 2 {
		t.Fatalf("no args: exit = %d, want 2", code)
	}
	if code := withArgs(t, a); code != 2 {
		t.Fatalf("one arg: exit = %d, want 2", code)
	}
	if code := withArgs(t, "-schema", "bogus", a, a); code != 2 {
		t.Fatalf("bad schema: exit = %d, want 2", code)
	}
	if code := withArgs(t, a, filepath.Join(dir, "missing.fw")); code != 2 {
		t.Fatalf("missing file: exit = %d, want 2", code)
	}
	bad := writeFile(t, dir, "bad.fw", "not a rule\n")
	if code := withArgs(t, a, bad); code != 2 {
		t.Fatalf("parse error: exit = %d, want 2", code)
	}
	partial := writeFile(t, dir, "partial.fw", "dport in 25 -> accept\n")
	if code := withArgs(t, a, partial); code != 2 {
		t.Fatalf("non-comprehensive: exit = %d, want 2", code)
	}
}

// TestRunTraceFile checks -trace writes a span tree holding the whole
// pipeline: construct and compare spans carrying FDD and walk stats,
// and no shape span (the engine's diff walk does not shape).
func TestRunTraceFile(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.fw", teamA)
	b := writeFile(t, dir, "b.fw", teamB)
	out := filepath.Join(dir, "trace.json")
	if code := withArgs(t, "-trace", out, a, b); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc trace.FileDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 1 || doc.Traces[0].Root.Name != "fwdiff" {
		t.Fatalf("unexpected trace doc: %+v", doc)
	}
	root := doc.Traces[0].Root
	for _, name := range []string{"construct", "compare"} {
		if _, ok := root.Find(name); !ok {
			t.Fatalf("trace missing %q span:\n%s", name, raw)
		}
	}
	if _, ok := root.Find("shape"); ok {
		t.Fatalf("served diff trace has a shape span:\n%s", raw)
	}
	cons, _ := root.Find("construct")
	if _, ok := cons.Attrs["nodes"]; !ok {
		t.Fatalf("construct span missing nodes attr: %v", cons.Attrs)
	}
	cmp, _ := root.Find("compare")
	if _, ok := cmp.Attrs["nodePairs"]; !ok {
		t.Fatalf("compare span missing nodePairs attr: %v", cmp.Attrs)
	}
}

func TestRunIptablesFormat(t *testing.T) {
	dir := t.TempDir()
	ipt := `
-P INPUT DROP
-A INPUT -d 192.168.0.1 -p tcp --dport 25 -j ACCEPT
`
	a := writeFile(t, dir, "a.rules", ipt)
	b := writeFile(t, dir, "b.rules", ipt)
	if code := withArgs(t, "-format", "iptables", a, b); code != 0 {
		t.Fatalf("identical iptables chains: exit = %d, want 0", code)
	}
	if code := withArgs(t, "-format", "bogus", a, b); code != 2 {
		t.Fatalf("bad format: exit = %d, want 2", code)
	}
}
