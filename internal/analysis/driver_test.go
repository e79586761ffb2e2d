package analysis

import (
	"strings"
	"testing"
)

// TestEngineSetDerivation pins the telemetryclock package set to the
// module's actual import graph: everything the old shell script
// hardcoded must be covered, the telemetry package itself and the
// tooling packages the engine never imports must not be.
func TestEngineSetDerivation(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(l.ModulePath); err != nil {
		t.Fatal(err)
	}
	set := engineSet(l)

	// The packages the retired scripts/vet-telemetry-clock.sh checked.
	script := []string{
		"internal/buffer", "internal/wal", "internal/core",
		"internal/docstore", "internal/records", "internal/pathindex",
		"internal/segment", "internal/blobstore",
	}
	for _, p := range script {
		if !set[l.ModulePath+"/"+p] {
			t.Errorf("engine set is missing %s (the shell script covered it)", p)
		}
	}
	for path := range set {
		if path == l.ModulePath+"/internal/telemetry" {
			t.Error("engine set must exclude internal/telemetry (it implements the clock)")
		}
		if strings.Contains(path, "internal/analysis") || strings.Contains(path, "internal/benchkit") {
			t.Errorf("engine set includes tooling package %s, which the root package never imports", path)
		}
	}
}

func TestResolvePatterns(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	all, err := resolvePatterns(l, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		l.ModulePath:                        true, // the facade
		l.ModulePath + "/internal/buffer":   true,
		l.ModulePath + "/internal/analysis": true,
		l.ModulePath + "/cmd/natix-vet":     true,
	}
	got := make(map[string]bool, len(all))
	for _, p := range all {
		got[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("pattern expansion leaked a testdata package: %s", p)
		}
	}
	for p := range want {
		if !got[p] {
			t.Errorf("./... did not match %s (got %d packages)", p, len(all))
		}
	}

	one, err := resolvePatterns(l, []string{"./internal/wal"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != l.ModulePath+"/internal/wal" {
		t.Errorf("./internal/wal resolved to %v", one)
	}
}

// TestVetIgnoreRequiresReason: a bare //natix:vet-ignore is itself a
// finding, not a working suppression.
func TestVetIgnoreRequiresReason(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir("testdata/src/suppress/bare", "natix/vetfixture/bare")
	if err != nil {
		t.Fatal(err)
	}
	_, bad := collectSuppressions(l.Fset, pkg.Files)
	if len(bad) != 1 {
		t.Fatalf("bare vet-ignore diagnostics = %v, want exactly 1", bad)
	}
	if !strings.Contains(bad[0].Message, "requires a reason") {
		t.Errorf("unexpected message: %s", bad[0].Message)
	}
}
