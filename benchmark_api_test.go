// Package repro_test holds the checks that span the whole module.
// tier-1 (go build ./... && go test ./...) cannot see the nested benchmark
// module, so TestBenchmarkModuleBuildsAndPasses runs that module's own gates
// and a change that breaks an API the benchmark pins fails here instead of
// in the pipeline. TestNoUnusedExports (exports_test.go) fails on an
// exported name under internal/ that no non-test code references.
package repro_test

import (
	"io/fs"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestBenchmarkModuleBuildsAndPasses(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go is not on PATH")
	}
	// A passing result is cached until a file this process opened
	// changes, and the child processes' reads do not count. Reading every
	// source directory ties the cache key to each file's size and mtime.
	for _, root := range []string{"internal", "benchmark"} {
		if err := filepath.WalkDir(root, func(_ string, _ fs.DirEntry, err error) error { return err }); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{
		{"vet", "-C", "benchmark", "."},
		{"test", "-C", "benchmark", "-short", "."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
}
