package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCaptured runs cmdRun with args, returning its exit code and what it
// wrote to stderr.
func runCaptured(t *testing.T, args []string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	defer stderr.Close()
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = stdout, stderr
	code := cmdRun(args)
	os.Stdout, os.Stderr = oldOut, oldErr
	b, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(b)
}

// TestRunWorkloads: run parses -workloads like mirza-bench and mirza-sim.
// An empty or unknown entry exits 2 naming it, before the ledger is opened
// or a worker started; trimmed names are accepted and reach the grid. The
// -bench stub exits 1 without output, so an accepted grid fails each shard
// in its worker; a -bench path that does not exist is a usage error too.
func TestRunWorkloads(t *testing.T) {
	stub := filepath.Join(t.TempDir(), "stub-bench")
	if err := os.WriteFile(stub, []byte("#!/bin/sh\nexit 1\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, workloads, bench string
		code                   int
		want                   string // in stderr
	}{
		{"empty", "xz,,", stub, 2, `-workloads: unknown workload "" in "xz,,"`},
		{"unknown", "xz,nosuch", stub, 2, `-workloads: unknown workload "nosuch"`},
		{"trimmed", "xz, bc", stub, 1, "FAIL table1/w=bc/s=1: "},
		{"nobench", "xz", filepath.Join(t.TempDir(), "no-such-bench"), 2, "-bench: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ledger := filepath.Join(t.TempDir(), "ledger")
			code, stderr := runCaptured(t, []string{"-exp", "table1", "-quick", "-workloads", tc.workloads,
				"-ledger", ledger, "-bench", tc.bench})
			if code != tc.code || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit %d, stderr:\n%s\nwant exit %d and %q", code, stderr, tc.code, tc.want)
			}
			_, err := os.Stat(ledger)
			if opened := err == nil; opened != (tc.code != 2) {
				t.Errorf("ledger opened: %v", opened)
			}
		})
	}
}
