package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mirza/internal/telemetry"
)

// TestGoldenReports pins mirza-sim's reports in all three input modes —
// synthetic workloads (two jobs, with faults and the auditor), a recorded
// trace, and a multi-tenant scenario — at tiny windows, plus the
// canonical telemetry manifest of the workload run.
func TestGoldenReports(t *testing.T) {
	cases := []struct {
		golden   string
		args     []string
		manifest string // golden canonical manifest ("" = none written)
	}{
		{
			golden: "workloads.txt",
			args: []string{"-workload", "xz,fotonik3d", "-mitigation", "mint-rfm", "-trhd", "500",
				"-ms", "0.2", "-warmup-ms", "0.1", "-faults", "seed=7,alertdrop=0.2,bitflip=1e-4",
				"-audit", "-j", "2"},
			manifest: "workloads_manifest.json",
		},
		{
			golden: "trace.txt",
			args: []string{"-trace", "../../examples/traces/stream.trace", "-mitigation", "prac",
				"-ms", "0.1", "-warmup-ms", "0.05"},
		},
		{
			golden: "tenants.txt",
			args: []string{"-tenants", "xz:6+attack=edge:2", "-mitigation", "mirza",
				"-ms", "0.1", "-warmup-ms", "0.05", "-faults", "seed=7,alertdrop=0.2", "-audit"},
		},
	}
	for _, tc := range cases {
		t.Run(strings.TrimSuffix(tc.golden, ".txt"), func(t *testing.T) {
			args := tc.args
			metrics := filepath.Join(t.TempDir(), "manifest.json")
			if tc.manifest != "" {
				args = append(args, "-metrics", metrics)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			compareGolden(t, tc.golden, stdout.Bytes())
			if tc.manifest == "" {
				return
			}
			m, err := telemetry.ReadManifest(metrics)
			if err != nil {
				t.Fatal(err)
			}
			canon, err := m.Canonical().JSON()
			if err != nil {
				t.Fatal(err)
			}
			compareGolden(t, tc.manifest, canon)
		})
	}
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted:\n-- got --\n%s\n-- want --\n%s", name, got, want)
	}
}

// TestUsageErrors: degenerate windows are rejected with exit status 2
// before any simulation starts, so no report is printed.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-ms", "0"}, "-ms"},
		{[]string{"-ms", "-1"}, "-ms"},
		{[]string{"-ms", "NaN"}, "-ms"},
		{[]string{"-ms", "+Inf"}, "-ms"},
		{[]string{"-warmup-ms", "-1"}, "-warmup-ms"},
		{[]string{"-warmup-ms", "NaN"}, "-warmup-ms"},
		{[]string{"-no-such-flag"}, "no-such-flag"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		code := run(append(tc.args, "-workload", "xz"), &stdout, &stderr)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", tc.args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a report:\n%s", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q does not name %s", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestZeroWarmup: -warmup-ms 0 is a valid window, measured from time 0.
func TestZeroWarmup(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "xz", "-ms", "0.05", "-warmup-ms", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "measured after 0ps warmup") {
		t.Errorf("report does not show a zero warmup:\n%s", stdout.String())
	}
}
