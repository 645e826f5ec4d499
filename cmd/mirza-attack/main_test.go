package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageErrors: flags that would print a vacuous verdict or panic in
// the pattern builders are rejected with exit status 2 and no verdict.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-windows", "0"}, "-windows"},
		{[]string{"-windows", "-2"}, "-windows"},
		{[]string{"-pattern", "circular", "-rows", "0"}, "-rows"},
		{[]string{"-pattern", "circular", "-rows", "-3"}, "-rows"},
		{[]string{"-pattern", "circular", "-rows", "5000"}, "-rows"},
		{[]string{"-no-such-flag"}, "no-such-flag"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", tc.args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a verdict:\n%s", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q does not name %s", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestVerdicts drives one secure and one broken defense, the latter
// through the -defense alias, and checks the exit status matches the
// verdict.
func TestVerdicts(t *testing.T) {
	cases := []struct {
		args    []string
		code    int
		verdict string
	}{
		{[]string{"-mitigation", "graphene", "-trhd", "1000", "-windows", "1"}, 0, "verdict  : SECURE"},
		{[]string{"-defense", "none", "-pattern", "circular", "-rows", "8", "-windows", "1"}, 1, "verdict  : BROKEN"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
		}
		if !strings.Contains(stdout.String(), tc.verdict) {
			t.Errorf("%v: output lacks %q:\n%s", tc.args, tc.verdict, stdout.String())
		}
	}
}
