package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun: -machine takes every name machine.ByName knows, an unknown
// machine is a usage error, and a level outside 0..4 fails the compile
// instead of linting at O4.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string // stderr substring; empty means stderr must be empty
	}{
		{[]string{"-machine", "superscalar:4", "whet"}, 0, ""},
		{[]string{"-machine", "conflicts:2", "-level", "2", "whet"}, 0, ""},
		{[]string{"-machine", "nosuch", "whet"}, 2, `unknown machine "nosuch"`},
		{[]string{"-machine", "ss:0", "whet"}, 2, `degree "0"`},
		{[]string{"-level", "9", "whet"}, 1, "level 9 is outside O0..O4"},
		{[]string{"-unroll", "-2", "whet"}, 1, "unroll factor -2 is negative"},
		{[]string{"whet", "extra"}, 2, "usage:"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout.String(), stderr.String())
			}
			if tc.want == "" {
				if stderr.Len() != 0 {
					t.Errorf("stderr not empty: %s", stderr.String())
				}
			} else if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr lacks %q:\n%s", tc.want, stderr.String())
			}
		})
	}
}
