package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlagValidation: every out-of-range flag value is a one-line error
// and exit 1 (earlier versions panicked on a zero degree, and silently
// clamped or ignored the rest); valid edge values run.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string // stderr substring for a failing row, stdout for a passing one
	}{
		{[]string{"-machine", "superscalar:0", "whet"}, 1, `degree "0"`},
		{[]string{"-machine", "superpipelined:0", "whet"}, 1, `degree "0"`},
		{[]string{"-machine", "supersuper:2:0", "whet"}, 1, `degree "0"`},
		{[]string{"-machine", "superscalar:x", "whet"}, 1, `degree "x"`},
		{[]string{"-machine", "ss:-3", "whet"}, 1, `degree "-3"`},
		{[]string{"-machine", "ss:4:junk", "whet"}, 1, "at most 1 degree"},
		{[]string{"-machine", "supersuper:2:2:2", "whet"}, 1, "at most 2 degree"},
		{[]string{"-machine", "base:2", "whet"}, 1, "at most 0 degree"},
		{[]string{"-machine", "nosuch", "whet"}, 1, "unknown machine"},
		{[]string{"-level", "9", "whet"}, 1, "-level 9"},
		{[]string{"-level", "-1", "whet"}, 1, "-level -1"},
		{[]string{"-unroll", "-2", "whet"}, 1, "-unroll -2"},
		{[]string{"-temps", "-1", "whet"}, 1, "-temps -1"},
		{[]string{"-pipeline", "-5", "whet"}, 1, "-pipeline -5"},
		{[]string{"whet", "extra"}, 2, "usage:"},
		{[]string{"-machine", "ss:2", "-level", "0", "whet"}, 0, "machine:       superscalar-2 "},
		{[]string{"-machine", "supersuper:2:3", "-unroll", "0", "-temps", "0", "whet"}, 0, "machine:       supersuper-2-3 "},
		{[]string{"-machine", "sp", "-level", "4", "-pipeline", "3", "whet"}, 0, "issue timeline (first 3"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout.String(), stderr.String())
			}
			out := stdout.String()
			if tc.code != 0 {
				out = stderr.String()
				if tc.code == 1 && strings.Count(out, "\n") != 1 {
					t.Errorf("want a one-line error, got %q", out)
				}
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestBoundsOracle: -bounds adds the static bounds and the timing oracle's
// verdict to the report, on a machine of each kind.
func TestBoundsOracle(t *testing.T) {
	for _, m := range []string{"base", "cray1", "conflicts:4", "sp:4"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-machine", m, "-bounds", "whet"}, &out, &errb); code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", m, code, errb.String())
		}
		if !strings.Contains(out.String(), "timing oracle: ok") {
			t.Errorf("%s: oracle verdict missing:\n%s", m, out.String())
		}
		if !strings.Contains(out.String(), "static bounds: [") {
			t.Errorf("%s: bounds line missing", m)
		}
	}
}
