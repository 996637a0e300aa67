package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestIlpstatTable(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-machine", "superscalar:4", "linpack"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"block", "dep", "width", "unit", "span", "conflict-free"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestIlpstatSimOracle(t *testing.T) {
	for _, m := range []string{"base", "cray1", "conflicts:4", "sp:4"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-machine", m, "-sim", "whet"}, &out, &errb); code != 0 {
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

// TestIlpstatBadArgs: an out-of-range flag value is a one-line error and
// exit 1 (earlier versions panicked on a zero degree, silently ran
// superscalar-4 for a degree that is not a number, and accepted any
// -level or -unroll), and a missing target is a usage error.
func TestIlpstatBadArgs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string // stderr substring for a failing row, stdout for a passing one
	}{
		{[]string{"-machine", "superscalar:0", "whet"}, 1, `degree "0"`},
		{[]string{"-machine", "conflicts:0", "whet"}, 1, `degree "0"`},
		{[]string{"-machine", "superscalar:x", "whet"}, 1, `degree "x"`},
		{[]string{"-machine", "ss:4:junk", "whet"}, 1, "at most 1 degree"},
		{[]string{"-machine", "warp-drive", "linpack"}, 1, "unknown machine"},
		{[]string{"-level", "9", "whet"}, 1, "-level 9"},
		{[]string{"-level", "-1", "whet"}, 1, "-level -1"},
		{[]string{"-unroll", "-2", "whet"}, 1, "-unroll -2"},
		{nil, 2, "usage:"},
		{[]string{"-machine", "conflicts:2", "-level", "0", "-unroll", "0", "whet"}, 0, "conflict-free"},
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
