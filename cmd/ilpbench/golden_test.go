package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// goldenPath is the archived full-harness run backing EXPERIMENTS.md,
// relative to this package directory.
const goldenPath = "../../docs/ilpbench-output.txt"

// TestGoldenFullSweep regenerates the archived harness output in process
// and requires it to be byte-identical to docs/ilpbench-output.txt, so a
// banner, table-format, or measurement drift fails tier-1 instead of
// silently rotting the archive. Timings and cache counters go to stderr
// (see run), so stdout is deterministic across machines.
//
// The full sweep is the most expensive test in the repo (~10 s); it is
// skipped under -short and under the race detector, where the whole
// sweep runs an order of magnitude slower and the plain-build run already
// proves byte identity.
func TestGoldenFullSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full ilpbench sweep skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full ilpbench sweep skipped under the race detector")
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("ilpbench all exited %d\nstderr: %s", code, stderr.String())
	}
	got := stdout.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	t.Errorf("ilpbench all stdout drifted from %s\n%s\nregenerate with: go run ./cmd/ilpbench all > docs/ilpbench-output.txt",
		goldenPath, firstDiff(string(want), stdout.String()))
}

// TestFabricGolden holds the sharded front end to the same golden file:
// the full sweep over four supervised worker processes, with SIGKILLs
// injected at commit points, must merge and render byte-identical to
// docs/ilpbench-output.txt. This is `make fabric-smoke`. The seed makes
// the kills land, so the sweep restarts within the default restart
// budget.
//
// The merge must fold exactly 126 duplicates. fig4-6 measures linpack
// and livermore, and abl-temps and ext-icache measure linpack, whatever
// the benchmark subset, so each of the four shards commits those 42 cells
// itself: 3 × 42 extra copies. Any other duplicate is a committed cell
// that a restarted worker measured again.
func TestFabricGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full fabric sweep skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full fabric sweep skipped under the race detector")
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}

	storePath := filepath.Join(t.TempDir(), "r.jsonl")
	code, out, errOut := runCLI(t, "-shards", "4", "-store", storePath,
		"-faults", "seed=11,workerkill=0.004", "all")
	if code != 0 {
		t.Fatalf("ilpbench -shards 4 all exited %d\nstderr: %s", code, errOut)
	}
	if strings.Count(errOut, "; restarting in ") == 0 {
		t.Errorf("kill injection caused no restarts — raise the rate or change the seed")
	}
	m := regexp.MustCompile(`fabric: merged 4 shard stores: \d+ cells \((\d+) duplicates`).FindStringSubmatch(errOut)
	if m == nil {
		t.Errorf("no merge line on stderr:\n%s", errOut)
	} else if m[1] != "126" {
		t.Errorf("merge folded %s duplicates, want 126 (42 forced copies per extra shard)", m[1])
	}
	if out != string(want) {
		t.Errorf("fabric sweep drifted from %s\n%s", goldenPath, firstDiff(string(want), out))
	}
}

// firstDiff locates the first differing line for a readable failure
// message (the full outputs are thousands of lines).
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("first difference at line %d:\n  golden: %q\n  got:    %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d lines, got %d lines", len(wl), len(gl))
}
