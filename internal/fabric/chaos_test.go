package fabric

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"
)

// chaosSchedules is how many seeded fault schedules the chaos sweep runs.
// The default keeps tier-1 fast; `make chaos` sets ILP_FABRIC_SCHEDULES
// to run the long sweep (≥100 schedules, under -race).
func chaosSchedules(t *testing.T, def int) int {
	t.Helper()
	v := os.Getenv("ILP_FABRIC_SCHEDULES")
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		t.Fatalf("bad ILP_FABRIC_SCHEDULES=%q", v)
	}
	return n
}

// TestFabricChaosSchedules is the kill-anywhere sweep: every seed draws a
// different schedule of worker SIGKILLs, hangs, torn stores, and injected
// pipeline faults, and every schedule must converge to byte-identical
// output with zero recomputation of committed cells. The injector's
// decisions are pure functions of (seed, site, key, attempt), so a
// failing seed replays exactly.
func TestFabricChaosSchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short")
	}
	n := chaosSchedules(t, 6)

	base := testConfig(t, t.TempDir())
	// The lease must tolerate the host's scheduling latency, not just the
	// heartbeat cadence: this suite runs 8 race-instrumented worker
	// processes on possibly one core, where a healthy worker can sit in
	// the runqueue for hundreds of milliseconds without emitting a thing.
	// A sub-second lease here livelocks — every revocation spawns a
	// replacement that starves the same way. Hung workers are still
	// caught, just 3s later; the directed hang test covers a tight lease.
	base.Lease = 3 * time.Second
	base.Heartbeat = 50 * time.Millisecond
	// Spawn + race-runtime init + store open happen before the first
	// event can renew, and take seconds when 8 workers start at once.
	base.StartupGrace = 10 * time.Second
	base.MaxRestarts = 24
	// Pipeline faults ride along (store-append failures and slow stalls
	// are retried inside the worker); the process sites do the killing.
	// Rates are tuned so schedules stay solvable: a store append only
	// fails permanently after 7 consecutive misses at rate 0.2.
	base.Retries = 6
	want, _ := singleProcess(t, base)

	// Schedules are independent; run a few at a time to bound the
	// process fan-out (each schedule spawns its own worker processes).
	sem := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for seed := 0; seed < n; seed++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				cfg := base
				cfg.StorePath = fmt.Sprintf("%s/merged.jsonl", t.TempDir())
				cfg.Faults = fmt.Sprintf(
					"seed=%d,workerkill=0.5,workerhang=0.08,workertear=0.25,store=0.2,slow=0.3,slowdelay=2ms",
					seed)
				sum, got, err := runFabric(t, cfg)
				if err != nil {
					t.Fatalf("schedule failed: %v\nshards: %+v", err, sum.Shards)
				}
				if got != want {
					t.Fatalf("schedule converged to different output (%d bytes vs %d reference)",
						len(got), len(want))
				}
				if sum.Merge.Duplicates != 0 {
					t.Fatalf("committed cells were recomputed: %+v", sum.Merge)
				}
				if sum.Report.Sims != 0 {
					t.Fatalf("render pass resimulated %d cells", sum.Report.Sims)
				}
			})
		}(seed)
	}
	wg.Wait()
}
