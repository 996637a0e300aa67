// Package faultinject is the deterministic fault-injection harness behind
// the experiment pipeline's chaos tests. An Injector decides, per pipeline
// site and per attempt, whether to inject a failure — and the decision is a
// pure function of (seed, site, key, attempt), independent of goroutine
// scheduling, wall-clock time, or call order. The same seed therefore
// produces the same fault schedule whether the sweep runs on one worker or
// sixteen, which is what lets the chaos suite replay a failing schedule
// under -race and assert exact recovery behavior.
//
// The zero value — a nil *Injector — is the production configuration: every
// probe is a no-op that injects nothing, so the pipeline pays one nil check
// per site and no hashing.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"
)

// Site names a pipeline point where a fault can be injected.
type Site string

// The injectable sites, covering every failure mode the runner's retry and
// degradation machinery must survive.
const (
	// SiteCompile fails a compile attempt with a transient error.
	SiteCompile Site = "compile"
	// SiteSim fails a simulation attempt with a transient error.
	SiteSim Site = "sim"
	// SitePanic panics the worker mid-measurement (always permanent).
	SitePanic Site = "panic"
	// SiteStore fails the result-store append with a transient error.
	SiteStore Site = "store"
	// SiteSlow delays a job by the injector's SlowDelay before it runs.
	SiteSlow Site = "slow"

	// The process-level sites of the sweep fabric's chaos harness. The
	// injector only decides (via Fires); the shard worker performs the
	// action, because only it can SIGKILL itself or tear its own store.

	// SiteWorkerKill SIGKILLs the worker process right after a cell
	// commits — the crash-anywhere probe of the fabric chaos suite.
	SiteWorkerKill Site = "workerkill"
	// SiteWorkerHang makes the worker stop heartbeating and hang, so the
	// coordinator's lease expiry (not process death) must recover it.
	SiteWorkerHang Site = "workerhang"
	// SiteWorkerTear appends a torn partial line to the worker's shard
	// store and then SIGKILLs it, exercising the CRC tail repair on the
	// next open.
	SiteWorkerTear Site = "workertear"
)

// Sites lists every injectable site.
func Sites() []Site {
	return []Site{SiteCompile, SiteSim, SitePanic, SiteStore, SiteSlow,
		SiteWorkerKill, SiteWorkerHang, SiteWorkerTear}
}

// ErrInjected marks errors produced by the injector, so tests can tell an
// injected fault from an organic failure with errors.Is.
var ErrInjected = errors.New("injected fault")

// Fault is the error an Injector returns at a failing site. It classifies
// transient — injected faults model recoverable infrastructure failures, so
// the retry policy should retry them — except at SitePanic, which does not
// return a Fault at all (the site panics instead, and panics are permanent
// by the ilperr taxonomy).
type Fault struct {
	Site    Site
	Key     string
	Attempt int
}

func (f *Fault) Error() string {
	return fmt.Sprintf("%v: %s at %s (attempt %d)", ErrInjected, f.Site, f.Key, f.Attempt)
}

func (f *Fault) Unwrap() error { return ErrInjected }

// Transient reports true: injected faults stand in for recoverable
// infrastructure failures.
func (f *Fault) Transient() bool { return true }

// Config parameterizes an Injector.
type Config struct {
	// Seed drives every injection decision. Two injectors with the same
	// Seed and Rates produce identical fault schedules.
	Seed int64
	// Rates maps each site to its injection probability in [0, 1].
	// Absent sites never fire.
	Rates map[Site]float64
	// SlowDelay is how long SiteSlow stalls a job. Zero disables slowness
	// even if SiteSlow has a rate.
	SlowDelay time.Duration
}

// Injector decides fault injection deterministically. All methods are safe
// on a nil receiver (no-op) and safe for concurrent use: an Injector is
// immutable after New.
type Injector struct {
	cfg Config
}

// New builds an Injector. Rates are clamped to [0, 1].
func New(cfg Config) (*Injector, error) {
	for site, rate := range cfg.Rates {
		if rate < 0 || rate > 1 {
			return nil, fmt.Errorf("faultinject: rate %v for site %q outside [0,1]", rate, site)
		}
		if !knownSite(site) {
			return nil, fmt.Errorf("faultinject: unknown site %q", site)
		}
	}
	rates := make(map[Site]float64, len(cfg.Rates))
	for site, rate := range cfg.Rates {
		rates[site] = rate
	}
	cfg.Rates = rates
	return &Injector{cfg: cfg}, nil
}

// roll produces a uniform-looking value in [0, 1) from the decision
// coordinate. FNV-1a over the packed coordinate is cheap, stateless, and —
// unlike a shared *rand.Rand — gives every (site, key, attempt) its own
// draw regardless of the order goroutines reach it.
func (in *Injector) roll(site Site, key string, attempt int) float64 {
	h := fnv.New64a()
	var buf [8]byte
	putUint64(buf[:], uint64(in.cfg.Seed))
	h.Write(buf[:])
	h.Write([]byte(site))
	h.Write([]byte{0})
	h.Write([]byte(key))
	h.Write([]byte{0})
	putUint64(buf[:], uint64(attempt))
	h.Write(buf[:])
	// 53 bits of the hash → float64 in [0, 1).
	return float64(h.Sum64()>>11) / (1 << 53)
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// should reports whether the site fires for this coordinate.
func (in *Injector) should(site Site, key string, attempt int) bool {
	if in == nil {
		return false
	}
	rate, ok := in.cfg.Rates[site]
	if !ok || rate <= 0 {
		return false
	}
	return in.roll(site, key, attempt) < rate
}

// Fail returns an injected *Fault if the site fires for (key, attempt),
// nil otherwise. Used at SiteCompile, SiteSim, and SiteStore.
func (in *Injector) Fail(site Site, key string, attempt int) error {
	if !in.should(site, key, attempt) {
		return nil
	}
	return &Fault{Site: site, Key: key, Attempt: attempt}
}

// ShouldPanic reports whether the worker should panic for (key, attempt).
// The caller performs the panic so the stack names the real site.
func (in *Injector) ShouldPanic(key string, attempt int) bool {
	return in.should(SitePanic, key, attempt)
}

// SlowDelay returns the stall to apply before running (key, attempt), or
// zero. The delay is the configured SlowDelay when SiteSlow fires.
func (in *Injector) SlowDelay(key string, attempt int) time.Duration {
	if in == nil || in.cfg.SlowDelay <= 0 {
		return 0
	}
	if !in.should(SiteSlow, key, attempt) {
		return 0
	}
	return in.cfg.SlowDelay
}

// Slow applies the SiteSlow stall for (key, attempt), honoring context
// cancellation: an injected hang ends the moment ctx does — it can never
// outlive a revoked lease or a cancelled sweep — and the cancellation
// cause (not a bare context error) is returned so sibling-failure
// attribution upstream keeps working.
func (in *Injector) Slow(ctx context.Context, key string, attempt int) error {
	d := in.SlowDelay(key, attempt)
	if d <= 0 {
		if ctx.Err() != nil {
			return ctxCause(ctx)
		}
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctxCause(ctx)
	}
}

// ctxCause mirrors the experiment pipeline's cancellation spelling: the
// recorded cause when one exists, the plain context error otherwise.
func ctxCause(ctx context.Context) error {
	if c := context.Cause(ctx); c != nil {
		return c
	}
	return ctx.Err()
}

// Fires reports whether the named site fires for (key, attempt). It is
// the generic probe for sites whose action lives in the caller — the
// fabric worker's kill/hang/tear sites — and is deterministic in
// (seed, site, key, attempt) like every other decision.
func (in *Injector) Fires(site Site, key string, attempt int) bool {
	return in.should(site, key, attempt)
}

// knownSite reports whether site is one of Sites().
func knownSite(site Site) bool {
	for _, s := range Sites() {
		if s == site {
			return true
		}
	}
	return false
}

// Parse builds an Injector from a textual spec: comma-separated key=value
// pairs where the keys are "seed" (int64), "slowdelay" (a duration), and
// any site name (its injection rate in [0,1]). The empty spec is the
// production configuration: a nil injector that injects nothing. This is
// the one parser behind ilpbench -faults and the fabric worker spec, so
// every surface spells fault schedules identically.
func Parse(spec string) (*Injector, error) {
	if spec == "" {
		return nil, nil
	}
	cfg := Config{Rates: map[Site]float64{}}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("%q is not key=value", kv)
		}
		switch {
		case k == "seed":
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("seed %q: %v", v, err)
			}
			cfg.Seed = seed
		case k == "slowdelay":
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("slowdelay %q: %v", v, err)
			}
			cfg.SlowDelay = d
		case knownSite(Site(k)):
			rate, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("rate %q for %s: %v", v, k, err)
			}
			cfg.Rates[Site(k)] = rate
		default:
			return nil, fmt.Errorf("unknown key %q (want seed, slowdelay, or a site: %s)", k, siteList())
		}
	}
	return New(cfg)
}

// siteList renders the site names for error messages.
func siteList() string {
	var names []string
	for _, s := range Sites() {
		names = append(names, string(s))
	}
	return strings.Join(names, ", ")
}
