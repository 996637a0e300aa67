package machine

import (
	"testing"

	"ilp/internal/cache"
	"ilp/internal/isa"
)

func TestFingerprintDistinguishesEveryField(t *testing.T) {
	base := Base().Fingerprint()
	mutations := map[string]func(*Config){
		"name":        func(c *Config) { c.Name = "other" },
		"width":       func(c *Config) { c.IssueWidth++ },
		"degree":      func(c *Config) { c.Degree++ },
		"latency":     func(c *Config) { c.Latency[3]++ },
		"unit-mult":   func(c *Config) { c.Units[0].Multiplicity++ },
		"unit-ilat":   func(c *Config) { c.Units[0].IssueLatency++ },
		"redirect":    func(c *Config) { c.BranchRedirect++ },
		"group-break": func(c *Config) { c.TakenBranchEndsGroup = !c.TakenBranchEndsGroup },
		"int-temps":   func(c *Config) { c.IntTemps++ },
		"fp-homes":    func(c *Config) { c.FPHomes++ },
		"icache":      func(c *Config) { c.ICache = &cache.Config{Lines: 64, LineWords: 4, MissPenalty: 10} },
		"dcache":      func(c *Config) { c.DCache = &cache.Config{Lines: 64, LineWords: 4, MissPenalty: 10} },
	}
	for name, mutate := range mutations {
		c := Base()
		mutate(c)
		if c.Fingerprint() == base {
			t.Errorf("mutation %q did not change Fingerprint", name)
		}
	}
}

func TestFingerprintStable(t *testing.T) {
	a, b := Base(), Base()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical configs have different fingerprints")
	}
	if a.ScheduleFingerprint() != b.ScheduleFingerprint() {
		t.Error("identical configs have different schedule fingerprints")
	}
	// A clone must fingerprint identically to its source.
	titan := MultiTitan()
	titan.ICache = &cache.Config{Lines: 256, LineWords: 4, MissPenalty: 12}
	if titan.Fingerprint() != titan.Clone().Fingerprint() {
		t.Error("clone fingerprint differs from source")
	}
}

func TestScheduleFingerprintIgnoresCachesAndName(t *testing.T) {
	plain := MultiTitan()
	cached := MultiTitan()
	cached.Name = "titan-cached"
	cached.ICache = &cache.Config{Lines: 256, LineWords: 4, MissPenalty: 12}
	cached.DCache = &cache.Config{Lines: 128, LineWords: 4, MissPenalty: 20}

	if plain.ScheduleFingerprint() != cached.ScheduleFingerprint() {
		t.Error("cache-only variants should share a schedule fingerprint")
	}
	if plain.Fingerprint() == cached.Fingerprint() {
		t.Error("cache-only variants must not share a full fingerprint")
	}
	// But anything the scheduler sees must still show through.
	slower := MultiTitan()
	slower.Latency[5]++
	if plain.ScheduleFingerprint() == slower.ScheduleFingerprint() {
		t.Error("latency change did not alter schedule fingerprint")
	}
}

func TestFingerprintCacheGeometry(t *testing.T) {
	// The regression at the heart of the measureKey bug: two configs that
	// differ only in miss penalty must have distinct fingerprints.
	a := MultiTitan()
	a.DCache = &cache.Config{Lines: 128, LineWords: 4, MissPenalty: 12}
	b := MultiTitan()
	b.DCache = &cache.Config{Lines: 128, LineWords: 4, MissPenalty: 20}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("differing MissPenalty produced colliding fingerprints")
	}
}

// TestSameScheduleMatchesFingerprint: SameSchedule agrees with schedule
// fingerprint equality over every pair of presets, and over a one-field
// change to each field the fingerprint hashes (and to the name and caches,
// which it does not).
func TestSameScheduleMatchesFingerprint(t *testing.T) {
	presets := []*Config{
		Base(), Underpipelined(), MultiTitan(), CRAY1(), CRAY1Issue(4, true),
		IdealSuperscalar(2), IdealSuperscalar(8), Superpipelined(2), Superpipelined(8),
		SuperpipelinedSuperscalar(2, 3), SuperscalarWithConflicts(4), VLIW(4),
	}
	for _, a := range presets {
		for _, b := range presets {
			if got, want := a.SameSchedule(b), a.ScheduleFingerprint() == b.ScheduleFingerprint(); got != want {
				t.Errorf("%s vs %s: SameSchedule %v, fingerprints equal %v", a.Name, b.Name, got, want)
			}
		}
	}
	mutations := map[string]func(*Config){
		"width":        func(c *Config) { c.IssueWidth++ },
		"degree":       func(c *Config) { c.Degree++ },
		"latency":      func(c *Config) { c.Latency[isa.NumClasses-1]++ },
		"unit-count":   func(c *Config) { c.Units = c.Units[:len(c.Units)-1] },
		"unit-name":    func(c *Config) { c.Units[0].Name += "'" },
		"unit-classes": func(c *Config) { c.Units[0].Classes = c.Units[0].Classes[1:] },
		"unit-class":   func(c *Config) { c.Units[0].Classes[0]++ },
		"unit-mult":    func(c *Config) { c.Units[0].Multiplicity++ },
		"unit-ilat":    func(c *Config) { c.Units[0].IssueLatency++ },
		"redirect":     func(c *Config) { c.BranchRedirect++ },
		"group-break":  func(c *Config) { c.TakenBranchEndsGroup = !c.TakenBranchEndsGroup },
		"int-temps":    func(c *Config) { c.IntTemps++ },
		"int-homes":    func(c *Config) { c.IntHomes++ },
		"fp-temps":     func(c *Config) { c.FPTemps++ },
		"fp-homes":     func(c *Config) { c.FPHomes++ },
		"name":         func(c *Config) { c.Name = "other" },
		"icache":       func(c *Config) { c.ICache = &cache.Config{Lines: 64, LineWords: 4, MissPenalty: 10} },
	}
	for _, p := range presets {
		for name, mutate := range mutations {
			c := p.Clone()
			mutate(c)
			if got, want := p.SameSchedule(c), p.ScheduleFingerprint() == c.ScheduleFingerprint(); got != want || got != (name == "name" || name == "icache") {
				t.Errorf("%s, %s changed: SameSchedule %v, fingerprints equal %v", p.Name, name, got, want)
			}
		}
	}
}
