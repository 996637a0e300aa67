package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"slices"

	"ilp/internal/cache"
)

// Fingerprint returns a canonical hash of the complete machine description:
// name, issue width, degree, latency table, functional units, branch policy,
// register-set division, and full cache geometry. Two configurations with
// the same fingerprint produce identical simulation results for the same
// program (including the result's reported machine name, which is why Name
// is hashed too). It is the simulation-cache key in package experiments.
func (c *Config) Fingerprint() string {
	h := sha256.New()
	c.hashSchedule(h)
	hashString(h, c.Name)
	hashCache(h, c.ICache)
	hashCache(h, c.DCache)
	return "m:" + hex.EncodeToString(h.Sum(nil)[:16])
}

// ScheduleFingerprint returns a canonical hash of only the parts of the
// description the compiler sees — latencies, units, widths, register
// division, branch policy — excluding the machine name and the cache
// geometry, which affect simulation but not code generation. Machine
// variants that differ only in caches (or only in name) share a schedule
// fingerprint and therefore, in package experiments, a single compilation.
func (c *Config) ScheduleFingerprint() string {
	h := sha256.New()
	c.hashSchedule(h)
	return "s:" + hex.EncodeToString(h.Sum(nil)[:16])
}

// hashSchedule writes every schedule-relevant field to h in a fixed order,
// length-prefixing the variable-size parts so field boundaries cannot alias.
func (c *Config) hashSchedule(h hash.Hash) {
	hashInt(h, int64(c.IssueWidth))
	hashInt(h, int64(c.Degree))
	for _, lat := range c.Latency {
		hashInt(h, int64(lat))
	}
	hashInt(h, int64(len(c.Units)))
	for _, u := range c.Units {
		hashString(h, u.Name)
		hashInt(h, int64(len(u.Classes)))
		for _, cl := range u.Classes {
			hashInt(h, int64(cl))
		}
		hashInt(h, int64(u.Multiplicity))
		hashInt(h, int64(u.IssueLatency))
	}
	hashInt(h, int64(c.BranchRedirect))
	if c.TakenBranchEndsGroup {
		hashInt(h, 1)
	} else {
		hashInt(h, 0)
	}
	hashInt(h, int64(c.IntTemps))
	hashInt(h, int64(c.IntHomes))
	hashInt(h, int64(c.FPTemps))
	hashInt(h, int64(c.FPHomes))
}

// SameSchedule reports whether c and d agree on every field hashSchedule
// writes, that is, whether their schedule fingerprints are equal. Unlike
// comparing fingerprints it allocates nothing, so a simulation can check
// every run's machine against the one its predecoded program was built for.
func (c *Config) SameSchedule(d *Config) bool {
	if c.IssueWidth != d.IssueWidth || c.Degree != d.Degree || c.Latency != d.Latency ||
		len(c.Units) != len(d.Units) ||
		c.BranchRedirect != d.BranchRedirect || c.TakenBranchEndsGroup != d.TakenBranchEndsGroup ||
		c.IntTemps != d.IntTemps || c.IntHomes != d.IntHomes ||
		c.FPTemps != d.FPTemps || c.FPHomes != d.FPHomes {
		return false
	}
	for i := range c.Units {
		u, v := &c.Units[i], &d.Units[i]
		if u.Name != v.Name || !slices.Equal(u.Classes, v.Classes) ||
			u.Multiplicity != v.Multiplicity || u.IssueLatency != v.IssueLatency {
			return false
		}
	}
	return true
}

func hashInt(h hash.Hash, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	h.Write(buf[:])
}

func hashString(h hash.Hash, s string) {
	hashInt(h, int64(len(s)))
	h.Write([]byte(s))
}

func hashCache(h hash.Hash, cc *cache.Config) {
	if cc == nil {
		hashInt(h, 0)
		return
	}
	hashInt(h, 1)
	hashString(h, cc.Name)
	hashInt(h, int64(cc.Lines))
	hashInt(h, int64(cc.LineWords))
	hashInt(h, int64(cc.MissPenalty))
}
