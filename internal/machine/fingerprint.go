package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
	var buf [fingerprintBuf]byte
	b := c.appendSchedule(buf[:0])
	b = appendString(b, c.Name)
	b = appendCache(b, c.ICache)
	b = appendCache(b, c.DCache)
	return fingerprint('m', b)
}

// ScheduleFingerprint returns a canonical hash of only the parts of the
// description the compiler sees — latencies, units, widths, register
// division, branch policy — excluding the machine name and the cache
// geometry, which affect simulation but not code generation. Machine
// variants that differ only in caches (or only in name) share a schedule
// fingerprint and therefore, in package experiments, a single compilation.
func (c *Config) ScheduleFingerprint() string {
	var buf [fingerprintBuf]byte
	return fingerprint('s', c.appendSchedule(buf[:0]))
}

// fingerprintBuf is the stack buffer the fingerprints encode into, room for
// every preset's description; a larger one spills to the heap.
const fingerprintBuf = 1024

// fingerprint returns kind, a colon and the hex of the first 16 bytes of
// b's SHA-256: the fingerprint's only allocation is its string.
func fingerprint(kind byte, b []byte) string {
	sum := sha256.Sum256(b)
	var out [2 + 2*16]byte
	out[0], out[1] = kind, ':'
	hex.Encode(out[2:], sum[:16])
	return string(out[:])
}

// appendSchedule appends every schedule-relevant field to b in a fixed
// order, length-prefixing the variable-size parts so field boundaries
// cannot alias.
func (c *Config) appendSchedule(b []byte) []byte {
	b = appendInt(b, int64(c.IssueWidth))
	b = appendInt(b, int64(c.Degree))
	for _, lat := range c.Latency {
		b = appendInt(b, int64(lat))
	}
	b = appendInt(b, int64(len(c.Units)))
	for _, u := range c.Units {
		b = appendString(b, u.Name)
		b = appendInt(b, int64(len(u.Classes)))
		for _, cl := range u.Classes {
			b = appendInt(b, int64(cl))
		}
		b = appendInt(b, int64(u.Multiplicity))
		b = appendInt(b, int64(u.IssueLatency))
	}
	b = appendInt(b, int64(c.BranchRedirect))
	if c.TakenBranchEndsGroup {
		b = appendInt(b, 1)
	} else {
		b = appendInt(b, 0)
	}
	b = appendInt(b, int64(c.IntTemps))
	b = appendInt(b, int64(c.IntHomes))
	b = appendInt(b, int64(c.FPTemps))
	return appendInt(b, int64(c.FPHomes))
}

// SameSchedule reports whether c and d agree on every field appendSchedule
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

func appendInt(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendString(b []byte, s string) []byte {
	return append(appendInt(b, int64(len(s))), s...)
}

func appendCache(b []byte, cc *cache.Config) []byte {
	if cc == nil {
		return appendInt(b, 0)
	}
	b = appendInt(b, 1)
	b = appendString(b, cc.Name)
	b = appendInt(b, int64(cc.Lines))
	b = appendInt(b, int64(cc.LineWords))
	return appendInt(b, int64(cc.MissPenalty))
}
