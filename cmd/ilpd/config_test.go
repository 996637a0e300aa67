package main

import (
	"strings"
	"testing"
	"time"
)

// TestValidateConfig: self-contradictory or nonsensical configurations
// are refused at startup.
func TestValidateConfig(t *testing.T) {
	mut := func(f func(*Config)) Config {
		cfg := DefaultConfig()
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero max-sweeps", mut(func(c *Config) { c.MaxSweeps = 0 }), "max-sweeps"},
		{"zero max-degree", mut(func(c *Config) { c.MaxDegree = 0 }), "max-degree"},
		{"negative retries", mut(func(c *Config) { c.Retries = -1 }), "retries"},
		{"negative backoff", mut(func(c *Config) { c.MaxBackoff = -time.Second }), "max-backoff"},
		{"default budget over cap", mut(func(c *Config) { c.DefaultBudget = c.MaxBudget + 1 }), "max-budget"},
		{"zero default timeout", mut(func(c *Config) { c.DefaultTimeout = 0 }), "default-timeout"},
		{"default timeout over cap", mut(func(c *Config) { c.DefaultTimeout = c.MaxTimeout + 1 }), "max-timeout"},
		{"negative drain timeout", mut(func(c *Config) { c.DrainTimeout = -time.Second }), "drain-timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateConfig(tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
	if err := validateConfig(DefaultConfig()); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

// TestRunRejectsBadUsage: CLI misuse exits 1 with usage on stderr.
func TestRunRejectsBadUsage(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"unexpected-arg"},
		{"-max-sweeps", "0"},
	}
	for _, args := range cases {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("run(%v) exited %d, want 1\nstderr: %s", args, code, stderr.String())
		}
	}
}
