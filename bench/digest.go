package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// A digest file holds one line per checked output, "<key> <sha256>", where
// the key names the output (benchmark, machine or compile variant). It pins
// outputs that have no golden text, so a change to a simulated result or a
// compiled program fails the run.

func digestPath(cfg config, workload string) string {
	return filepath.Join(cfg.testdata, workload+".digest")
}

// readDigest loads workload's digest file; in record mode there is nothing
// to check against, and it returns an empty set.
func readDigest(cfg config, workload string) (map[string]string, error) {
	want := map[string]string{}
	if cfg.record {
		return want, nil
	}
	b, err := os.ReadFile(digestPath(cfg, workload))
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("%s: malformed line %q", digestPath(cfg, workload), line)
		}
		want[line[:i]] = line[i+1:]
	}
	return want, sc.Err()
}

// writeDigest rewrites workload's digest file with got's entries in keys
// order.
func writeDigest(cfg config, workload string, keys []string, got map[string]string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s output digests; regenerate with: bash bench/run.sh --workload %s --record\n", workload, workload)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, got[k])
	}
	if err := os.MkdirAll(cfg.testdata, 0o755); err != nil {
		return err
	}
	return os.WriteFile(digestPath(cfg, workload), []byte(b.String()), 0o644)
}
