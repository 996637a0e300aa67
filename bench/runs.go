package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"text/tabwriter"
)

// declared is the part of BENCHMARK.json the -runs mode reads.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(root string) (declared, error) {
	var d declared
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return d, err
	}
	return d, json.Unmarshal(b, &d)
}

// runMany runs the workload in n fresh processes with seeds seed..seed+n-1
// and prints, for each end-to-end metric, the median, the quartiles and the
// spread (the distance between the quartiles as a share of the median),
// flagging a spread above the metric's bound in BENCHMARK.json. It is how
// the bounds were set.
func runMany(root, workload string, seed int64, seconds float64, n int, stdout, stderr io.Writer) int {
	decl, err := readDeclared(root)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "bench: run with seed %d: %v\n", s, err)
			return 1
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			fmt.Fprintf(stderr, "bench: run with seed %d: %v\n", s, err)
			return 1
		}
		fmt.Fprintf(stderr, "bench: %s seed %d: %s\n", workload, s, lines[len(lines)-1])
		for name, v := range res.Metrics {
			values[name] = append(values[name], v.Value)
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "%s, %d runs\tunit\tmedian\tq1\tq3\tspread\tbound\t\n", workload, n)
	for _, m := range decl.EndToEnd {
		vs := values[m.Name]
		med := median(vs)
		q1, q3 := quartiles(vs)
		spread := (q3 - q1) / med
		flag := ""
		if spread > m.Bound {
			flag = "SPREAD ABOVE BOUND"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.4f\t%.2f\t%s\n", m.Name, m.Unit, med, q1, q3, spread, m.Bound, flag)
	}
	if err := tw.Flush(); err != nil {
		return 1
	}
	return 0
}
