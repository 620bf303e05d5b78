// Command perfbench is the repository benchmark. One process drives the
// paper's Figure 1 path — a seeded synth 6/1/2017 snapshot, §7 compression
// (core.Compress), an rtr.Server on loopback, rtr.Client routers and a
// consumer rov.LiveIndex — under one workload, checks every output against
// its own model, and prints one JSON result line last:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, derived from spans the benchmark records around
// each layer call, plus a labelled CPU profile split by layer. The spans
// and the profile are written under --out. README.md lists the workloads
// and metrics and what each layer metric should move.
//
// Usage:
//
//	perfbench --workload churn|restart|validate --seed N --seconds S --trace 0|1
//	perfbench --workload all --seed N --seconds S
//
// "all" runs every workload untraced and traced, each in its own process,
// and prints a table of the end-to-end metrics with the tracing overhead.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "churn, restart, validate, or all")
	seed := fs.Uint64("seed", 1, "input seed: the same seed makes the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "trace"), "directory for a traced run's spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *workload == "all" {
		return runAll(*seed, *seconds, *out, stdout, stderr)
	}
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.trace, cfg.outDir = *workload, *seed, *trace == 1, *out
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs each workload untraced and then traced in child processes and
// prints the end-to-end metrics beside the traced run's own figures. Its
// last line is one result over all runs, metrics keyed workload.metric.
func runAll(seed uint64, seconds float64, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	for _, name := range workloadNames {
		var runs [2]*result
		for t := range runs {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(t), "--out", out)
			cmd.Stderr = stderr
			b, err := cmd.Output()
			if runs[t], err = lastResult(b, err); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s --trace %d: %v\n", name, t, err)
				return 1
			}
			total.Correct = total.Correct && runs[t].Correct
			total.Attempted += runs[t].Attempted
			total.Failed += runs[t].Failed
		}
		plain, traced := runs[0], runs[1]
		fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", name, plain.Correct && traced.Correct,
			plain.Attempted+traced.Attempted, plain.Failed+traced.Failed)
		fmt.Fprintf(w, "  %-18s %14s %14s %10s  %s\n", "metric", "untraced", "traced", "overhead", "unit")
		for _, k := range sortedKeys(plain.Metrics) {
			m := plain.Metrics[k]
			total.Metrics[name+"."+k] = m
			tm, ok := traced.Metrics["traced."+k]
			if !ok {
				fmt.Fprintf(w, "  %-18s %14.6g %14s %10s  %s\n", k, m.Value, "", "", m.Unit)
				continue
			}
			fmt.Fprintf(w, "  %-18s %14.6g %14.6g %9.2f%%  %s\n", k, m.Value, tm.Value,
				100*(tm.Value-m.Value)/m.Value, m.Unit)
		}
		fmt.Fprintln(w, "  per layer (traced run):")
		for _, k := range sortedKeys(traced.Metrics) {
			if !strings.HasPrefix(k, "traced.") {
				fmt.Fprintf(w, "    %-32s %14.6g  %s\n", k, traced.Metrics[k].Value, traced.Metrics[k].Unit)
			}
			total.Metrics[name+"."+k] = traced.Metrics[k]
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}

// lastResult parses the result line a child run printed last.
func lastResult(out []byte, runErr error) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
