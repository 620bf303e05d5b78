package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one publish share the publish's serial
// as ID, spans of one cold connect share a per-connect ID; Parent names the
// span with the same ID that caused this one (on the same track when
// several spans carry that name and ID). Track is the router, or 0.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent string `json:"parent"`
	Track  int    `json:"track"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans and counts in memory; the untraced
// run keeps nothing. Both runs take the same timestamps, so the difference
// between them is the cost of recording plus pprof labels and profiling.
type tracer struct {
	on     bool
	origin time.Time // span times are nanoseconds since this instant

	mu     sync.Mutex
	spans  []span
	counts map[string]float64

	profile *os.File
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, origin: time.Now(), counts: map[string]float64{}}
}

// add records a span that ran from start to end.
func (t *tracer) add(name string, id uint64, parent string, track int, start, end time.Time) {
	if !t.on {
		return
	}
	s := span{Name: name, ID: id, Parent: parent, Track: track,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// count adds n to a counter kept at a layer boundary.
func (t *tracer) count(name string, n float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// set records a value kept at a layer boundary.
func (t *tracer) set(name string, v float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.counts[name] = v
	t.mu.Unlock()
}

// do runs fn under the pprof label layer=<layer> in the traced run, so the
// CPU profile splits by layer. Goroutines fn starts (the server's writer
// pool and conn handlers, a client's dispatch loop, a subscriber's drainer,
// the LiveIndex compactor) inherit the label.
func (t *tracer) do(layer string, fn func()) {
	if !t.on {
		fn()
		return
	}
	pprof.Do(context.Background(), pprof.Labels("layer", layer), func(context.Context) { fn() })
}

// startProfile starts the labelled CPU profile of the measured window.
func (t *tracer) startProfile(path string) error {
	if !t.on {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.profile = f
	return nil
}

func (t *tracer) stopProfile() error {
	if t.profile == nil {
		return nil
	}
	pprof.StopCPUProfile()
	err := t.profile.Close()
	t.profile = nil
	return err
}

// writeSpans writes the spans as JSON lines, in start order.
func (t *tracer) writeSpans(path string) error {
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations groups span durations by span name.
func (t *tracer) durations() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start))
	}
	return out
}

// layerMetrics derives the per-layer metrics from the spans and counts.
func (t *tracer) layerMetrics() (map[string]metric, error) {
	d := t.durations()
	m := map[string]metric{}
	var err error
	put := func(key, span string, q float64, unit time.Duration, unitName string) {
		v, e := quantile(d[span], q)
		if e != nil {
			if err == nil {
				err = fmt.Errorf("%s: no %s spans", key, span)
			}
			return
		}
		m[key] = metric{float64(v) / float64(unit), unitName}
	}
	us, ms := time.Microsecond, time.Millisecond
	put("rtr.server.apply_delta_us.p50", "rtr.server.apply_delta", 0.50, us, "us")
	put("rtr.server.apply_delta_us.p99", "rtr.server.apply_delta", 0.99, us, "us")
	put("rtr.server.update_set_ms", "rtr.server.update_set", 0.50, ms, "ms")
	put("rtr.client.notify_wait_us.p50", "rtr.client.notify_wait", 0.50, us, "us")
	put("rtr.client.notify_wait_us.p99", "rtr.client.notify_wait", 0.99, us, "us")
	put("rtr.client.sync_us.p50", "rtr.client.sync", 0.50, us, "us")
	put("rtr.client.sync_us.p99", "rtr.client.sync", 0.99, us, "us")
	put("rtr.client.reset_ms.p50", "rtr.client.reset", 0.50, ms, "ms")
	put("rtr.client.reset_ms.p95", "rtr.client.reset", 0.95, ms, "ms")
	put("rtr.client.dial_us.p50", "rtr.client.dial", 0.50, us, "us")
	put("rtr.client.flush_us.p50", "rtr.client.flush", 0.50, us, "us")
	put("rtr.client.flush_us.p99", "rtr.client.flush", 0.99, us, "us")
	put("rov.live.apply_us.p50", "rov.live.apply", 0.50, us, "us")
	put("rov.live.apply_us.p99", "rov.live.apply", 0.99, us, "us")
	put("rov.validate_batch_us.p50", "rov.validate_batch", 0.50, us, "us")
	put("rov.validate_batch_us.p99", "rov.validate_batch", 0.99, us, "us")
	put("core.compress_ms", "core.compress", 0.50, ms, "ms")
	if err != nil {
		return nil, err
	}

	late, err := t.publishLateness()
	if err != nil {
		return nil, err
	}
	m["harness.publish_late_us.p99"] = metric{float64(late) / float64(us), "us"}

	c := t.counts
	ratio := func(key, num, den string) {
		if c[den] == 0 {
			if err == nil {
				err = fmt.Errorf("%s: no %s counted", key, den)
			}
			return
		}
		m[key] = metric{c[num] / c[den], "ratio"}
	}
	ratio("rtr.client.full_fallback_frac", "rtr.client.full_fallbacks", "rtr.client.syncs")
	ratio("rov.live.compact_hit_frac", "rov.compact_hits", "rov.batches")
	if c["rtr.client.syncs"] > 0 {
		m["rtr.client.vrps_per_sync"] = metric{c["rtr.client.vrps"] / c["rtr.client.syncs"], "count"}
	}
	m["rtr.server.conns_end"] = metric{c["rtr.server.conns_end"], "count"}
	m["core.saved_frac"] = metric{c["core.saved_frac"], "ratio"}
	return m, err
}

// publishLateness is the p99 of how late the open-loop generator called
// ApplyDelta: the apply_delta span's start minus its harness.publish
// parent's start, which is the publish's scheduled instant.
func (t *tracer) publishLateness() (time.Duration, error) {
	due := map[uint64]int64{}
	for _, s := range t.spans {
		if s.Name == "harness.publish" {
			due[s.ID] = s.Start
		}
	}
	var late []time.Duration
	for _, s := range t.spans {
		if s.Name != "rtr.server.apply_delta" {
			continue
		}
		d, ok := due[s.ID]
		if !ok {
			return 0, fmt.Errorf("apply_delta span %d has no harness.publish parent", s.ID)
		}
		late = append(late, time.Duration(s.Start-d))
	}
	return quantile(late, 0.99)
}

// cpuLayers lists the pprof label values the traced run sets.
var cpuLayers = []string{"core", "rtr.server", "rtr.client", "rov"}

// cpuShares reads the labelled CPU profile with `go tool pprof` and returns
// each layer's share of the profile's samples; what no layer label covers
// (the generators, GC workers) is cpu_share.unlabelled.
func cpuShares(profile string) (map[string]metric, error) {
	top, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top: %w", err)
	}
	tags, err := exec.Command("go", "tool", "pprof", "-tags", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -tags: %w", err)
	}
	total, err := profileTotal(string(top))
	if err != nil {
		return nil, err
	}
	byLayer, err := parseTags(string(tags), "layer")
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	rest := 1.0
	for _, l := range cpuLayers {
		share := 0.0
		if total > 0 {
			share = float64(byLayer[l]) / float64(total)
		}
		m["cpu_share."+l] = metric{share, "ratio"}
		rest -= share
	}
	m["cpu_share.unlabelled"] = metric{max(rest, 0), "ratio"}
	return m, nil
}

// profileTotal reads "Total samples = 850ms" from `pprof -top` output.
func profileTotal(out string) (time.Duration, error) {
	const key = "Total samples = "
	i := strings.Index(out, key)
	if i < 0 {
		return 0, fmt.Errorf("pprof -top printed no %q", key)
	}
	f := strings.Fields(out[i+len(key):])
	if len(f) == 0 {
		return 0, fmt.Errorf("pprof -top printed an empty total")
	}
	return pprofDuration(f[0])
}

// parseTags extracts the CPU time per value of one tag key from
// `pprof -tags` output:
//
//	layer: Total 790.0ms
//	       450.0ms (56.96%): rtr.client
//	       340.0ms (43.04%): rtr.server
//
// A profile with no samples carrying the key has no such block.
func parseTags(out, key string) (map[string]time.Duration, error) {
	byValue := map[string]time.Duration{}
	in := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 2 && f[1] == "Total" && strings.HasSuffix(f[0], ":"):
			in = f[0] == key+":"
		case in && len(f) >= 3 && strings.Contains(line, "%):"):
			// Small shares print padded: "10ms ( 1.20%): rov".
			d, err := pprofDuration(f[0])
			if err != nil {
				return nil, err
			}
			byValue[f[len(f)-1]] = d
		}
	}
	return byValue, nil
}

// pprofDuration parses a pprof time such as 450.0ms, 1.20s or 1.50mins.
func pprofDuration(s string) (time.Duration, error) {
	r := strings.NewReplacer("mins", "m", "hrs", "h", "µs", "us")
	d, err := time.ParseDuration(r.Replace(s))
	if err != nil {
		return 0, fmt.Errorf("pprof time %q: %w", s, err)
	}
	return d, nil
}

// tracePaths names the traced run's output files.
func tracePaths(dir, workload string, seed uint64) (spans, profile string) {
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	return base + ".spans.jsonl", base + ".cpu.pprof"
}
