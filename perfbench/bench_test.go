package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/rpki"
)

// tiny is a workload at a size that runs in about a second.
func tiny(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.trace, cfg.outDir = workload, 7, trace, t.TempDir()
	cfg.scale, cfg.setups, cfg.restartRouters = 0.02, 2, 4
	cfg.seconds = 700 * time.Millisecond
	return cfg
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(tiny(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace,
					res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			for _, name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w, trace, name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// corruptOne changes the origin of one VRP of an expected table.
func corruptOne(s *rpki.Set) *rpki.Set {
	vrps := append([]rpki.VRP(nil), s.VRPs()...)
	vrps[len(vrps)/2].AS++
	return rpki.NewSet(vrps)
}

func TestOraclesCatchACorruptVRP(t *testing.T) {
	for _, w := range workloadNames {
		cfg := tiny(t, w, false)
		cfg.expect = corruptOne
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct {
			t.Errorf("%s: the oracle passed against an expected table with one corrupt VRP", w)
		}
	}
}

// TestChurnSpansTile checks that each traced churn sync's notify_wait and
// sync spans tile the interval from the publish's scheduled instant to
// Sync's return.
func TestChurnSpansTile(t *testing.T) {
	cfg := tiny(t, "churn", true)
	if _, err := runWorkload(cfg); err != nil {
		t.Fatal(err)
	}
	path, _ := tracePaths(cfg.outDir, cfg.workload, cfg.seed)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type key struct {
		id    uint64
		track int
	}
	due := map[uint64]int64{}
	wait := map[key]span{}
	var syncs []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		switch s.Name {
		case "harness.publish":
			due[s.ID] = s.Start
		case "rtr.client.notify_wait":
			wait[key{s.ID, s.Track}] = s
		case "rtr.client.sync":
			syncs = append(syncs, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(syncs) < 10 {
		t.Fatalf("only %d sync spans", len(syncs))
	}
	for _, s := range syncs {
		w, ok := wait[key{s.ID, s.Track}]
		if !ok {
			t.Fatalf("sync span %d on router %d has no notify_wait span", s.ID, s.Track)
		}
		if w.End != s.Start || w.Start != due[s.ID] || s.End < s.Start {
			t.Errorf("serial %d router %d: notify_wait [%d,%d] and sync [%d,%d] do not tile from the publish due at %d",
				s.ID, s.Track, w.Start, w.End, s.Start, s.End, due[s.ID])
		}
	}
}

func TestParseTags(t *testing.T) {
	out := " layer: Total 1.5s\n" +
		"           1.2s (80.00%): rov\n" +
		"        10.0ms ( 0.67%): rtr.client\n" +
		" other: Total 1.5s\n" +
		"           1.5s (100%): x\n"
	got, err := parseTags(out, "layer")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["rov"] != 1200*time.Millisecond || got["rtr.client"] != 10*time.Millisecond {
		t.Errorf("parseTags = %v", got)
	}
	total, err := profileTotal("Duration: 5.17s, Total samples = 1.50mins (16.46%)\n")
	if err != nil || total != 90*time.Second {
		t.Errorf("profileTotal = %v, %v", total, err)
	}
}
