package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/rov"
	"repro/internal/rpki"
	"repro/internal/rtr"
	"repro/internal/synth"
)

// config sizes one run. defaultConfig is the benchmark; the package test
// shrinks it.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	outDir   string // where a traced run writes its spans and CPU profile

	scale          float64 // synth snapshot scale; 1 is the 6/1/2017 snapshot
	setups         int     // set-ups per run; setup_s is their median
	restartRouters int     // cold connects per restart round

	// expect, when set, rewrites every expected table before a workload's
	// oracle compares against it. The package test corrupts one VRP with it
	// to prove the oracles fail.
	expect func(*rpki.Set) *rpki.Set
}

func defaultConfig() config {
	return config{scale: 1, setups: 3, restartRouters: 16}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one set-up of the Figure 1 path: the seeded snapshot, its
// compression, and a cache serving it on loopback.
type env struct {
	cfg   config
	tr    *tracer
	epoch uint64 // set-up number; the high half of every span ID

	table  *rpki.Set   // the compressed snapshot: what the cache serves
	roas   []rpki.ROA  // the snapshot's ROAs, which restart revalidates
	routes []rov.Route // the snapshot's BGP routes, as validation queries
	served *rpki.Set   // the cache's table as the benchmark models it

	srv       *rtr.Server
	addr      string
	serveDone chan struct{}
	load      workload
}

// id namespaces a serial, batch or connect number by set-up, so span IDs
// stay unique across the set-ups of one run.
func (e *env) id(n uint64) uint64 { return e.epoch<<32 | n&0xffffffff }

// expected applies the test's rewrite, if any, to an expected table.
func (e *env) expected(s *rpki.Set) *rpki.Set {
	if e.cfg.expect != nil {
		return e.cfg.expect(s)
	}
	return s
}

// setup builds the path from scratch: synth snapshot, compression (with
// core.VerifyCompression), the route queries, a cache publishing the
// compressed table, a probe through every layer, and the workload's own
// routers with their first syncs.
func setup(cfg config, tr *tracer, epoch uint64) (*env, error) {
	e := &env{cfg: cfg, tr: tr, epoch: epoch}
	p := synth.Params6_1()
	if cfg.scale != 1 {
		p = p.Scale(cfg.scale)
	}
	p.Seed ^= mix(cfg.seed)
	ds := synth.Generate(p)
	e.roas = ds.ROAs

	start := time.Now()
	var res core.Result
	tr.do("core", func() { e.table, res = core.Compress(ds.VRPs, core.Options{}) })
	tr.add("core.compress", e.id(0), "harness.setup", 0, start, time.Now())
	tr.set("core.saved_frac", res.SavedFraction())
	if err := core.VerifyCompression(ds.VRPs, e.table); err != nil {
		return nil, err
	}

	bgpRoutes := ds.Table.Routes()
	e.routes = make([]rov.Route, len(bgpRoutes))
	for i, r := range bgpRoutes {
		e.routes[i] = rov.Route{Prefix: r.Prefix, Origin: r.Origin}
	}

	e.srv = rtr.NewServer(nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.addr = l.Addr().String()
	e.serveDone = make(chan struct{})
	go tr.do("rtr.server", func() {
		defer close(e.serveDone)
		// Serve returns only after close stops the cache.
		_ = e.srv.Serve(l)
	})
	start = time.Now()
	tr.do("rtr.server", func() { e.srv.UpdateSet(e.table) })
	tr.add("rtr.server.update_set", e.id(0), "harness.setup", 0, start, time.Now())
	e.served = e.table

	if err := probe(e); err != nil {
		e.close()
		return nil, fmt.Errorf("probe: %w", err)
	}
	if e.load, err = newWorkload(e); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the workload's routers and the cache, and waits for Serve.
func (e *env) close() {
	if e.load != nil {
		e.load.close()
	}
	e.srv.Close()
	<-e.serveDone
}

// connect cold-connects one router: Dial, then a full Reset. It returns
// the client and the Dial → Reset done time.
func (e *env) connect(id uint64, track int) (*rtr.Client, time.Duration, error) {
	t0 := time.Now()
	var c *rtr.Client
	var err error
	e.tr.do("rtr.client", func() { c, err = rtr.Dial(e.addr) })
	t1 := time.Now()
	if err != nil {
		return nil, 0, err
	}
	e.tr.do("rtr.client", func() { err = c.Reset() })
	t2 := time.Now()
	if err != nil {
		c.Close()
		return nil, 0, err
	}
	e.tr.add("harness.connect", id, "", track, t0, t2)
	e.tr.add("rtr.client.dial", id, "harness.connect", track, t0, t1)
	e.tr.add("rtr.client.reset", id, "harness.connect", track, t1, t2)
	return c, t2.Sub(t0), nil
}

// waitConns waits up to a second for the cache to count n router
// connections (it notices a closed router asynchronously) and records the
// count it ends with.
func (e *env) waitConns(n int) error {
	deadline := time.Now().Add(time.Second)
	got := e.srv.ConnCount()
	for got != n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		got = e.srv.ConnCount()
	}
	e.tr.set("rtr.server.conns_end", float64(got))
	if got != n {
		return fmt.Errorf("cache counts %d router connections, want %d", got, n)
	}
	return nil
}

// workload is one load on a set-up path.
type workload interface {
	// measure runs the load for the configured seconds and checks the
	// outputs against the benchmark's own model.
	measure() (*outcome, error)
	close()
}

func newWorkload(e *env) (workload, error) {
	switch e.cfg.workload {
	case "churn":
		return newChurn(e)
	case "restart":
		return &restart{e: e}, nil
	case "validate":
		return newValidate(e)
	}
	return nil, fmt.Errorf("unknown workload %q", e.cfg.workload)
}

var workloadNames = []string{"churn", "restart", "validate"}

// outcome is what a workload measured.
type outcome struct {
	ops       float64       // syncs, cold connects or validations done
	busy      time.Duration // wall time the ops ran in: the base of ops_per_s
	cpu       time.Duration // process CPU over busy
	latency   []time.Duration
	attempted int
	failed    int
	usage     usageDelta // runtime counters over the whole measured window
	oracle    error      // nil when every output matched the model
}

// usage is a reading of the process's CPU time and runtime counters.
type usage struct {
	cpu    time.Duration
	alloc  uint64
	gcCPU  float64
	allCPU float64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	return usage{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:  s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		allCPU: s[2].Value.Float64(),
	}
}

// usageDelta is the change between two readings.
type usageDelta struct {
	cpu    time.Duration
	alloc  uint64
	gcFrac float64 // GC's share of the runtime's CPU estimate
}

func (u usage) since(v usage) usageDelta {
	d := usageDelta{cpu: u.cpu - v.cpu, alloc: u.alloc - v.alloc}
	if all := u.allCPU - v.allCPU; all > 0 {
		d.gcFrac = (u.gcCPU - v.gcCPU) / all
	}
	return d
}

// runWorkload sets the path up cfg.setups times, measures the workload on
// the last set-up, and reports the end-to-end metrics, or with cfg.trace
// the per-layer ones.
func runWorkload(cfg config) (*result, error) {
	tr := newTracer(cfg.trace)
	setups := make([]time.Duration, cfg.setups)
	var e *env
	for i := range setups {
		if e != nil {
			e.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if e, err = setup(cfg, tr, uint64(i+1)); err != nil {
			return nil, err
		}
		setups[i] = time.Since(start)
		tr.add("harness.setup", e.id(0), "", 0, start, start.Add(setups[i]))
	}
	defer e.close()
	// Start every measurement from the same heap: set-up garbage collected.
	runtime.GC()

	spanFile, profFile := tracePaths(cfg.outDir, cfg.workload, cfg.seed)
	if cfg.trace {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.startProfile(profFile); err != nil {
			return nil, err
		}
	}
	o, err := e.load.measure()
	if perr := tr.stopProfile(); err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	if o.oracle != nil {
		fmt.Fprintln(os.Stderr, "perfbench: oracle failed:", o.oracle)
	}
	res := &result{Correct: o.oracle == nil && o.failed == 0, Attempted: o.attempted, Failed: o.failed}
	e2e, err := endToEnd(o, setups)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		res.Metrics = e2e
		return res, nil
	}

	if err := tr.writeSpans(spanFile); err != nil {
		return nil, err
	}
	if res.Metrics, err = tr.layerMetrics(); err != nil {
		return nil, err
	}
	shares, err := cpuShares(profFile)
	if err != nil {
		return nil, err
	}
	for k, v := range shares {
		res.Metrics[k] = v
	}
	res.Metrics["runtime.alloc_kb_per_op"] = metric{float64(o.usage.alloc) / 1024 / o.ops, "KiB"}
	res.Metrics["runtime.gc_cpu_frac"] = metric{o.usage.gcFrac, "ratio"}
	res.Metrics["harness.latency_samples"] = metric{float64(len(o.latency)), "count"}
	// The traced run's own end-to-end figures: their difference from the
	// untraced run of the same workload is the tracing overhead.
	for _, k := range tracedKeys {
		res.Metrics["traced."+k] = e2e[k]
	}
	// The tail is reported here, unbounded: on a 2-CPU VM its run-to-run
	// spread is wider than any bound the end-to-end metrics may carry.
	p95, err := quantile(o.latency, 0.95)
	if err != nil {
		return nil, err
	}
	res.Metrics["traced.latency_p95_ms"] = metric{float64(p95) / float64(time.Millisecond), "ms"}
	return res, nil
}

// tracedKeys are the end-to-end metrics a traced run repeats.
var tracedKeys = []string{"ops_per_s", "latency_p50_ms", "cpu_ms_per_op"}

// endToEnd computes the metrics a user of the path sees.
func endToEnd(o *outcome, setups []time.Duration) (map[string]metric, error) {
	if o.ops == 0 || o.busy <= 0 {
		return nil, errors.New("the workload completed no operations")
	}
	p50, err := quantile(o.latency, 0.50)
	if err != nil {
		return nil, err
	}
	setup, err := quantile(setups, 0.50)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}
	ms := float64(time.Millisecond)
	return map[string]metric{
		"setup_s":        {setup.Seconds(), "s"},
		"peak_rss_mb":    {rss, "MB"},
		"ops_per_s":      {o.ops / o.busy.Seconds(), "1/s"},
		"latency_p50_ms": {float64(p50) / ms, "ms"},
		"cpu_ms_per_op":  {float64(o.cpu) / ms / o.ops, "ms"},
	}, nil
}

// quantile returns the q-quantile of ds by the nearest-rank rule.
func quantile(ds []time.Duration, q float64) (time.Duration, error) {
	if len(ds) == 0 {
		return 0, errors.New("no samples")
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)], nil
}

// peakRSS reads the process's peak resident set (VmHWM) in MB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// mix is splitmix64's finalizer: it spreads a small seed over 64 bits.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
