package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rpki"
)

// restartWorkers is how many routers cold-connect at once.
const restartWorkers = 2

// restart is cache restarts and router cold connects, round after round:
// the next table version is built, compressed and published with
// UpdateSet, then restartWorkers goroutines run Dial → Reset → check →
// Close until the round's routers are done. It is the full-table path;
// the serial-delta path is not used.
type restart struct {
	e      *env
	nextID uint64
}

func (w *restart) close() {}

// version is round r's table: a seeded revalidation of the snapshot that
// drops about one ROA in a hundred.
func (w *restart) version(r int) *rpki.Set {
	keep := make([]rpki.ROA, 0, len(w.e.roas))
	for i, roa := range w.e.roas {
		if mix(w.e.cfg.seed^uint64(r)<<32^uint64(i))%100 != 0 {
			keep = append(keep, roa)
		}
	}
	return rpki.SetFromROAs(keep)
}

// measure reports cold connects: how many complete per second of connect
// phase, the Dial → Reset done latency, and process CPU per
// connect over the connect phases.
func (w *restart) measure() (*outcome, error) {
	e := w.e
	o := &outcome{}
	u0 := readUsage()
	deadline := time.Now().Add(e.cfg.seconds)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		next := w.version(round)
		start := time.Now()
		var table *rpki.Set
		e.tr.do("core", func() { table, _ = core.Compress(next, core.Options{}) })
		t1 := time.Now()
		e.tr.do("rtr.server", func() { e.srv.UpdateSet(table) })
		id := e.id(uint64(round))
		e.tr.add("core.compress", id, "harness.round", 0, start, t1)
		e.tr.add("rtr.server.update_set", id, "harness.round", 0, t1, time.Now())
		e.tr.add("harness.round", id, "", 0, start, time.Now())

		if err := w.connectPhase(o, e.expected(table)); err != nil && o.oracle == nil {
			o.oracle = fmt.Errorf("round %d: %w", round, err)
		}
	}
	o.usage = readUsage().since(u0)
	if err := e.waitConns(0); err != nil && o.oracle == nil {
		o.oracle = err
	}
	return o, nil
}

// connectPhase cold-connects cfg.restartRouters routers, restartWorkers at
// a time, checking each one's table against expected.
func (w *restart) connectPhase(o *outcome, expected *rpki.Set) error {
	e := w.e
	n := e.cfg.restartRouters
	type worker struct {
		lat    []time.Duration
		failed int
		got    *rpki.Set
		err    error
	}
	workers := make([]worker, restartWorkers)
	ids := make([]uint64, n)
	for i := range ids {
		w.nextID++
		ids[i] = e.id(w.nextID)
	}
	u0, start := readUsage(), time.Now()
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := &workers[g]
			for i := g; i < n; i += restartWorkers {
				c, d, err := e.connect(ids[i], g)
				if err != nil {
					wk.failed++
					wk.err = err
					continue
				}
				wk.lat = append(wk.lat, d)
				if got := c.Len(); got != expected.Len() && wk.err == nil {
					wk.err = fmt.Errorf("reset holds %d VRPs, round table has %d", got, expected.Len())
				}
				if i == 0 {
					wk.got = c.Set()
				}
				c.Close()
			}
		}()
	}
	wg.Wait()
	o.busy += time.Since(start)
	o.cpu += readUsage().cpu - u0.cpu
	o.attempted += n

	var err error
	for _, wk := range workers {
		o.latency = append(o.latency, wk.lat...)
		o.ops += float64(len(wk.lat))
		o.failed += wk.failed
		if err == nil {
			err = wk.err
		}
	}
	if err == nil && (workers[0].got == nil || !workers[0].got.Equal(expected)) {
		err = fmt.Errorf("the round's first reset does not hold the compressed table")
	}
	return err
}
