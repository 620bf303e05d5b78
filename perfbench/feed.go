package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/prefix"
	"repro/internal/rov"
	"repro/internal/rpki"
	"repro/internal/rtr"
)

const (
	// batchHalf is how many VRPs a publish announces; it withdraws the
	// previous publish's batch of the same size, so every publish changes
	// 2·batchHalf VRPs and no two serials share a table.
	batchHalf = 128
	// Batch VRPs carry private-use ASNs (RFC 6996) that no synth VRP uses:
	// the AS is the base plus the publish index, so a consumer can tell
	// from a delta which publish it has reached.
	feedASBase  = 4_200_000_000
	probeASBase = 4_290_000_000
	// validateSlice is the route count of one ValidateBatch call.
	validateSlice = 4096
	// oracleRoutes is the size of the seeded route sample the validation
	// oracle checks against rov.Reference.
	oracleRoutes = 512
	// catchUp bounds how long the routers and the consumer may take to
	// reach the last publish once the publisher stops.
	catchUp = 10 * time.Second
)

// feedSpec shapes an incremental-path load.
type feedSpec struct {
	interval  time.Duration // the open-loop publish period
	publishes int           // publishes to make; 0 publishes until the run's seconds are up
	routers   int           // persistent routers following the cache
	consumer  bool          // router 0 feeds a rov.LiveIndex through Subscribe
	validator bool          // one goroutine runs ValidateBatch back to back on the LiveIndex
	batches   int           // validator calls to make; 0 runs until the publisher stops
	asBase    uint32
}

// feed is the incremental path under load: an open-loop publisher of
// ApplyDelta batches, routers running WaitNotify → Sync →
// FlushSubscribers in a closed loop, and optionally a consumer LiveIndex
// with a validator reading it.
type feed struct {
	e    *env
	spec feedSpec
	base *rpki.Set  // the served table before the first publish
	s0   rtr.Serial // the cache's serial before the first publish

	routers []*router
	live    *rov.LiveIndex
	// visible is written only by the consumer (the subscriber's drainer
	// goroutine); reached is its latest publish index, for polling.
	visible    []mark
	reached    atomic.Int64
	consumeErr error

	start, end time.Time
	published  int

	validations, batches int
	validBusy, validCPU  time.Duration
}

// router is one persistent router connection.
type router struct {
	track  int
	c      *rtr.Client
	synced atomic.Uint32 // the serial of its last completed Sync
	marks  []mark        // Sync return instants, with the publish reached
	syncs  int
	failed int
	err    error
}

// mark is the instant a router or the consumer reached publish k.
type mark struct {
	at time.Time
	k  int
}

func newFeed(e *env, spec feedSpec) (*feed, error) {
	f := &feed{e: e, spec: spec, base: e.served}
	f.reached.Store(-1)
	for i := 0; i < spec.routers; i++ {
		c, _, err := e.connect(e.id(uint64(spec.asBase)+uint64(i)), i)
		if err != nil {
			f.close()
			return nil, err
		}
		r := &router{track: i, c: c}
		r.synced.Store(uint32(c.Serial()))
		f.routers = append(f.routers, r)
	}
	if spec.consumer {
		c := f.routers[0].c
		e.tr.do("rov", func() {
			f.live = rov.NewLiveIndex(c.Set())
			c.Subscribe(f.consume)
		})
	}
	f.s0 = e.srv.Serial()
	return f, nil
}

func (f *feed) close() {
	for _, r := range f.routers {
		r.c.Close()
	}
}

// serialOf is the serial publish k is published under: the publisher is
// the cache's only writer, so serials are consecutive.
func (f *feed) serialOf(k int) rtr.Serial { return rtr.SerialAdvance(f.s0, uint32(k+1)) }

// indexOf inverts serialOf; it is negative for serials before the feed.
func (f *feed) indexOf(s rtr.Serial) int { return int(int32(uint32(s)-uint32(f.s0))) - 1 }

// due is publish k's scheduled instant.
func (f *feed) due(k int) time.Time { return f.start.Add(time.Duration(k) * f.spec.interval) }

// batch returns publish k's announced VRPs: batchHalf /24s, distinct across
// all batches of a seed, originated by spec.asBase+k.
func (f *feed) batch(k int) []rpki.VRP {
	if k < 0 {
		return nil
	}
	out := make([]rpki.VRP, batchHalf)
	salt := mix(f.e.cfg.seed ^ uint64(f.spec.asBase))
	for i := range out {
		// An odd multiplier permutes the 24-bit /24 space.
		n := (uint64(k)*batchHalf + uint64(i)) * 0x9e3779b1
		p, err := prefix.Make(prefix.IPv4, ((n^salt)&0xffffff)<<40, 0, 24)
		if err != nil {
			panic(err)
		}
		out[i] = rpki.VRP{Prefix: p, MaxLength: 24, AS: rpki.ASN(f.spec.asBase + uint32(k))}
	}
	return out
}

// expected is the table the cache serves after the last publish.
func (f *feed) expected() *rpki.Set {
	vrps := append(append([]rpki.VRP(nil), f.base.VRPs()...), f.batch(f.published-1)...)
	return rpki.NewSet(vrps)
}

// run drives the load for d (or spec.publishes publishes), then waits for
// every router and the consumer to reach the last publish.
func (f *feed) run(d time.Duration) error {
	stop := make(chan struct{})
	stopValidator := make(chan struct{})
	f.start = time.Now()
	var wg, vwg sync.WaitGroup
	for _, r := range f.routers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.follow(r, stop)
		}()
	}
	if f.spec.validator {
		vwg.Add(1)
		go func() {
			defer vwg.Done()
			f.validate(stopValidator)
		}()
	}
	err := f.publish(f.start.Add(d))
	close(stopValidator)
	vwg.Wait()

	final := f.serialOf(f.published - 1)
	deadline := time.Now().Add(catchUp)
	for !f.caughtUp(final) && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	f.end = time.Now()
	close(stop)
	wg.Wait()
	if err == nil {
		err = f.consumeErr
	}
	return err
}

func (f *feed) caughtUp(final rtr.Serial) bool {
	for _, r := range f.routers {
		if rtr.Serial(r.synced.Load()) != final {
			return false
		}
	}
	return !f.spec.consumer || f.reached.Load() == int64(f.published-1)
}

// publish is the open-loop generator: publish k is due at start+k·interval
// and goes out then, or as soon as the previous one returns when late.
func (f *feed) publish(deadline time.Time) error {
	for k := 0; ; k++ {
		due := f.due(k)
		if f.spec.publishes > 0 && k >= f.spec.publishes ||
			f.spec.publishes == 0 && !due.Before(deadline) {
			return nil
		}
		ann, wd := f.batch(k), f.batch(k-1)
		time.Sleep(time.Until(due))
		t0 := time.Now()
		var s rtr.Serial
		f.e.tr.do("rtr.server", func() { s = f.e.srv.ApplyDelta(ann, wd) })
		t1 := time.Now()
		if s != f.serialOf(k) {
			return fmt.Errorf("publish %d got serial %d, want %d", k, s, f.serialOf(k))
		}
		id := f.e.id(uint64(s))
		f.e.tr.add("harness.publish", id, "", 0, due, t1)
		f.e.tr.add("rtr.server.apply_delta", id, "harness.publish", 0, t0, t1)
		f.published = k + 1
	}
}

// follow is one router's loop: wait for a Serial Notify, Sync, and flush
// the subscribers, until stop.
func (f *feed) follow(r *router, stop <-chan struct{}) {
	tr := f.e.tr
	for {
		var notified rtr.Serial
		select {
		case notified = <-r.c.Notify():
		case <-r.c.Done():
			r.err = r.c.Err()
			return
		case <-stop:
			return
		}
		woke := time.Now()
		fulls := r.c.FullSyncs()
		from := rtr.Serial(r.synced.Load())
		var got rtr.Serial
		var err error
		tr.do("rtr.client", func() { got, err = r.c.Sync() })
		synced := time.Now()
		r.syncs++
		if err != nil {
			r.failed++
			r.err = err
			return
		}
		tr.do("rtr.client", r.c.FlushSubscribers)
		flushed := time.Now()
		r.marks = append(r.marks, mark{synced, f.indexOf(got)})
		r.synced.Store(uint32(got))

		// The notify_wait span runs from the notified publish's scheduled
		// instant to the notify's arrival (the select above is WaitNotify
		// plus the stop channel), and the sync span from there to Sync's
		// return: together they tile the notify-to-sync interval.
		if k := f.indexOf(notified); k >= 0 {
			id := f.e.id(uint64(notified))
			tr.add("rtr.client.notify_wait", id, "rtr.server.apply_delta", r.track, f.due(k), woke)
			tr.add("rtr.client.sync", id, "rtr.client.notify_wait", r.track, woke, synced)
			tr.add("rtr.client.flush", id, "rtr.client.sync", r.track, synced, flushed)
		}
		tr.count("rtr.client.syncs", 1)
		if r.c.FullSyncs() != fulls {
			tr.count("rtr.client.full_fallbacks", 1)
		}
		tr.count("rtr.client.vrps", float64(f.deltaSize(from, got)))
	}
}

// deltaSize is how many VRPs a Sync from serial a to b carried by the
// publisher's model: b's batch announced and a's batch withdrawn.
func (f *feed) deltaSize(a, b rtr.Serial) int {
	ka, kb := f.indexOf(a), f.indexOf(b)
	n := 0
	if kb > ka {
		if kb >= 0 {
			n += batchHalf
		}
		if ka >= 0 {
			n += batchHalf
		}
	}
	return n
}

// consume is the Subscribe consumer: apply the delta to the LiveIndex and
// mark which publish the index now reflects.
func (f *feed) consume(ann, wd []rpki.VRP) {
	t0 := time.Now()
	f.live.Apply(ann, wd)
	t1 := time.Now()
	k := -1
	for _, v := range ann {
		if b := uint32(v.AS) - f.spec.asBase; b < 1<<24 {
			k = max(k, int(b))
		}
	}
	if k < 0 {
		if f.consumeErr == nil {
			f.consumeErr = fmt.Errorf("consumer delta of %d/%d VRPs announces no batch", len(ann), len(wd))
		}
		return
	}
	f.visible = append(f.visible, mark{t1, k})
	f.reached.Store(int64(k))
	f.e.tr.add("rov.live.apply", f.e.id(uint64(f.serialOf(k))), "rtr.client.sync", 0, t0, t1)
}

// validate runs ValidateBatch back to back over consecutive slices of the
// snapshot's routes.
func (f *feed) validate(stop <-chan struct{}) {
	tr, routes := f.e.tr, f.e.routes
	dst := make([]rov.State, 0, validateSlice)
	start, u0 := time.Now(), readUsage()
	defer func() {
		f.validBusy, f.validCPU = time.Since(start), readUsage().cpu-u0.cpu
	}()
	for off := 0; f.spec.batches == 0 || f.batches < f.spec.batches; {
		if f.spec.batches == 0 {
			select {
			case <-stop:
				return
			default:
			}
		}
		batch := routes[off:min(off+validateSlice, len(routes))]
		hit := f.live.CompactSnapshot() != nil
		t0 := time.Now()
		tr.do("rov", func() { dst = f.live.ValidateBatch(batch, dst[:0]) })
		t1 := time.Now()
		f.batches++
		f.validations += len(batch)
		tr.add("rov.validate_batch", f.e.id(uint64(f.batches)), "", 0, t0, t1)
		tr.count("rov.batches", 1)
		if hit {
			tr.count("rov.compact_hits", 1)
		}
		if off += len(batch); off == len(routes) {
			off = 0
		}
		// Yield between batches: the validator keeps one CPU busy, and a
		// woken publisher or router should not wait out a scheduler
		// time slice for the other.
		runtime.Gosched()
	}
}

// syncLatencies pairs each publish with the first Sync return, per router,
// that reached it. Publishes a router never reached are missing.
func (f *feed) syncLatencies() (lat []time.Duration, missing int) {
	for _, r := range f.routers {
		l, m := f.latencies(r.marks)
		lat, missing = append(lat, l...), missing+m
	}
	return lat, missing
}

// visibleLatencies pairs each publish with the first LiveIndex.Apply
// return that reflects it.
func (f *feed) visibleLatencies() ([]time.Duration, int) { return f.latencies(f.visible) }

// latencies times every publish from its scheduled instant to the first
// mark at or past it. Marks are in time order with nondecreasing k.
func (f *feed) latencies(marks []mark) (lat []time.Duration, missing int) {
	i := 0
	for k := 0; k < f.published; k++ {
		for i < len(marks) && marks[i].k < k {
			i++
		}
		if i == len(marks) {
			return lat, missing + f.published - k
		}
		lat = append(lat, marks[i].at.Sub(f.due(k)))
	}
	return lat, missing
}

// check is the feed's oracle: every router sits at the cache's serial
// holding exactly the expected table, and the consumer LiveIndex holds the
// same table and validates a seeded route sample as rov.Reference does.
func (f *feed) check(expected *rpki.Set) error {
	serial := f.e.srv.Serial()
	for _, r := range f.routers {
		if r.err != nil {
			return fmt.Errorf("router %d: %w", r.track, r.err)
		}
		if got := r.c.Serial(); got != serial {
			return fmt.Errorf("router %d at serial %d, cache at %d", r.track, got, serial)
		}
		if !r.c.Set().Equal(expected) {
			return fmt.Errorf("router %d table (%d VRPs) differs from the expected table (%d VRPs)",
				r.track, r.c.Len(), expected.Len())
		}
	}
	if f.live == nil {
		return nil
	}
	ann, wd := rov.Diff(f.live.Snapshot(), rov.NewIndex(expected))
	if len(ann)+len(wd) > 0 {
		return fmt.Errorf("consumer LiveIndex differs from the expected table by %d/%d VRPs", len(ann), len(wd))
	}
	ref := rov.NewReference(expected)
	for _, rt := range f.oracleSample() {
		if got, want := f.live.Validate(rt.Prefix, rt.Origin), ref.Validate(rt.Prefix, rt.Origin); got != want {
			return fmt.Errorf("validate %v from %v: LiveIndex says %v, reference says %v", rt.Prefix, rt.Origin, got, want)
		}
	}
	return nil
}

// oracleSample is a seeded sample of the snapshot's routes plus the routes
// of the last two batches: one announced, one withdrawn.
func (f *feed) oracleSample() []rov.Route {
	routes := f.e.routes
	out := make([]rov.Route, 0, oracleRoutes+2*batchHalf)
	x := mix(f.e.cfg.seed ^ 0x0a11ce)
	for i := 0; i < oracleRoutes; i++ {
		x = mix(x)
		out = append(out, routes[x%uint64(len(routes))])
	}
	for _, k := range []int{f.published - 1, f.published - 2} {
		for _, v := range f.batch(k) {
			out = append(out, rov.Route{Prefix: v.Prefix, Origin: v.AS})
		}
	}
	return out
}

// probe runs two publishes through every layer — ApplyDelta, one router's
// WaitNotify → Sync → FlushSubscribers, a consumer LiveIndex, a few
// ValidateBatch calls — and checks the result, before any workload router
// connects. Every workload's set-up runs it, so every traced run times
// every layer, and a broken path fails before the measurement starts.
func probe(e *env) error {
	f, err := newFeed(e, feedSpec{interval: 5 * time.Millisecond, publishes: 2,
		routers: 1, consumer: true, validator: true, batches: 4, asBase: probeASBase})
	if err != nil {
		return err
	}
	defer f.close()
	if err := f.run(0); err != nil {
		return err
	}
	e.served = f.expected()
	return f.check(e.served)
}

// churn is the incremental path alone: two routers follow a 256-VRP
// publish every 20 ms. No full table, compression or validation runs.
type churn struct{ f *feed }

const churnInterval = 20 * time.Millisecond

func newChurn(e *env) (workload, error) {
	f, err := newFeed(e, feedSpec{interval: churnInterval, routers: 2, asBase: feedASBase})
	if err != nil {
		return nil, err
	}
	return &churn{f}, nil
}

func (w *churn) close() { w.f.close() }

// measure reports syncs: latency from a publish's scheduled instant to a
// router's Sync returning at that serial or newer, and
// process CPU per Sync.
func (w *churn) measure() (*outcome, error) {
	f := w.f
	u0 := readUsage()
	if err := f.run(f.e.cfg.seconds); err != nil {
		return nil, err
	}
	u := readUsage().since(u0)
	lat, missing := f.syncLatencies()
	o := &outcome{busy: f.end.Sub(f.start), cpu: u.cpu, latency: lat, usage: u,
		failed: missing}
	for _, r := range f.routers {
		o.ops += float64(r.syncs - r.failed)
		o.attempted += r.syncs
		o.failed += r.failed
	}
	o.oracle = f.check(f.e.expected(f.expected()))
	if err := f.e.waitConns(len(f.routers)); err != nil && o.oracle == nil {
		o.oracle = err
	}
	return o, nil
}

// validate is ROV reads beside RTR writes: one router keeps a consumer
// LiveIndex in sync with a 256-VRP publish every 50 ms while one goroutine
// validates the snapshot's routes through it back to back.
type validate struct{ f *feed }

const validateInterval = 50 * time.Millisecond

func newValidate(e *env) (workload, error) {
	f, err := newFeed(e, feedSpec{interval: validateInterval, routers: 1, consumer: true,
		validator: true, asBase: feedASBase})
	if err != nil {
		return nil, err
	}
	return &validate{f}, nil
}

func (w *validate) close() { w.f.close() }

// measure reports validations: throughput of ValidateBatch, latency from a
// publish's scheduled instant to the consumer's LiveIndex.Apply returning
// with it, and process CPU per validation.
func (w *validate) measure() (*outcome, error) {
	f := w.f
	u0 := readUsage()
	if err := f.run(f.e.cfg.seconds); err != nil {
		return nil, err
	}
	u := readUsage().since(u0)
	lat, missing := f.visibleLatencies()
	r := f.routers[0]
	o := &outcome{ops: float64(f.validations), busy: f.validBusy, cpu: f.validCPU, latency: lat,
		usage: u, attempted: f.batches + r.syncs, failed: r.failed + missing}
	o.oracle = f.check(f.e.expected(f.expected()))
	if err := f.e.waitConns(1); err != nil && o.oracle == nil {
		o.oracle = err
	}
	return o, nil
}
