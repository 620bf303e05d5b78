package rtr

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/rpki"
)

// fakeClock is a controllable clock for supervisor tests: every timerAfter
// call is surfaced on reqs, and the test fires timers explicitly, advancing
// Now by the timer's duration.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	reqs chan fakeTimer
}

type fakeTimer struct {
	d  time.Duration
	ch chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1700000000, 0), reqs: make(chan fakeTimer, 16)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) After(d time.Duration) <-chan time.Time {
	t := fakeTimer{d: d, ch: make(chan time.Time, 1)}
	f.reqs <- t
	return t.ch
}

// fire advances the clock past the timer's deadline and fires it.
func (f *fakeClock) fire(t fakeTimer) {
	f.mu.Lock()
	f.now = f.now.Add(t.d)
	now := f.now
	f.mu.Unlock()
	t.ch <- now
}

// nextTimer returns the next armed timer or fails the test after a timeout.
func (f *fakeClock) nextTimer(t *testing.T) fakeTimer {
	t.Helper()
	select {
	case tm := <-f.reqs:
		return tm
	case <-time.After(5 * time.Second):
		t.Fatal("no timer armed")
		return fakeTimer{}
	}
}

// vrpSet normalizes a delta slice for order-independent comparison.
func vrpSet(vrps []rpki.VRP) map[rpki.VRP]struct{} {
	m := make(map[rpki.VRP]struct{}, len(vrps))
	for _, v := range vrps {
		m[v] = struct{}{}
	}
	return m
}

func sameVRPs(a, b []rpki.VRP) bool {
	if len(a) != len(b) {
		return false
	}
	am := vrpSet(a)
	for _, v := range b {
		if _, ok := am[v]; !ok {
			return false
		}
	}
	return true
}

// delta is one recorded subscriber delivery, with the supervisor's stats
// and health as the subscriber saw them.
type delta struct {
	ann, wd []rpki.VRP
	stats   SupervisorStats
	healthy bool
}

// TestSupervisorBackoffSequence pins the redial schedule: dial failures back
// off exponentially from BackoffMin with jitter in [backoff/2, backoff),
// capped at BackoffMax, and every attempt is counted. With the jitter source
// pinned to zero the delays are exactly half the current backoff.
func TestSupervisorBackoffSequence(t *testing.T) {
	fc := newFakeClock()
	s := NewSupervisor(func() (net.Conn, error) { return nil, errors.New("connection refused") })
	s.BackoffMin = 8 * time.Second
	s.BackoffMax = 60 * time.Second
	s.nowFn = fc.Now
	s.afterFn = fc.After
	s.jitterFn = func() float64 { return 0 }

	runErr := make(chan error, 1)
	go func() { runErr <- s.Run() }()

	// backoff: 8 -> 16 -> 32 -> 64(capped 60) -> 60 -> ...; delay = backoff/2.
	want := []time.Duration{4 * time.Second, 8 * time.Second, 16 * time.Second, 30 * time.Second, 30 * time.Second}
	for i, d := range want {
		timer := fc.nextTimer(t)
		if timer.d != d {
			t.Fatalf("backoff delay #%d = %v, want %v", i, timer.d, d)
		}
		fc.fire(timer)
	}
	// One more attempt is in flight after the last fire; wait for its timer
	// so the dial counter is stable, then check the stats.
	timer := fc.nextTimer(t)
	if timer.d != 30*time.Second {
		t.Fatalf("steady-state delay = %v, want 30s", timer.d)
	}
	st := s.Stats()
	if st.Dials != len(want)+1 || st.DialFailures != st.Dials {
		t.Fatalf("stats = %+v, want %d dials, all failed", st, len(want)+1)
	}
	if st.Generations != 0 || s.Healthy() {
		t.Fatalf("never-synced supervisor reports generations=%d healthy=%v", st.Generations, s.Healthy())
	}
	s.Stop()
	if err := <-runErr; err != nil {
		t.Fatalf("Run returned %v after Stop", err)
	}
}

// errRefused is the harness dialer's error when no connection is queued.
var errRefused = errors.New("connection refused")

// supervisorHarness wires a Supervisor to a channel-fed dialer, a fake
// clock, and recording subscribers and hooks.
type supervisorHarness struct {
	sup     *Supervisor
	fc      *fakeClock
	conns   chan net.Conn
	deltas  chan delta
	resets  chan []rpki.VRP
	updates chan Serial
	downs   chan error // generation ends; dial failures are not recorded
	runErr  chan error
}

func newSupervisorHarness(t *testing.T) *supervisorHarness {
	t.Helper()
	h := &supervisorHarness{
		fc:      newFakeClock(),
		conns:   make(chan net.Conn, 4),
		deltas:  make(chan delta, 16),
		resets:  make(chan []rpki.VRP, 4),
		updates: make(chan Serial, 16),
		downs:   make(chan error, 64),
		runErr:  make(chan error, 1),
	}
	h.sup = NewSupervisor(func() (net.Conn, error) {
		select {
		case c := <-h.conns:
			return c, nil
		default:
			return nil, errRefused
		}
	})
	h.sup.BackoffMin = 10 * time.Second
	h.sup.BackoffMax = 10 * time.Second
	h.sup.nowFn = h.fc.Now
	h.sup.afterFn = h.fc.After
	h.sup.jitterFn = func() float64 { return 0 }
	h.sup.OnUpdate = func(serial Serial) { h.updates <- serial }
	h.sup.OnDown = func(err error) {
		if !errors.Is(err, errRefused) {
			h.downs <- err
		}
	}
	h.sup.Subscribe(func(ann, wd []rpki.VRP) {
		h.deltas <- delta{
			ann:     append([]rpki.VRP(nil), ann...),
			wd:      append([]rpki.VRP(nil), wd...),
			stats:   h.sup.Stats(),
			healthy: h.sup.Healthy(),
		}
	})
	h.sup.OnReset(func(table []rpki.VRP) {
		h.resets <- append([]rpki.VRP(nil), table...)
	})
	return h
}

func (h *supervisorHarness) start() { go func() { h.runErr <- h.sup.Run() }() }

func (h *supervisorHarness) stop(t *testing.T) {
	t.Helper()
	h.sup.Stop()
	if err := <-h.runErr; err != nil {
		t.Fatalf("Run returned %v after Stop", err)
	}
}

func (h *supervisorHarness) wantUpdate(t *testing.T, serial Serial) {
	t.Helper()
	select {
	case s := <-h.updates:
		if s != serial {
			t.Fatalf("sync serial = %d, want %d", s, serial)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no sync at serial %d", serial)
	}
}

func (h *supervisorHarness) wantDelta(t *testing.T, ann, wd []rpki.VRP) delta {
	t.Helper()
	select {
	case d := <-h.deltas:
		if !sameVRPs(d.ann, ann) || !sameVRPs(d.wd, wd) {
			t.Fatalf("delta = +%v -%v, want +%v -%v", d.ann, d.wd, ann, wd)
		}
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("no delta delivered")
		return delta{}
	}
}

func (h *supervisorHarness) wantNoDelta(t *testing.T) {
	t.Helper()
	select {
	case d := <-h.deltas:
		t.Fatalf("unexpected delta +%v -%v", d.ann, d.wd)
	default:
	}
}

// skipTimer asserts the next armed timer's duration without firing it (the
// refresh timer, left pending when the connection dies).
func (h *supervisorHarness) skipTimer(t *testing.T, d time.Duration) {
	t.Helper()
	timer := h.fc.nextTimer(t)
	if timer.d != d {
		t.Fatalf("armed timer = %v, want %v", timer.d, d)
	}
}

// fireTimer asserts and fires the next armed timer (the redial backoff).
func (h *supervisorHarness) fireTimer(t *testing.T, d time.Duration) {
	t.Helper()
	timer := h.fc.nextTimer(t)
	if timer.d != d {
		t.Fatalf("armed timer = %v, want %v", timer.d, d)
	}
	h.fc.fire(timer)
}

// answerFull serves a Reset Query response: Cache Response, the table, EOD.
func answerFull(conn net.Conn, session uint16, serial Serial, table []rpki.VRP) error {
	if err := WritePDU(conn, Version1, &CacheResponse{SessionID: session}); err != nil {
		return err
	}
	for _, v := range table {
		if err := WritePDU(conn, Version1, &Prefix{Flags: FlagAnnounce, VRP: v}); err != nil {
			return err
		}
	}
	return WritePDU(conn, Version1, &EndOfData{
		SessionID: session, Serial: serial, Refresh: 1800, Retry: 300, Expire: 3600,
	})
}

// TestSupervisorSerialResumeAndResetFallback drives three client
// generations over scripted connections: a fresh full sync, a reconnect
// resumed purely by Serial Query carrying the cached session and serial,
// and a reconnect against a restarted cache (new session ID) that falls
// back to Reset Query — with the subscriber delta computed against the
// carried table, so a delta-fed index resyncs without a rebuild.
func TestSupervisorSerialResumeAndResetFallback(t *testing.T) {
	v1 := rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 1}
	v2 := rpki.VRP{Prefix: mp("192.0.2.0/24"), MaxLength: 24, AS: 2}
	v3 := rpki.VRP{Prefix: mp("198.51.100.0/24"), MaxLength: 24, AS: 3}
	v4 := rpki.VRP{Prefix: mp("2001:db8::/32"), MaxLength: 48, AS: 64496}
	const sessA, sessB = 0x1111, 0x2222

	h := newSupervisorHarness(t)
	scriptErr := make(chan error, 3)
	// Each generation is counted, and its sync reported healthy, before
	// its first delta reaches a subscriber.
	countedAtDelivery := func(d delta, want SupervisorStats) {
		t.Helper()
		if d.stats != want || !d.healthy {
			t.Fatalf("at delivery: stats = %+v, healthy = %v; want %+v, healthy", d.stats, d.healthy, want)
		}
	}

	// Generation 1: fresh start, full sync of {v1, v2} at serial 7.
	cli1, srv1 := net.Pipe()
	h.conns <- cli1
	go func() {
		scriptErr <- func() error {
			pdu, _, err := ReadPDU(srv1)
			if err != nil {
				return err
			}
			if _, ok := pdu.(*ResetQuery); !ok {
				return errors.New("gen1: expected Reset Query")
			}
			return answerFull(srv1, sessA, 7, []rpki.VRP{v1, v2})
		}()
	}()
	h.start()
	h.wantUpdate(t, 7)
	countedAtDelivery(h.wantDelta(t, []rpki.VRP{v1, v2}, nil), SupervisorStats{Dials: 1, Generations: 1})

	// Kill the connection while idle; the pending refresh timer is
	// abandoned and the supervisor arms its backoff instead.
	srv1.Close()
	h.skipTimer(t, 1800*time.Second)

	// Generation 2: the supervisor must resume with a Serial Query carrying
	// session A and serial 7; the cache serves the delta to serial 8.
	cli2, srv2 := net.Pipe()
	h.conns <- cli2
	go func() {
		scriptErr <- func() error {
			pdu, _, err := ReadPDU(srv2)
			if err != nil {
				return err
			}
			q, ok := pdu.(*SerialQuery)
			if !ok || q.SessionID != sessA || q.Serial != 7 {
				return errors.New("gen2: expected Serial Query for session A serial 7")
			}
			if err := WritePDU(srv2, Version1, &CacheResponse{SessionID: sessA}); err != nil {
				return err
			}
			if err := WritePDU(srv2, Version1, &Prefix{Flags: FlagAnnounce, VRP: v3}); err != nil {
				return err
			}
			return WritePDU(srv2, Version1, &EndOfData{
				SessionID: sessA, Serial: 8, Refresh: 1800, Retry: 300, Expire: 3600,
			})
		}()
	}()
	h.fireTimer(t, 5*time.Second) // backoff = min 10s, jitter 0 -> half
	h.wantUpdate(t, 8)
	countedAtDelivery(h.wantDelta(t, []rpki.VRP{v3}, nil),
		SupervisorStats{Dials: 2, Generations: 2, SerialResumes: 1})

	srv2.Close()
	h.skipTimer(t, 1800*time.Second)

	// Generation 3: the cache restarted with session B and table {v1, v4}.
	// The carried Serial Query is answered with Cache Reset; the client
	// falls back to Reset Query, and the delta delivered to subscribers is
	// the diff against the carried {v1, v2, v3} — not a blind full table.
	cli3, srv3 := net.Pipe()
	h.conns <- cli3
	go func() {
		scriptErr <- func() error {
			pdu, _, err := ReadPDU(srv3)
			if err != nil {
				return err
			}
			q, ok := pdu.(*SerialQuery)
			if !ok || q.SessionID != sessA || q.Serial != 8 {
				return errors.New("gen3: expected Serial Query for session A serial 8")
			}
			if err := WritePDU(srv3, Version1, &CacheReset{}); err != nil {
				return err
			}
			pdu, _, err = ReadPDU(srv3)
			if err != nil {
				return err
			}
			if _, ok := pdu.(*ResetQuery); !ok {
				return errors.New("gen3: expected Reset Query fallback")
			}
			return answerFull(srv3, sessB, 2, []rpki.VRP{v1, v4})
		}()
	}()
	h.fireTimer(t, 5*time.Second)
	h.wantUpdate(t, 2)
	countedAtDelivery(h.wantDelta(t, []rpki.VRP{v4}, []rpki.VRP{v2, v3}),
		SupervisorStats{Dials: 3, Generations: 3, SerialResumes: 1, ResetFallbacks: 1})

	for i := 0; i < 3; i++ {
		if err := <-scriptErr; err != nil {
			t.Fatalf("scripted cache: %v", err)
		}
	}
	st := h.sup.Stats()
	if st.Generations != 3 || st.SerialResumes != 1 || st.ResetFallbacks != 1 || st.Rebuilds != 0 {
		t.Fatalf("stats = %+v, want 3 generations, 1 serial resume, 1 reset fallback, 0 rebuilds", st)
	}
	if !h.sup.Healthy() {
		t.Fatal("supervisor unhealthy after successful resync")
	}
	h.stop(t)
}

// TestSupervisorExpireAcrossFlappingGenerations pins the Expire clock to
// the last *successful sync*: a cache that accepts every redial but never
// completes a sync cannot keep stale data looking healthy, and once the
// window passes the carried state is dropped — the next successful sync
// reaches subscribers as a reset (rebuild), not a delta.
func TestSupervisorExpireAcrossFlappingGenerations(t *testing.T) {
	v1 := rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 1}
	v5 := rpki.VRP{Prefix: mp("203.0.113.0/24"), MaxLength: 24, AS: 5}
	const sessA, sessC = 0x1111, 0x3333

	h := newSupervisorHarness(t)
	// Constant 600s backoff (jitter 0 -> 300s delay) to step the clock.
	h.sup.BackoffMin = 600 * time.Second
	h.sup.BackoffMax = 600 * time.Second
	scriptErr := make(chan error, 1)

	// Generation 1: full sync of {v1} at serial 7, Expire 3600s.
	cli1, srv1 := net.Pipe()
	h.conns <- cli1
	go func() {
		scriptErr <- func() error {
			pdu, _, err := ReadPDU(srv1)
			if err != nil {
				return err
			}
			if _, ok := pdu.(*ResetQuery); !ok {
				return errors.New("gen1: expected Reset Query")
			}
			return answerFull(srv1, sessA, 7, []rpki.VRP{v1})
		}()
	}()
	h.start()
	h.wantUpdate(t, 7)
	h.wantDelta(t, []rpki.VRP{v1}, nil)
	if err := <-scriptErr; err != nil {
		t.Fatalf("scripted cache: %v", err)
	}

	srv1.Close()
	h.skipTimer(t, 1800*time.Second)

	// The cache now flaps: every dial is accepted and immediately severed,
	// so no sync ever completes. Each redial cycle advances the clock by
	// 300s; the supervisor must stay healthy for the remainder of the
	// 3600s window measured from the gen-1 sync — not from the latest
	// reconnect — and then flip unhealthy exactly when it closes.
	for cycle := 1; ; cycle++ {
		if cycle > 12 {
			t.Fatal("supervisor still healthy after the Expire window passed")
		}
		cli, srv := net.Pipe()
		h.conns <- cli
		srv.Close() // sever before the client can sync
		h.fireTimer(t, 300*time.Second)
		// After this fire the clock is at 300*cycle seconds past the sync.
		if elapsed := time.Duration(cycle) * 300 * time.Second; elapsed < 3600*time.Second {
			if !h.sup.Healthy() {
				t.Fatalf("flapping cache aged the data out early: unhealthy %v after last sync", elapsed)
			}
		} else {
			if h.sup.Healthy() {
				t.Fatalf("still healthy %v after last sync", elapsed)
			}
			break
		}
	}

	// The next generation dials a recovered cache (new session, new table).
	// The carried state expired, so the client starts fresh with a Reset
	// Query and subscribers are rebuilt from the full table, with no delta.
	cli2, srv2 := net.Pipe()
	h.conns <- cli2
	go func() {
		scriptErr <- func() error {
			pdu, _, err := ReadPDU(srv2)
			if err != nil {
				return err
			}
			if _, ok := pdu.(*ResetQuery); !ok {
				return errors.New("recovery: expected Reset Query from a reset-after-expiry client")
			}
			return answerFull(srv2, sessC, 1, []rpki.VRP{v1, v5})
		}()
	}()
	h.fireTimer(t, 300*time.Second)
	h.wantUpdate(t, 1)
	select {
	case table := <-h.resets:
		if !sameVRPs(table, []rpki.VRP{v1, v5}) {
			t.Fatalf("reset table = %v, want {v1, v5}", table)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reset delivered after expiry")
	}
	h.wantNoDelta(t)
	if err := <-scriptErr; err != nil {
		t.Fatalf("scripted cache: %v", err)
	}
	if !h.sup.Healthy() {
		t.Fatal("supervisor unhealthy after post-expiry resync")
	}
	st := h.sup.Stats()
	if st.Rebuilds != 1 || st.SerialResumes != 0 || st.ResetFallbacks != 0 {
		t.Fatalf("stats = %+v, want exactly 1 rebuild and no carried-state resumes", st)
	}
	h.stop(t)
}

// TestClientSessionChangeWithoutCacheReset pins the resumption guard in the
// exchange state machine: a restarted cache should answer a carried Serial
// Query with Cache Reset, but one that instead replies with its *new*
// session ID and a delta must not have that delta applied onto the carried
// table (RFC 8210 §5.5 — a session change invalidates all held data). The
// client consumes the foreign update to keep the stream framed, resolves
// the exchange as a cache reset, and Sync falls back to a full Reset Query.
func TestClientSessionChangeWithoutCacheReset(t *testing.T) {
	v1 := rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 1}
	v2 := rpki.VRP{Prefix: mp("192.0.2.0/24"), MaxLength: 24, AS: 2}
	v3 := rpki.VRP{Prefix: mp("198.51.100.0/24"), MaxLength: 24, AS: 3}
	const oldSess, newSess = 0xaaaa, 0xbbbb

	cli, srv := net.Pipe()
	defer srv.Close()
	c := NewClientResume(cli, &SessionState{SessionID: oldSess, Serial: 7, VRPs: []rpki.VRP{v1}})
	defer c.Close()

	scriptErr := make(chan error, 1)
	go func() {
		scriptErr <- func() error {
			pdu, _, err := ReadPDU(srv)
			if err != nil {
				return err
			}
			if q, ok := pdu.(*SerialQuery); !ok || q.SessionID != oldSess || q.Serial != 7 {
				return errors.New("expected carried Serial Query")
			}
			// Misbehaving restart: a delta under the new session instead of
			// Cache Reset. The client must swallow it whole.
			if err := WritePDU(srv, Version1, &CacheResponse{SessionID: newSess}); err != nil {
				return err
			}
			if err := WritePDU(srv, Version1, &Prefix{Flags: FlagAnnounce, VRP: v2}); err != nil {
				return err
			}
			if err := WritePDU(srv, Version1, &EndOfData{SessionID: newSess, Serial: 3}); err != nil {
				return err
			}
			// The fallback full resync under the new session.
			pdu, _, err = ReadPDU(srv)
			if err != nil {
				return err
			}
			if _, ok := pdu.(*ResetQuery); !ok {
				return errors.New("expected Reset Query fallback after session change")
			}
			return answerFull(srv, newSess, 3, []rpki.VRP{v2, v3})
		}()
	}()

	serial, err := c.Sync()
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := <-scriptErr; err != nil {
		t.Fatalf("scripted cache: %v", err)
	}
	if serial != 3 || c.SessionID() != newSess {
		t.Fatalf("synced to serial %d session %#x, want 3/%#x", serial, c.SessionID(), newSess)
	}
	// The table is the full resync — the foreign delta was not merged onto
	// the carried table (v1 must be gone, and only one full sync ran).
	if !c.Set().Equal(rpki.NewSet([]rpki.VRP{v2, v3})) {
		t.Fatalf("table = %v, want {v2, v3}", c.Set().VRPs())
	}
	if c.FullSyncs() != 1 {
		t.Fatalf("FullSyncs = %d, want 1", c.FullSyncs())
	}
}
