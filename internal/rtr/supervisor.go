package rtr

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/rpki"
)

// Supervisor completes the router-side deployment story: it owns the dial
// function, a persistent subscriber list, and the session state, and drives
// the full RFC 8210 lifecycle across connections. A Client is single-shot
// by design — when its dispatch loop dies the session is over — so the
// Supervisor redials with exponential backoff plus jitter, constructs a
// fresh Client seeded with the dead generation's SessionState, re-registers
// every subscriber, and resumes with a Serial Query carrying the cached
// session ID and serial. When the cache cannot serve the incremental stream
// (it restarted with a new session ID, or evicted the delta chain), the
// client falls back to a Reset Query and the subscriber delta is computed
// against the carried table — a delta-fed rov.LiveIndex resyncs in O(diff)
// either way. Only when the carried state itself is unusable (the Expire
// window passed during the outage, so §6 forbids diffing against it) do
// reset subscribers rebuild from the full post-reconnect table.
//
// Within a generation the Supervisor runs the RFC 8210 §6 timers itself:
// sync, then wait for Serial Notify or the Refresh interval (whichever
// first), falling back to the Retry interval on errors. After every
// successful sync it adopts the Refresh/Retry/Expire values the cache
// advertised in its version-1 End of Data (see Client.Timers), as §6
// prescribes; version-0 caches advertise none, so the configured values
// stay in force.
//
// Health follows the paper's deployment assumption — a router continuously
// validated against its cache: Healthy measures the Expire window from the
// last *successful sync*, carried across client generations, so a cache
// that flaps every few minutes cannot keep stale data looking fresh by
// resetting the clock at each reconnect. A generation's first sync is
// counted in Stats and Healthy before any subscriber receives its data.
type Supervisor struct {
	// Dial establishes a connection to the cache; it is called once per
	// client generation. Required.
	Dial func() (net.Conn, error)
	// Version is the protocol version for each new client.
	Version byte
	// OnUpdate, when set, is invoked after every successful sync with the
	// new serial, on the supervisor goroutine.
	OnUpdate func(serial Serial)
	// OnDown, when set, is invoked on the supervisor goroutine each time a
	// client generation ends or a dial fails, with the error that ended it.
	// By the time it fires the connection is torn down and the session
	// state carried; the supervisor is about to back off and redial. A
	// multi-cache coordinator (MultiSupervisor) uses it to fail over.
	OnDown func(err error)
	// Refresh/Retry/Expire are fallback timers until the cache advertises
	// its own in a version-1 End of Data; adopted values are carried across
	// generations. Read or set them only before Run or after Stop; while
	// running, read CurrentTimers.
	Refresh, Retry, Expire time.Duration
	// BackoffMin seeds the redial backoff; each failed generation doubles
	// it up to BackoffMax. A zero BackoffMax caps at the current Retry
	// interval — the cadence RFC 8210 prescribes for an unreachable cache —
	// and never beyond the Expire window. The backoff resets to BackoffMin
	// after every successful sync.
	BackoffMin, BackoffMax time.Duration
	// Logf, when set, receives lifecycle diagnostics (redials, fallbacks).
	Logf func(format string, args ...interface{})

	mu    sync.Mutex
	subs  []func(announced, withdrawn []rpki.VRP)
	rsubs []func(table []rpki.VRP)
	// state is the session carried across generations; nil means the next
	// generation starts fresh (first connect, or the data expired).
	state *SessionState
	// lastSync/synced are the Expire clock, carried across generations and
	// surfaced by Healthy.
	lastSync time.Time
	synced   bool
	// delivered records that some subscriber has received data; dropping
	// carried state after that point marks a discontinuity, and the next
	// successful sync is delivered as a reset instead of a delta.
	delivered     bool
	discontinuity bool
	cur           *Client // current generation; nil between connections
	stopped       bool
	stopCh        chan struct{}
	doneCh        chan struct{}
	stats         SupervisorStats

	// nowFn/afterFn/jitterFn are the supervisor's clock and jitter source,
	// overridable by tests; nil means time.Now / time.After / math/rand.
	nowFn    func() time.Time
	afterFn  func(time.Duration) <-chan time.Time
	jitterFn func() float64
}

// SupervisorStats counts lifecycle events; read a snapshot with Stats.
type SupervisorStats struct {
	// Dials is the number of connection attempts; DialFailures of them
	// returned an error before a client was even constructed.
	Dials        int
	DialFailures int
	// Generations counts clients that completed at least one sync.
	Generations int
	// SerialResumes counts generations whose first sync resumed the carried
	// session purely by Serial Query; ResetFallbacks counts generations
	// that carried state but were forced through a full Reset Query (cache
	// restarted or evicted the delta chain) — still delivered to
	// subscribers as a delta against the carried table.
	SerialResumes  int
	ResetFallbacks int
	// Rebuilds counts reset deliveries: the carried state was unusable
	// (expired during the outage) and reset subscribers replaced their
	// derived state from the full table.
	Rebuilds int
}

// NewSupervisor returns a supervisor with RFC 8210 default timers and a
// one-second initial backoff. The caller registers subscribers, then Run.
func NewSupervisor(dial func() (net.Conn, error)) *Supervisor {
	return &Supervisor{
		Dial:       dial,
		Version:    Version1,
		Refresh:    3600 * time.Second,
		Retry:      600 * time.Second,
		Expire:     7200 * time.Second,
		BackoffMin: time.Second,
		stopCh:     make(chan struct{}),
		doneCh:     make(chan struct{}),
	}
}

func (s *Supervisor) timeNow() time.Time {
	if s.nowFn != nil {
		return s.nowFn()
	}
	return time.Now()
}

func (s *Supervisor) timerAfter(d time.Duration) <-chan time.Time {
	if s.afterFn != nil {
		return s.afterFn(d)
	}
	return time.After(d)
}

func (s *Supervisor) jitter() float64 {
	if s.jitterFn != nil {
		return s.jitterFn()
	}
	return rand.Float64()
}

func (s *Supervisor) logf(format string, args ...interface{}) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Subscribe registers fn as a delta consumer with the same contract as
// Client.Subscribe — sequential delivery, deltas exact against the local
// table — except that delivery persists across reconnects: the supervisor
// re-registers its relay on every client generation, and because each
// generation is seeded with the previous one's table, the delta stream
// stays continuous through redials, session changes, and Reset fallbacks.
// A consumer that derives state from deltas should pair Subscribe with
// OnReset for the one case deltas cannot cover. Register before Run.
func (s *Supervisor) Subscribe(fn func(announced, withdrawn []rpki.VRP)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs = append(s.subs, fn)
}

// OnReset registers fn to receive the full post-sync table whenever the
// supervisor could not carry state across a reconnect — the outage
// outlasted the Expire window, so the new table cannot be expressed as a
// delta against what subscribers hold. Consumers must replace their derived
// state (rov.LiveIndex.ResetTo); the matching delta delivery is suppressed.
// Delta-only consumers (counters, logs) may skip this. Register before Run.
func (s *Supervisor) OnReset(fn func(table []rpki.VRP)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rsubs = append(s.rsubs, fn)
}

// Stats returns a snapshot of the lifecycle counters.
func (s *Supervisor) Stats() SupervisorStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Healthy reports whether a sync succeeded within the Expire window — the
// window is measured from the last successful sync on any generation, never
// from a (re)connect, so it keeps shrinking through an outage no matter how
// often the supervisor redials. When false, RFC 8210 §6 says the router
// must stop using the data. A failed sync alone does not flip it: per §6
// the data remains usable until the window passes.
func (s *Supervisor) Healthy() bool {
	now := s.timeNow()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.synced && now.Sub(s.lastSync) < s.Expire
}

// CurrentTimers returns the refresh, retry, and expire intervals currently
// in force: the configured fallbacks, overwritten by whatever the cache
// advertised in its most recent version-1 End of Data.
func (s *Supervisor) CurrentTimers() (refresh, retry, expire time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Refresh, s.Retry, s.Expire
}

// Run drives the reconnect loop until Stop: dial, run a client generation
// to death, carry its state, back off, redial. It never gives up on its
// own — an unreachable cache surfaces as Healthy() == false once the
// Expire window passes, while Run keeps probing — and returns nil when
// stopped, or an error only for a misconfiguration (nil Dial).
func (s *Supervisor) Run() error {
	defer close(s.doneCh)
	if s.Dial == nil {
		return errors.New("rtr: Supervisor.Dial is nil")
	}
	backoff := s.BackoffMin
	if backoff <= 0 {
		backoff = time.Second
	}
	for {
		if s.isStopped() {
			return nil
		}
		synced, err := s.generation()
		if s.isStopped() {
			return nil
		}
		if s.OnDown != nil {
			s.OnDown(err)
		}
		if synced {
			backoff = s.BackoffMin
			if backoff <= 0 {
				backoff = time.Second
			}
		}
		// Jittered sleep in [backoff/2, backoff): half deterministic, half
		// random, so a cache restart does not resynchronize its routers
		// into a reconnect stampede.
		half := backoff / 2
		delay := half + time.Duration(s.jitter()*float64(backoff-half))
		s.logf("rtr supervisor: connection lost (%v); redialing in %v", err, delay)
		select {
		case <-s.stopCh:
			return nil
		case <-s.timerAfter(delay):
		}
		if limit := s.backoffCap(); backoff < limit {
			backoff *= 2
			if backoff > limit {
				backoff = limit
			}
		}
	}
}

// backoffCap bounds the redial backoff: BackoffMax when set, otherwise the
// current Retry interval, and never beyond the Expire window.
func (s *Supervisor) backoffCap() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	limit := s.BackoffMax
	if limit <= 0 {
		limit = s.Retry
	}
	if s.Expire > 0 && limit > s.Expire {
		limit = s.Expire
	}
	if limit < s.BackoffMin {
		limit = s.BackoffMin
	}
	return limit
}

// generation runs one client lifetime: dial, seed, poll until the
// connection dies. It reports whether any sync succeeded (resets the
// backoff) and the error that ended the generation.
func (s *Supervisor) generation() (syncedAny bool, err error) {
	s.mu.Lock()
	// Drop carried state once the Expire window has passed: §6 forbids
	// using the data, and the cache's table may have drifted arbitrarily —
	// the next successful sync is delivered as a reset, not a delta.
	// (timeNow only reads nowFn, so calling it under mu is safe.)
	if s.state != nil && s.synced && s.timeNow().Sub(s.lastSync) >= s.Expire {
		s.logf("rtr supervisor: carried state expired (last sync %v ago); next sync will reset subscribers",
			s.timeNow().Sub(s.lastSync))
		s.state = nil
		if s.delivered {
			s.discontinuity = true
		}
	}
	st := s.state
	disc := s.discontinuity
	s.mu.Unlock()

	conn, err := s.Dial()
	s.mu.Lock()
	s.stats.Dials++
	if err != nil {
		s.stats.DialFailures++
		s.mu.Unlock()
		return false, err
	}
	s.mu.Unlock()

	c := NewClientResume(conn, st)
	c.Version = s.Version
	g := &generation{sup: s, client: c, resumed: st != nil, discontinuity: disc}
	c.SubscribeUpdates(g.relay)

	s.mu.Lock()
	s.cur = c
	stopped := s.stopped
	s.mu.Unlock()
	if !stopped {
		// Otherwise Stop raced the dial and may have missed s.cur: skip the
		// loop and tear the connection down below.
		err = s.poll(g)
	}

	// The generation is over even if the connection is technically alive
	// (poll can return on protocol-level failures that leave the session
	// framed, e.g. persistent Error Reports): close it, or each redial
	// cycle would leak a connection and its dispatch goroutine.
	c.Close()
	// Drain the relay before the generation ends: OnDown fires next, and a
	// failover coordinator must observe every delta this generation
	// committed (its subscriber-fed mirror current) when it decides where to
	// switch. This also pins generations apart — update delivery never
	// crosses into the next client's stream.
	c.FlushSubscribers()

	// Carry the session into the next generation: the client's table
	// survives its dispatch loop.
	st2 := c.SessionState()
	s.mu.Lock()
	s.cur = nil
	if st2 != nil {
		s.state = st2
	}
	s.mu.Unlock()
	return g.synced, err
}

// poll drives one client through the RFC 8210 §6 timers until the
// connection dies, the data expires, or Stop: sync, then idle until a
// Serial Notify or the Refresh interval (whichever fires first) and sync
// again. A failed sync ends the generation at once when the client is dead
// (every further sync would fail with the same sticky error) or the data
// has expired; otherwise it is retried after the Retry interval. Idling is
// a plain select over the client's channels, the Refresh timer, and Stop:
// poll never touches the socket, so nothing it does can interrupt a read
// mid-PDU. It returns nil when stopped.
func (s *Supervisor) poll(g *generation) error {
	c := g.client
	for {
		serial, err := s.syncWatched(c)
		if err != nil {
			if c.Err() != nil || !s.Healthy() {
				return err
			}
			_, retry, _ := s.CurrentTimers()
			select {
			case <-s.stopCh:
				return nil
			case <-s.timerAfter(retry):
			}
			continue
		}
		// Once the flush returns every subscriber has observed this sync's
		// update, so OnUpdate consumers (failover coordinators reading
		// subscriber-fed mirrors) run after delivery. commit here covers a
		// serial resume with an empty delta, which the relay never sees.
		c.FlushSubscribers()
		g.commit(false)
		if s.OnUpdate != nil {
			s.OnUpdate(serial)
		}
		refresh, _, _ := s.CurrentTimers()
		select {
		case <-s.stopCh:
			return nil
		case <-c.Notify():
		case <-c.Done():
			// The connection died while idle (read error, or the cache
			// killed the session with an idle Error Report).
			return c.Err()
		case <-s.timerAfter(refresh):
		}
	}
}

// syncWatched runs one Sync under a wall-clock watchdog bounded by the
// current Retry interval. A cache that accepts the connection but never
// answers would otherwise wedge the generation forever — the client has no
// read deadline by design (deadlines mid-PDU are the desync bug the
// dispatch loop removed) — so the watchdog closes the connection and the
// exchange fails with the sticky error. Always real time, never the test
// clock: it guards against wall-clock wedges, not protocol state.
func (s *Supervisor) syncWatched(c *Client) (Serial, error) {
	if _, retry, _ := s.CurrentTimers(); retry > 0 {
		watchdog := time.AfterFunc(retry, func() { c.Close() })
		defer watchdog.Stop()
	}
	return c.Sync()
}

// generation is the per-client glue: the relay registered as the client's
// update subscriber, and the first-sync state it shares with poll. relay
// runs on the client's drainer goroutine, poll on the supervisor goroutine;
// poll flushes the client's subscribers before touching that state, so the
// two never overlap.
type generation struct {
	sup    *Supervisor
	client *Client
	// resumed records that this client was seeded with carried state;
	// discontinuity that subscribers hold a table this client cannot diff
	// against (its first sync is delivered as a reset).
	resumed       bool
	discontinuity bool
	// synced records that commit has counted this generation.
	synced bool
}

// relay forwards a client update to the supervisor's subscribers after
// commit has recorded it, so Stats and Healthy already reflect a sync when
// its data reaches any subscriber. The first update of a discontinuous
// generation goes to the reset consumers instead: the client was seeded
// empty, so that update announces the whole table. (The client delivers
// full syncs even when their delta is empty, so a discontinuous resync to
// an empty table still resets.)
func (g *generation) relay(u Update) {
	if first := g.commit(u.Full); first && g.discontinuity {
		g.sup.deliverReset(u.Announced)
		return
	}
	if len(u.Announced) > 0 || len(u.Withdrawn) > 0 {
		g.sup.deliverDelta(u.Announced, u.Withdrawn)
	}
}

// commit records a committed sync in the supervisor's state: it adopts the
// cache's advertised timers (ignoring zero, unadvertised values) and
// advances the Expire clock. The generation's first call also counts the
// generation and how it rejoined the cache: a serial resume, or a Reset
// fallback when full. It reports whether this was that first call.
func (g *generation) commit(full bool) (first bool) {
	s := g.sup
	refresh, retry, expire, ok := g.client.Timers()
	now := s.timeNow()
	s.mu.Lock()
	defer s.mu.Unlock()
	if ok {
		if refresh > 0 {
			s.Refresh = refresh
		}
		if retry > 0 {
			s.Retry = retry
		}
		if expire > 0 {
			s.Expire = expire
		}
	}
	s.lastSync, s.synced = now, true
	if g.synced {
		return false
	}
	g.synced = true
	s.stats.Generations++
	if g.resumed {
		if full {
			s.stats.ResetFallbacks++
		} else {
			s.stats.SerialResumes++
		}
	}
	return true
}

// deliverDelta fans a delta out to the Subscribe consumers, sequentially in
// registration order, on the client relay's drainer goroutine.
func (s *Supervisor) deliverDelta(announced, withdrawn []rpki.VRP) {
	s.mu.Lock()
	subs := make([]func(announced, withdrawn []rpki.VRP), len(s.subs))
	copy(subs, s.subs)
	s.delivered = true
	s.mu.Unlock()
	for _, fn := range subs {
		fn(announced, withdrawn)
	}
}

// deliverReset fans the full table out to the OnReset consumers and clears
// the discontinuity: from here on, deltas are continuous again.
func (s *Supervisor) deliverReset(table []rpki.VRP) {
	s.mu.Lock()
	rsubs := make([]func(table []rpki.VRP), len(s.rsubs))
	copy(rsubs, s.rsubs)
	s.delivered = true
	s.discontinuity = false
	s.stats.Rebuilds++
	s.mu.Unlock()
	s.logf("rtr supervisor: carried state unusable; resetting %d subscribers to a %d-VRP table", len(rsubs), len(table))
	for _, fn := range rsubs {
		fn(table)
	}
}

// Stop terminates Run, tears down the current client generation, and waits
// for the supervisor goroutine to exit.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		<-s.doneCh
		return
	}
	s.stopped = true
	close(s.stopCh)
	cur := s.cur
	s.mu.Unlock()
	if cur != nil {
		// Closing the connection unblocks an in-flight Sync; an idle poll
		// returns on stopCh.
		cur.Close()
	}
	<-s.doneCh
}

func (s *Supervisor) isStopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopped
}
