package rtr

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/rov"
	"repro/internal/rpki"
)

// Upstream is one cache in a MultiSupervisor's preference-ordered set.
type Upstream struct {
	// Name labels the upstream in stats and logs (typically its address).
	Name string
	// Dial establishes a connection to this cache; called once per client
	// generation. Required.
	Dial func() (net.Conn, error)
}

// MultiSupervisor is the RFC 8210 §11 cache set: it runs one Supervisor per
// upstream cache, in preference order, and serves its subscribers from the
// first healthy one. When the active cache dies or its data expires, the
// supervisor fails over to the next healthy cache; when a more-preferred
// cache recovers, it fails back.
//
// The defining property is how a switch reaches subscribers. Every upstream
// — active or not — continuously syncs into its own rov.LiveIndex mirror, so
// at the moment of a switch both the table subscribers hold and the new
// cache's table exist as immutable snapshots. The supervisor delivers the
// structural diff between them (rov.Diff): subscribers resync by delta,
// never by rebuild, no matter which cache the delta's two sides came from.
// Steady-state deliveries use the same reconcile path — the delivered
// snapshot and the mirror share an arena lineage, so each costs O(changed).
// Only when every upstream has been unreachable past the Expire window is
// the next table delivered through the OnReset path instead, matching the
// single-Supervisor contract (§6 forbids diffing against expired data).
type MultiSupervisor struct {
	// Version is the protocol version for every upstream's clients.
	Version byte
	// OnUpdate, when set, is invoked after every successful sync of the
	// active upstream with the new serial.
	OnUpdate func(serial Serial)
	// Refresh/Retry/Expire seed each upstream's Supervisor (which then
	// adopts the timers its cache advertises). Set before Run.
	Refresh, Retry, Expire time.Duration
	// BackoffMin/BackoffMax are forwarded to each upstream's Supervisor.
	// Set before Run.
	BackoffMin, BackoffMax time.Duration
	// Logf, when set, receives lifecycle diagnostics (failovers, failbacks,
	// per-upstream supervisor events).
	Logf func(format string, args ...interface{})

	mu sync.Mutex
	// deliverMu serializes subscriber deliveries: reconcile holds it for
	// the whole decide-diff-deliver-record sequence, so concurrent syncs
	// and switches on different upstream goroutines cannot interleave their
	// deltas. Always acquired before mu, never while holding it.
	deliverMu sync.Mutex
	subs      []func(announced, withdrawn []rpki.VRP)
	rsubs     []func(table []rpki.VRP)
	ups       []*upstreamState
	active    int // index into ups, or -1 when no upstream serves
	// everActive distinguishes the first activation (plain startup) from a
	// recovery after a total outage (a failback).
	everActive bool
	// delivered is the table subscribers currently hold; reconcile diffs
	// the active mirror against it. Starts empty: the first delivery is the
	// whole table as one announce delta, the Supervisor contract.
	delivered    *rov.Index
	deliveredAny bool
	// lastSync/synced/curExpire are the subscriber-facing Expire clock:
	// lastSync advances on every reconcile of the active upstream, and a
	// reconcile that finds the clock beyond curExpire delivers through the
	// reset path instead of a delta.
	lastSync  time.Time
	synced    bool
	curExpire time.Duration
	stats     multiCounters
	running   bool
	stopped   bool

	// nowFn is the clock, overridable by tests; nil means time.Now.
	nowFn func() time.Time
}

// upstreamState is one upstream's slot: its continuously-synced mirror and
// its health/stats, guarded by the MultiSupervisor's mu.
type upstreamState struct {
	name   string
	dial   func() (net.Conn, error)
	sup    *Supervisor
	mirror *rov.LiveIndex
	up     bool
	stats  upstreamCounters
}

// upstreamCounters are the per-upstream switch counters.
type upstreamCounters struct {
	Failovers int
	Failbacks int
}

// multiCounters are the supervisor-wide counters.
type multiCounters struct {
	Switches int
	Rebuilds int
}

// UpstreamStats is one upstream's view in MultiSupervisorStats.
type UpstreamStats struct {
	// Name is the configured label; Up whether the last lifecycle event was
	// a successful sync; Active whether this upstream currently serves.
	Name   string
	Up     bool
	Active bool
	// Failovers counts the times this upstream lost the active role because
	// it went down; Failbacks the times service returned to it afterwards
	// (including recovery from a total outage).
	Failovers int
	Failbacks int
	// Supervisor is the upstream's own lifecycle counters.
	Supervisor SupervisorStats
}

// MultiSupervisorStats is a coherent snapshot of the whole cache set.
type MultiSupervisorStats struct {
	// Switches counts deliveries that changed the serving upstream;
	// Rebuilds the switches delivered through the reset path because the
	// carried table had expired.
	Switches  int
	Rebuilds  int
	Upstreams []UpstreamStats
}

// NewMultiSupervisor returns a supervisor over the given caches in
// preference order (most preferred first), with RFC 8210 default timers.
// The caller registers subscribers, then Run.
func NewMultiSupervisor(upstreams ...Upstream) *MultiSupervisor {
	m := &MultiSupervisor{
		Version:    Version1,
		Refresh:    3600 * time.Second,
		Retry:      600 * time.Second,
		Expire:     7200 * time.Second,
		BackoffMin: time.Second,
		active:     -1,
		delivered:  rov.NewIndex(rpki.NewSet(nil)),
	}
	for _, u := range upstreams {
		m.ups = append(m.ups, &upstreamState{name: u.Name, dial: u.Dial})
	}
	return m
}

func (m *MultiSupervisor) timeNow() time.Time {
	if m.nowFn != nil {
		return m.nowFn()
	}
	return time.Now()
}

func (m *MultiSupervisor) logf(format string, args ...interface{}) {
	if m.Logf != nil {
		m.Logf(format, args...)
	}
}

// Subscribe registers fn as a delta consumer: sequential delivery, deltas
// exact against the table delivered so far, continuous across redials,
// session changes, and cache switches. Register before Run.
func (m *MultiSupervisor) Subscribe(fn func(announced, withdrawn []rpki.VRP)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subs = append(m.subs, fn)
}

// OnReset registers fn to receive the full table whenever the delivered
// state could not be carried — every upstream was unreachable past the
// Expire window — with the same contract as Supervisor.OnReset: replace
// derived state; the matching delta is suppressed. Register before Run.
func (m *MultiSupervisor) OnReset(fn func(table []rpki.VRP)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rsubs = append(m.rsubs, fn)
}

// Active returns the index (preference rank) of the upstream currently
// serving subscribers, or -1 when none is healthy.
func (m *MultiSupervisor) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active
}

// Healthy reports whether the delivered table is within the Expire window
// of the active upstream's last sync.
func (m *MultiSupervisor) Healthy() bool {
	now := m.timeNow()
	m.mu.Lock()
	defer m.mu.Unlock()
	expire := m.curExpire
	if expire <= 0 {
		expire = m.Expire
	}
	return m.synced && now.Sub(m.lastSync) < expire
}

// Stats returns a coherent snapshot of the switch counters and every
// upstream's state.
func (m *MultiSupervisor) Stats() MultiSupervisorStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := MultiSupervisorStats{Switches: m.stats.Switches, Rebuilds: m.stats.Rebuilds}
	for i, u := range m.ups {
		us := UpstreamStats{
			Name:      u.name,
			Up:        u.up,
			Active:    i == m.active,
			Failovers: u.stats.Failovers,
			Failbacks: u.stats.Failbacks,
		}
		if u.sup != nil {
			// Supervisor.Stats takes the upstream's own lock; the order
			// m.mu -> sup.mu is safe because every supervisor callback into
			// the MultiSupervisor runs with sup.mu released.
			us.Supervisor = u.sup.Stats()
		}
		out.Upstreams = append(out.Upstreams, us)
	}
	return out
}

// Run starts one Supervisor per upstream and blocks until Stop. Every
// upstream keeps its own reconnect loop alive for the whole run — a
// non-active cache syncs its mirror in the background so a failover to it
// can be computed as a diff. Returns nil when stopped, or the first
// misconfiguration error.
func (m *MultiSupervisor) Run() error {
	m.mu.Lock()
	if len(m.ups) == 0 {
		m.mu.Unlock()
		return errors.New("rtr: MultiSupervisor needs at least one upstream")
	}
	if m.running {
		m.mu.Unlock()
		return errors.New("rtr: MultiSupervisor.Run called twice")
	}
	m.curExpire = m.Expire
	for i, u := range m.ups {
		i, u := i, u
		if u.dial == nil {
			m.mu.Unlock()
			return fmt.Errorf("rtr: upstream %d (%s) has a nil Dial", i, u.name)
		}
		u.mirror = rov.NewLiveIndex(rpki.NewSet(nil))
		sup := NewSupervisor(u.dial)
		sup.Version = m.Version
		sup.Refresh, sup.Retry, sup.Expire = m.Refresh, m.Retry, m.Expire
		sup.BackoffMin, sup.BackoffMax = m.BackoffMin, m.BackoffMax
		sup.nowFn = m.nowFn
		if m.Logf != nil {
			logf, name := m.Logf, u.name
			sup.Logf = func(format string, args ...interface{}) {
				logf("[%s] %s", name, fmt.Sprintf(format, args...))
			}
		}
		// Ordering within one upstream: the Subscribe and OnReset consumers
		// run on the client's drainer goroutine, but the supervisor flushes
		// it before running OnUpdate (and before OnDown at generation end),
		// so they complete before OnUpdate/OnDown fire on the supervisor
		// goroutine — the mirror always holds the synced table by the time
		// a switch can pick it.
		sup.Subscribe(func(announced, withdrawn []rpki.VRP) {
			u.mirror.Apply(announced, withdrawn)
			m.reconcile(i)
		})
		sup.OnReset(func(table []rpki.VRP) {
			u.mirror.ResetTo(table)
			m.reconcile(i)
		})
		sup.OnUpdate = func(serial Serial) { m.onUpstreamSync(i, serial) }
		sup.OnDown = func(err error) { m.onUpstreamDown(i, err) }
		u.sup = sup
	}
	if m.stopped {
		m.mu.Unlock()
		return nil
	}
	m.running = true
	m.mu.Unlock()

	var wg sync.WaitGroup
	errs := make([]error, len(m.ups))
	for i, u := range m.ups {
		i, u := i, u
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = u.sup.Run()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Stop terminates every upstream supervisor and waits for Run to return.
func (m *MultiSupervisor) Stop() {
	m.mu.Lock()
	m.stopped = true
	var sups []*Supervisor
	if m.running {
		for _, u := range m.ups {
			sups = append(sups, u.sup)
		}
	}
	m.mu.Unlock()
	for _, s := range sups {
		s.Stop()
	}
}

// reconcile is the single delivery primitive: if upstream j is the active
// one, diff the table subscribers hold against j's mirror and deliver the
// result. Every path that can change what subscribers should see funnels
// through here — steady-state deltas (the relay), failovers, failbacks,
// recoveries — so no interleaving of upstream events can deliver anything
// but the exact difference. A delta already folded into a switch is simply
// an empty diff when the relay reconciles again.
func (m *MultiSupervisor) reconcile(j int) {
	m.deliverMu.Lock()
	defer m.deliverMu.Unlock()
	m.mu.Lock()
	if m.active != j {
		m.mu.Unlock()
		return
	}
	u := m.ups[j]
	delivered := m.delivered
	subs := make([]func(announced, withdrawn []rpki.VRP), len(m.subs))
	copy(subs, m.subs)
	rsubs := make([]func(table []rpki.VRP), len(m.rsubs))
	copy(rsubs, m.rsubs)
	now := m.timeNow()
	var expire time.Duration
	if u.sup != nil {
		_, _, expire = u.sup.CurrentTimers()
	}
	if expire <= 0 {
		expire = m.Expire
	}
	// Stale means every upstream was out past the Expire window since the
	// last delivery: §6 forbids pretending the delivered table is a valid
	// diff base, so this delivery replaces subscriber state instead.
	stale := m.deliveredAny && m.synced && now.Sub(m.lastSync) >= expire
	m.mu.Unlock()

	cur := u.mirror.Snapshot()
	rebuilt := false
	if stale {
		table := cur.AppendVRPs(nil)
		m.logf("rtr multisupervisor: delivered table expired; resetting %d subscribers to %s's %d-VRP table",
			len(rsubs), u.name, len(table))
		for _, fn := range rsubs {
			fn(table)
		}
		rebuilt = true
	} else {
		announced, withdrawn := rov.Diff(delivered, cur)
		if len(announced) > 0 || len(withdrawn) > 0 {
			for _, fn := range subs {
				fn(announced, withdrawn)
			}
		}
	}

	m.mu.Lock()
	m.delivered = cur
	m.deliveredAny = true
	m.lastSync = now
	m.synced = true
	m.curExpire = expire
	if rebuilt {
		m.stats.Rebuilds++
	}
	m.mu.Unlock()
}

// onUpstreamSync runs after each successful sync of upstream j: mark it up,
// take over from a less-preferred active (failback) or fill a vacant slot,
// and reconcile if j is (now) the active upstream.
func (m *MultiSupervisor) onUpstreamSync(j int, serial Serial) {
	m.mu.Lock()
	u := m.ups[j]
	u.up = true
	prev := m.active
	relevant := prev == j
	if prev == -1 || j < prev {
		if m.everActive {
			// Service returns to j: either j outranks the current active
			// and has recovered, or j ends a total outage.
			u.stats.Failbacks++
			m.stats.Switches++
		}
		m.active = j
		m.everActive = true
		relevant = true
		switch {
		case prev != -1:
			m.logf("rtr multisupervisor: failing back to preferred upstream %s (from %s)", u.name, m.ups[prev].name)
		default:
			m.logf("rtr multisupervisor: serving from upstream %s", u.name)
		}
	}
	m.mu.Unlock()
	if relevant {
		m.reconcile(j)
		if m.OnUpdate != nil {
			m.OnUpdate(serial)
		}
	}
}

// onUpstreamDown runs each time upstream j's generation ends (or its dial
// fails): mark it down and, if it was serving, fail over to the most
// preferred upstream that still is up.
func (m *MultiSupervisor) onUpstreamDown(j int, err error) {
	m.mu.Lock()
	u := m.ups[j]
	u.up = false
	next := -1
	failed := m.active == j
	if failed {
		u.stats.Failovers++
		for i, cand := range m.ups {
			if cand.up {
				next = i
				break
			}
		}
		m.active = next
		if next != -1 {
			m.stats.Switches++
		}
	}
	m.mu.Unlock()
	if !failed {
		return
	}
	if next != -1 {
		m.logf("rtr multisupervisor: upstream %s down (%v); failing over to %s", u.name, err, m.ups[next].name)
		m.reconcile(next)
	} else {
		m.logf("rtr multisupervisor: upstream %s down (%v); no healthy upstream left", u.name, err)
	}
}
