package rtr

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/rov"
	"repro/internal/rpki"
)

// addVRPs returns a fresh set holding base plus the extra VRPs.
func addVRPs(base *rpki.Set, extra ...rpki.VRP) *rpki.Set {
	vrps := append([]rpki.VRP(nil), base.VRPs()...)
	vrps = append(vrps, extra...)
	return rpki.NewSet(vrps)
}

// TestMultiSupervisorFailoverFailback is the end-to-end cache-set proof
// against real servers: a primary and a (slightly divergent) secondary
// cache, the primary killed mid-run, and later restarted with a newer
// table. The MultiSupervisor must fail over to the secondary and fail back
// to the primary, and every one of those switches must reach the
// subscriber as a structural delta — the OnReset path must never fire,
// because no outage exceeds the Expire window. Run under -race by make
// race.
func TestMultiSupervisorFailoverFailback(t *testing.T) {
	tableP := testVRPs()
	// The secondary validated a moment later: one extra ROA. The failover
	// delta must announce exactly that difference.
	extraS := rpki.VRP{Prefix: mp("203.0.113.0/24"), MaxLength: 24, AS: 64501}
	tableS := addVRPs(tableP, extraS)

	srvP := NewServer(tableP)
	lp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrP := lp.Addr().String()
	go srvP.Serve(lp)

	srvS := NewServer(tableS)
	ls, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrS := ls.Addr().String()
	go srvS.Serve(ls)
	defer srvS.Close()

	live := rov.NewLiveIndex(rpki.NewSet(nil))
	var mu sync.Mutex
	resets := 0
	m := NewMultiSupervisor(
		Upstream{Name: "primary", Dial: func() (net.Conn, error) { return net.Dial("tcp", addrP) }},
		Upstream{Name: "secondary", Dial: func() (net.Conn, error) { return net.Dial("tcp", addrS) }},
	)
	m.BackoffMin = 2 * time.Millisecond
	m.BackoffMax = 20 * time.Millisecond
	m.Subscribe(live.Apply)
	m.OnReset(func(table []rpki.VRP) {
		mu.Lock()
		resets++
		mu.Unlock()
		live.ResetTo(table)
	})
	runErr := make(chan error, 1)
	go func() { runErr <- m.Run() }()
	defer func() {
		m.Stop()
		if err := <-runErr; err != nil {
			t.Errorf("Run returned %v after Stop", err)
		}
	}()

	// Startup: the preferred upstream serves, whatever order the two
	// supervisors happened to sync in, and the secondary has synced too.
	waitFor(t, func() bool {
		return m.Active() == 0 && liveTable(live).Equal(tableP) && m.Stats().Upstreams[1].Up
	})
	if !m.Healthy() {
		t.Fatal("unhealthy after initial sync")
	}
	base := m.Stats()
	if !base.Upstreams[0].Up || !base.Upstreams[1].Up {
		t.Fatalf("both upstreams should be up after startup: %+v", base)
	}

	// Phase 1: kill the primary. Service must move to the secondary, and
	// the subscriber table must converge to the secondary's view by delta.
	sess := srvP.SessionID()
	srvP.Close()
	waitFor(t, func() bool { return m.Active() == 1 && liveTable(live).Equal(tableS) })
	st := m.Stats()
	if st.Upstreams[0].Failovers < base.Upstreams[0].Failovers+1 {
		t.Fatalf("failover not counted: %+v", st.Upstreams[0])
	}
	if st.Switches < base.Switches+1 {
		t.Fatalf("switch not counted: %d -> %d", base.Switches, st.Switches)
	}
	if st.Rebuilds != 0 {
		t.Fatalf("failover must be a delta, not a rebuild: %+v", st)
	}

	// Phase 2: the secondary publishes an update while it serves; the
	// steady-state relay must keep flowing from the new active upstream.
	extraS2 := rpki.VRP{Prefix: mp("10.64.0.0/10"), MaxLength: 12, AS: 64502}
	tableS2 := addVRPs(tableS, extraS2)
	srvS.UpdateSet(tableS2)
	waitFor(t, func() bool { return liveTable(live).Equal(tableS2) })

	// Phase 3: the primary returns with a fresher table than it died with.
	// The supervisor must fail back to it, again by delta: the subscriber
	// goes from the secondary's table to the new primary table without a
	// reset, no matter that the two sides of that diff came from different
	// caches.
	tableP2 := addVRPs(tableP, rpki.VRP{Prefix: mp("192.0.2.0/24"), MaxLength: 24, AS: 64503})
	failbacks := st.Upstreams[0].Failbacks
	srvP2 := NewServer(tableP2)
	srvP2.SetSession(sess+1, 1)
	lp2 := relisten(t, addrP)
	go srvP2.Serve(lp2)
	defer srvP2.Close()

	waitFor(t, func() bool { return m.Active() == 0 && liveTable(live).Equal(tableP2) })
	end := m.Stats()
	if end.Upstreams[0].Failbacks < failbacks+1 {
		t.Fatalf("failback not counted: %+v", end.Upstreams[0])
	}
	if end.Rebuilds != 0 {
		t.Fatalf("failback must be a delta, not a rebuild: %+v", end)
	}
	mu.Lock()
	gotResets := resets
	mu.Unlock()
	if gotResets != 0 {
		t.Fatalf("OnReset fired %d times; every switch should have been a delta", gotResets)
	}
	if !m.Healthy() {
		t.Fatal("unhealthy at end although the active upstream just synced")
	}
	if end.Upstreams[0].Name != "primary" || end.Upstreams[1].Name != "secondary" {
		t.Fatalf("stats lost upstream names: %+v", end)
	}
	if !end.Upstreams[0].Active || end.Upstreams[1].Active {
		t.Fatalf("active flag wrong after failback: %+v", end)
	}
}

// TestMultiSupervisorExpiryRebuild exercises the one path that is allowed
// to rebuild: every cache stays unreachable past the Expire window the
// active cache advertised (1s here), so the carried table is no longer a
// valid diff base. When a cache returns — with a new session and a
// different table — the delivery must go through OnReset, and the
// supervisor must count it as a rebuild. Run under -race by make race.
func TestMultiSupervisorExpiryRebuild(t *testing.T) {
	table1 := testVRPs()
	srv1 := NewServer(table1)
	srv1.Expire = 1 // seconds; the supervisor adopts this advertised window
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr().String()
	go srv1.Serve(l1)
	sess := srv1.SessionID()

	live := rov.NewLiveIndex(rpki.NewSet(nil))
	var mu sync.Mutex
	resets := 0
	m := NewMultiSupervisor(
		Upstream{Name: "only", Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) }},
	)
	m.BackoffMin = 2 * time.Millisecond
	m.BackoffMax = 25 * time.Millisecond
	m.Subscribe(live.Apply)
	m.OnReset(func(table []rpki.VRP) {
		mu.Lock()
		resets++
		mu.Unlock()
		live.ResetTo(table)
	})
	runErr := make(chan error, 1)
	go func() { runErr <- m.Run() }()
	defer func() {
		m.Stop()
		if err := <-runErr; err != nil {
			t.Errorf("Run returned %v after Stop", err)
		}
	}()

	waitFor(t, func() bool { return liveTable(live).Equal(table1) })
	if !m.Healthy() {
		t.Fatal("unhealthy after initial sync")
	}

	// Total outage past the Expire window: health must decay to false
	// before any cache returns.
	srv1.Close()
	waitFor(t, func() bool { return !m.Healthy() })
	if a := m.Active(); a != -1 {
		t.Fatalf("Active() = %d during total outage, want -1", a)
	}

	// The cache returns as a different process: new session, new table.
	table2 := addVRPs(table1, rpki.VRP{Prefix: mp("198.51.100.0/24"), MaxLength: 24, AS: 64504})
	srv2 := NewServer(table2)
	srv2.Expire = 1
	srv2.SetSession(sess+1, 1)
	l2 := relisten(t, addr)
	go srv2.Serve(l2)
	defer srv2.Close()

	waitFor(t, func() bool { return liveTable(live).Equal(table2) })
	st := m.Stats()
	if st.Rebuilds < 1 {
		t.Fatalf("recovery from an expired outage must be a rebuild: %+v", st)
	}
	mu.Lock()
	gotResets := resets
	mu.Unlock()
	if gotResets < 1 {
		t.Fatal("OnReset never fired although the delivered table had expired")
	}
	if st.Upstreams[0].Failovers < 1 || st.Upstreams[0].Failbacks < 1 {
		t.Fatalf("outage and recovery not counted: %+v", st.Upstreams[0])
	}
	if a := m.Active(); a != 0 {
		t.Fatalf("Active() = %d after recovery, want 0", a)
	}
}
