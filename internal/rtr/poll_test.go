package rtr

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rov"
	"repro/internal/rpki"
)

// The tests in this file pin the RFC 8210 §6 polling loop a Supervisor runs
// inside each client generation (Supervisor.poll). Each dials once: over
// net.Pipe with the fake clock, or to a real Server.

// TestPollerRefreshAndRetryFakeClock drives the RFC 8210 state machine over
// a scripted cache with a fake clock: the initial sync adopts the cache's
// End of Data timers; with no Serial Notify ever sent, the Refresh timer
// triggers a sync; that sync fails and the supervisor waits out the Retry
// timer; the retry then succeeds.
func TestPollerRefreshAndRetryFakeClock(t *testing.T) {
	h := newSupervisorHarness(t)
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	h.conns <- cliConn

	const session = 0x1234
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			// 1) Initial sync: the stateless client sends a Reset Query.
			pdu, _, err := ReadPDU(srvConn)
			if err != nil {
				return err
			}
			if _, ok := pdu.(*ResetQuery); !ok {
				return fmt.Errorf("expected Reset Query, got %T", pdu)
			}
			if err := WritePDU(srvConn, Version1, &CacheResponse{SessionID: session}); err != nil {
				return err
			}
			if err := WritePDU(srvConn, Version1, &EndOfData{
				SessionID: session, Serial: 7, Refresh: 1800, Retry: 300, Expire: 3600,
			}); err != nil {
				return err
			}
			// 2) Refresh-triggered sync: fail it with an Error Report.
			pdu, _, err = ReadPDU(srvConn)
			if err != nil {
				return err
			}
			if q, ok := pdu.(*SerialQuery); !ok || q.Serial != 7 {
				return fmt.Errorf("expected Serial Query for 7, got %#v", pdu)
			}
			if err := WritePDU(srvConn, Version1, &ErrorReport{
				Code: ErrInternalError, Text: "transient failure",
			}); err != nil {
				return err
			}
			// 3) Retry sync: succeed with an empty incremental update.
			pdu, _, err = ReadPDU(srvConn)
			if err != nil {
				return err
			}
			if q, ok := pdu.(*SerialQuery); !ok || q.Serial != 7 {
				return fmt.Errorf("expected retry Serial Query for 7, got %#v", pdu)
			}
			if err := WritePDU(srvConn, Version1, &CacheResponse{SessionID: session}); err != nil {
				return err
			}
			return WritePDU(srvConn, Version1, &EndOfData{
				SessionID: session, Serial: 8, Refresh: 1800, Retry: 300, Expire: 3600,
			})
		}()
	}()

	h.start()
	h.wantUpdate(t, 7)
	// Idle: the supervisor must arm the *adopted* Refresh interval, not the
	// configured default.
	timer := h.fc.nextTimer(t)
	if timer.d != 1800*time.Second {
		t.Fatalf("refresh timer = %v, want 30m0s (adopted from End of Data)", timer.d)
	}
	// No Serial Notify arrives; firing Refresh must trigger a sync, which
	// the cache fails.
	h.fc.fire(timer)
	timer = h.fc.nextTimer(t)
	if timer.d != 300*time.Second {
		t.Fatalf("retry timer = %v, want 5m0s (adopted from End of Data)", timer.d)
	}
	// RFC 8210 §6: one failed sync must NOT discard the data — only the
	// Expire window does. 1800s have passed of the 3600s window.
	if !h.sup.Healthy() {
		t.Fatal("failed sync discarded data still inside the Expire window")
	}
	// Firing Retry must trigger another sync, which succeeds.
	h.fc.fire(timer)
	h.wantUpdate(t, 8)
	if !h.sup.Healthy() {
		t.Fatal("supervisor unhealthy after successful retry")
	}
	// Back to idle: Refresh armed again.
	timer = h.fc.nextTimer(t)
	if timer.d != 1800*time.Second {
		t.Fatalf("re-armed refresh timer = %v, want 30m0s", timer.d)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("scripted cache: %v", err)
	}
	h.stop(t)
	if refresh, retry, expire := h.sup.CurrentTimers(); refresh != 1800*time.Second ||
		retry != 300*time.Second || expire != 3600*time.Second {
		t.Fatalf("timers not adopted: refresh=%v retry=%v expire=%v", refresh, retry, expire)
	}
}

// TestSplitNotifyAcrossRefreshBoundary is the regression test for the
// mid-PDU read-deadline desync race the dispatch loop exists to remove. A
// Serial Notify is delivered split in two: its 8-byte header before the
// Refresh timer fires, its 4-byte body after. The old design reacted to the
// Refresh timer by slamming an already-passed read deadline onto the shared
// connection to evict the blocked WaitNotify goroutine — which here would
// kill ReadPDU between header and body, leaving 4 stray bytes on the stream
// to be misparsed as the next PDU's header; RFC 8210 has no resync point, so
// every subsequent exchange would read garbage and this test would fail at
// the serial-query assertions below. The dispatch loop never interrupts a
// read: the half-received PDU simply completes when its body arrives, and
// both the refresh-triggered sync and the one after it find a perfectly
// framed stream.
func TestSplitNotifyAcrossRefreshBoundary(t *testing.T) {
	h := newSupervisorHarness(t)
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	h.conns <- cliConn

	const session = 0x7a11
	h.start()

	expectQuery := func(wantSerial Serial) {
		t.Helper()
		pdu, _, err := ReadPDU(srvConn)
		if err != nil {
			t.Fatalf("reading query: %v", err)
		}
		q, ok := pdu.(*SerialQuery)
		if !ok || q.Serial != wantSerial {
			t.Fatalf("got %T %+v, want Serial Query for %d", pdu, pdu, wantSerial)
		}
	}
	answer := func(serial Serial) {
		t.Helper()
		if err := WritePDU(srvConn, Version1, &CacheResponse{SessionID: session}); err != nil {
			t.Fatal(err)
		}
		if err := WritePDU(srvConn, Version1, &EndOfData{
			SessionID: session, Serial: serial, Refresh: 1800, Retry: 300, Expire: 7200,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Initial sync: the stateless client sends a Reset Query.
	pdu, _, err := ReadPDU(srvConn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pdu.(*ResetQuery); !ok {
		t.Fatalf("expected Reset Query, got %T", pdu)
	}
	answer(7)
	h.wantUpdate(t, 7)
	refresh := h.fc.nextTimer(t)
	if refresh.d != 1800*time.Second {
		t.Fatalf("refresh timer = %v, want 30m0s", refresh.d)
	}

	// Deliver only the HEADER of a Serial Notify for serial 8: the dispatch
	// loop is now blocked mid-PDU, exactly where the old design's deadline
	// would cut.
	var notify bytes.Buffer
	if err := WritePDU(&notify, Version1, &SerialNotify{SessionID: session, Serial: 8}); err != nil {
		t.Fatal(err)
	}
	raw := notify.Bytes()
	if _, err := srvConn.Write(raw[:headerLen]); err != nil {
		t.Fatal(err)
	}

	// The Refresh timer fires across the half-received PDU.
	h.fc.fire(refresh)

	// The refresh-triggered Serial Query goes out on the intact write side.
	expectQuery(7)

	// Now the notify's body arrives; the PDU completes in frame, then the
	// cache answers the query. The dispatch loop routes the notify to the
	// notify channel and the response to the waiting sync — nothing parses
	// garbage.
	if _, err := srvConn.Write(raw[headerLen:]); err != nil {
		t.Fatal(err)
	}
	answer(8)
	h.wantUpdate(t, 8)

	// The notify (serial 8) was satisfied by that very sync: the client
	// drops it as stale, so the supervisor goes back to a plain Refresh
	// wait instead of a spurious immediate sync.
	refresh = h.fc.nextTimer(t)
	if refresh.d != 1800*time.Second {
		t.Fatalf("re-armed refresh timer = %v, want 30m0s", refresh.d)
	}

	// One more round proves the stream is still framed after the boundary.
	h.fc.fire(refresh)
	expectQuery(8)
	answer(8)
	h.wantUpdate(t, 8)

	h.stop(t)
}

// TestPollerNotifyVsRefreshRace drives the exact race window the old design
// lost: a cache update (whose Serial Notify is racing toward the client)
// concurrent with the Refresh timer firing. Whatever interleaving the race
// takes, the dispatch loop keeps the stream framed and the supervisor
// converges without ever entering an error path. Run under -race by make
// race.
func TestPollerNotifyVsRefreshRace(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer stop()

	fc := newFakeClock()
	sup := NewSupervisor(func() (net.Conn, error) { return net.Dial("tcp", addr) })
	sup.nowFn = fc.Now
	sup.afterFn = fc.After
	live := rov.NewLiveIndex(rpki.NewSet(nil))
	sup.Subscribe(live.Apply)
	var updates, downs atomic.Int32
	sup.OnUpdate = func(Serial) { updates.Add(1) }
	sup.OnDown = func(error) { downs.Add(1) }
	runErr := make(chan error, 1)
	go func() { runErr <- sup.Run() }()

	waitFor(t, func() bool { return updates.Load() >= 1 })
	refresh := fc.nextTimer(t)

	next := rpki.NewSet(append(set.VRPs(),
		rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 7}))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); srv.UpdateSet(next) }()
	go func() { defer wg.Done(); fc.fire(refresh) }()
	wg.Wait()

	// The refresh-triggered sync, the notify-triggered one, or both run;
	// either way the subscriber converges and the supervisor stays healthy
	// on its first generation.
	waitFor(t, func() bool { return liveTable(live).Equal(next) })
	if !sup.Healthy() {
		t.Fatal("supervisor unhealthy after notify-vs-refresh race")
	}
	sup.Stop()
	if err := <-runErr; err != nil {
		t.Fatalf("Run returned %v after Stop", err)
	}
	if n := downs.Load(); n != 0 {
		t.Fatalf("notify-vs-refresh race ended %d generations", n)
	}
}

// TestPollerConnFailureWhileIdle pins the Done-channel branch: when the
// connection dies while the supervisor idles between syncs, the generation
// ends at once — OnDown fires, and the next armed timer is the redial
// backoff, not a refresh-timer sync or a Retry wait on a dead client. The
// data stays usable: only the Expire window can age it out.
func TestPollerConnFailureWhileIdle(t *testing.T) {
	h := newSupervisorHarness(t)
	cliConn, srvConn := net.Pipe()
	h.conns <- cliConn
	h.start()

	// Initial sync at serial 7 with adopted timers 1800/300/3600.
	pdu, _, err := ReadPDU(srvConn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pdu.(*ResetQuery); !ok {
		t.Fatalf("expected Reset Query, got %T", pdu)
	}
	if err := answerFull(srvConn, 0x1dfe, 7, nil); err != nil {
		t.Fatal(err)
	}
	h.wantUpdate(t, 7)
	h.skipTimer(t, 1800*time.Second)

	// Sever the connection while the supervisor idles. The 1800s refresh
	// timer above is never fired.
	srvConn.Close()
	select {
	case err := <-h.downs:
		if err == nil {
			t.Fatal("OnDown reported a nil error for a dead connection")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle connection failure did not end the generation")
	}
	// BackoffMin 10s with jitter 0: the redial delay is 5s.
	h.skipTimer(t, 5*time.Second)
	if !h.sup.Healthy() {
		t.Fatal("connection failure discarded data still inside the Expire window")
	}
	h.stop(t)
}

// TestPollerSyncTimeoutUnwedgesSilentCache pins the liveness watchdog: a
// cache that accepts the connection and reads the query but never answers
// would block the exchange forever (the client has no read deadline by
// design), so the watchdog — bounded by the Retry interval — must tear the
// session down and end the generation promptly, the supervisor's cue to
// redial.
func TestPollerSyncTimeoutUnwedgesSilentCache(t *testing.T) {
	h := newSupervisorHarness(t)
	h.sup.Retry = 50 * time.Millisecond
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	h.conns <- cliConn

	// The wedged cache: consume the query, then go silent forever.
	go func() { _, _, _ = ReadPDU(srvConn) }()

	h.start()
	select {
	case err := <-h.downs:
		if err == nil {
			t.Fatal("generation against a silent cache ended with a nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not unwedge the blocked exchange")
	}
	if st := h.sup.Stats(); st.Generations != 0 || h.sup.Healthy() {
		t.Fatalf("silent cache counted as synced: %+v", st)
	}
	h.stop(t)
}

// TestPollerLifecycle runs a supervisor against a real Server: the initial
// sync happens inside Run, a server update arrives by Serial Notify, and
// Stop is idempotent.
func TestPollerLifecycle(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	addr, stop := startServer(t, srv)
	defer stop()

	sup := NewSupervisor(func() (net.Conn, error) { return net.Dial("tcp", addr) })
	live := rov.NewLiveIndex(rpki.NewSet(nil))
	sup.Subscribe(live.Apply)
	var updates atomic.Int32
	sup.OnUpdate = func(Serial) { updates.Add(1) }
	errCh := make(chan error, 1)
	go func() { errCh <- sup.Run() }()

	waitFor(t, func() bool { return updates.Load() >= 1 })
	if !sup.Healthy() {
		t.Fatal("supervisor unhealthy after initial sync")
	}
	if !liveTable(live).Equal(set) {
		t.Fatal("initial sync not delivered")
	}

	// A server update triggers notify -> sync -> OnUpdate.
	next := rpki.NewSet(append(set.VRPs(),
		rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 8, AS: 7}))
	srv.UpdateSet(next)
	waitFor(t, func() bool { return updates.Load() >= 2 })
	if !liveTable(live).Equal(next) {
		t.Fatal("supervisor did not converge")
	}

	sup.Stop()
	if err := <-errCh; err != nil {
		t.Fatalf("Run returned %v after Stop", err)
	}
	// Stop is idempotent.
	sup.Stop()
}

// TestPollerExpiry pins health decay: the supervisor adopts the cache's
// advertised timers after each sync, so the short Expire comes from the
// server's End of Data PDU, and with no further syncs Healthy must turn
// false once that window passes.
func TestPollerExpiry(t *testing.T) {
	set := testVRPs()
	srv := NewServer(set)
	srv.Expire = 1
	addr, stop := startServer(t, srv)
	defer stop()

	sup := NewSupervisor(func() (net.Conn, error) { return net.Dial("tcp", addr) })
	var updates atomic.Int32
	sup.OnUpdate = func(Serial) { updates.Add(1) }
	errCh := make(chan error, 1)
	go func() { errCh <- sup.Run() }()
	waitFor(t, func() bool { return updates.Load() >= 1 })
	if _, _, expire := sup.CurrentTimers(); expire != time.Second {
		t.Fatalf("expire = %v, want the advertised 1s", expire)
	}
	// No further syncs: health must decay past the Expire window.
	waitFor(t, func() bool { return !sup.Healthy() })
	sup.Stop()
	<-errCh
}
