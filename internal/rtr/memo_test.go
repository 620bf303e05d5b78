package rtr

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

// captureConn is a discardConn that keeps what is written to it.
type captureConn struct {
	discardConn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// respond runs one queued response descriptor through the server's write
// path and returns the bytes a router would receive.
func respond(t *testing.T, srv *Server, item outItem) []byte {
	t.Helper()
	cc := &captureConn{}
	c := &conn{c: cc, bw: bufio.NewWriterSize(cc, connBufSize), version: item.version, state: connActive}
	if err := srv.writeItem(c, item); err != nil {
		t.Fatal(err)
	}
	return cc.buf.Bytes()
}

// mixedVRPs builds a mixed IPv4/IPv6 table with several VRPs per prefix, so
// responses exercise both Prefix PDU sizes and the within-prefix order.
func mixedVRPs(rng *rand.Rand, n int) []rpki.VRP {
	vrps := make([]rpki.VRP, 0, n)
	for len(vrps) < n {
		var p prefix.Prefix
		if rng.Intn(3) == 0 {
			p = mp(fmt.Sprintf("2001:db8:%x::/48", rng.Intn(1<<12)))
		} else {
			p = mp(fmt.Sprintf("10.%d.%d.0/24", rng.Intn(64), rng.Intn(256)))
		}
		for k := 1 + rng.Intn(3); k > 0 && len(vrps) < n; k-- {
			vrps = append(vrps, rpki.VRP{Prefix: p, MaxLength: p.Len() + uint8(rng.Intn(8)), AS: rpki.ASN(64496 + rng.Intn(16))})
		}
	}
	return vrps
}

// churnDelta picks a delta against the table: announces of fresh mixed VRPs
// and withdrawals of present ones.
func churnDelta(rng *rand.Rand, table map[rpki.VRP]struct{}, n int) (ann, wd []rpki.VRP) {
	for _, v := range mixedVRPs(rng, n) {
		if _, ok := table[v]; !ok && !slices.Contains(ann, v) {
			ann = append(ann, v)
		}
	}
	for v := range table {
		if len(wd) == n/2 {
			break
		}
		wd = append(wd, v)
	}
	return ann, wd
}

func setOf(table map[rpki.VRP]struct{}) *rpki.Set {
	vrps := make([]rpki.VRP, 0, len(table))
	for v := range table {
		vrps = append(vrps, v)
	}
	return rpki.NewSet(vrps)
}

// naiveDelta is the set difference from old to next, in rov.Diff's
// documented order: canonical prefix order, then (AS, MaxLength).
func naiveDelta(old, next *rpki.Set) (ann, wd []rpki.VRP) {
	minus := func(a, b *rpki.Set) []rpki.VRP {
		in := make(map[rpki.VRP]bool, b.Len())
		for _, v := range b.VRPs() {
			in[v] = true
		}
		var out []rpki.VRP
		for _, v := range a.VRPs() {
			if !in[v] {
				out = append(out, v)
			}
		}
		slices.SortFunc(out, func(x, y rpki.VRP) int {
			if c := x.Prefix.Compare(y.Prefix); c != 0 {
				return c
			}
			if x.AS != y.AS {
				return int(x.AS) - int(y.AS)
			}
			return int(x.MaxLength) - int(y.MaxLength)
		})
		return out
	}
	return minus(next, old), minus(old, next)
}

// referenceResponse renders a response PDU by PDU with WritePDU.
func referenceResponse(t *testing.T, srv *Server, version byte, ann, wd []rpki.VRP) []byte {
	t.Helper()
	var buf bytes.Buffer
	pdus := []PDU{&CacheResponse{SessionID: srv.SessionID()}}
	for _, v := range ann {
		pdus = append(pdus, &Prefix{VRP: v, Flags: FlagAnnounce})
	}
	for _, v := range wd {
		pdus = append(pdus, &Prefix{VRP: v, Flags: FlagWithdraw})
	}
	pdus = append(pdus, srv.endOfData(srv.SessionID(), srv.Serial()))
	for _, pdu := range pdus {
		if err := WritePDU(&buf, version, pdu); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestMemoizedResponsesMatchReference is the byte-for-byte differential for
// the memoized response bodies: for both protocol versions, the full table
// and the answer from every retained serial must equal a reference written
// PDU by PDU — the full table from AppendVRPs, deltas from a naive set
// difference of the tables the test published — and out-of-ring serials and
// foreign sessions must get a lone Cache Reset.
func TestMemoizedResponsesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	table := make(map[rpki.VRP]struct{})
	for _, v := range mixedVRPs(rng, 600) {
		table[v] = struct{}{}
	}
	srv := NewServer(setOf(table))
	defer srv.Close()
	srv.KeepDeltas = 5
	tables := map[Serial]*rpki.Set{srv.Serial(): setOf(table)}
	const publishes = 9 // ring of KeepDeltas+2 = 7: serials 1..3 evicted
	for i := 0; i < publishes; i++ {
		ann, wd := churnDelta(rng, table, 40)
		for _, v := range ann {
			table[v] = struct{}{}
		}
		for _, v := range wd {
			delete(table, v)
		}
		var serial Serial
		if i%3 == 2 {
			srv.UpdateSet(setOf(table))
			serial = srv.Serial()
		} else {
			serial = srv.ApplyDelta(ann, wd)
		}
		tables[serial] = setOf(table)
	}
	cur := srv.Serial()
	p := srv.pub.Load()
	if len(p.snaps) != srv.KeepDeltas+2 {
		t.Fatalf("ring holds %d serials, want %d", len(p.snaps), srv.KeepDeltas+2)
	}
	if full := p.current().AppendVRPs(nil); !rpki.NewSet(full).Equal(tables[cur]) {
		t.Fatal("current table differs from the published model")
	}

	cacheReset := func(version byte) []byte {
		var buf bytes.Buffer
		if err := WritePDU(&buf, version, &CacheReset{}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, version := range []byte{Version0, Version1} {
		want := referenceResponse(t, srv, version, p.current().AppendVRPs(nil), nil)
		for pass := 0; pass < 2; pass++ { // cold build, then memo hit
			if got := respond(t, srv, outItem{kind: outFull, version: version}); !bytes.Equal(got, want) {
				t.Fatalf("v%d full table (pass %d): %d bytes differ from the %d-byte reference", version, pass, len(got), len(want))
			}
		}
		answered := 0
		for serial := Serial(1); serial != SerialAdvance(cur, 1); serial = SerialAdvance(serial, 1) {
			q := outItem{kind: outSerial, version: version, query: SerialQuery{SessionID: srv.SessionID(), Serial: serial}}
			want := cacheReset(version)
			if SerialAdvance(serial, uint32(srv.KeepDeltas+1)) >= cur {
				ann, wd := naiveDelta(tables[serial], tables[cur])
				want = referenceResponse(t, srv, version, ann, wd)
				answered++
			}
			for pass := 0; pass < 2; pass++ {
				if got := respond(t, srv, q); !bytes.Equal(got, want) {
					t.Fatalf("v%d serial %d -> %d (pass %d): %d bytes differ from the %d-byte reference", version, serial, cur, pass, len(got), len(want))
				}
			}
		}
		if answered != len(p.snaps) {
			t.Fatalf("v%d: %d serials answered incrementally, want the whole ring of %d", version, answered, len(p.snaps))
		}
		foreign := outItem{kind: outSerial, version: version, query: SerialQuery{SessionID: srv.SessionID() ^ 1, Serial: cur}}
		if got := respond(t, srv, foreign); !bytes.Equal(got, cacheReset(version)) {
			t.Fatalf("v%d session mismatch: got % x, want a lone Cache Reset", version, got)
		}
	}
}

// TestMemoizedBodiesUnderChurn runs concurrent Reset and Serial Queries
// over TCP while a publisher churns ApplyDelta (meaningful under -race).
// Every response must parse to exactly the table the test published at its
// End of Data serial. Alongside, concurrent callers on one published value
// must all receive the same body — identical slice data pointers — for each
// (slot, version): each body is built once.
func TestMemoizedBodiesUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	table := make(map[rpki.VRP]struct{})
	for _, v := range mixedVRPs(rng, 1500) {
		table[v] = struct{}{}
	}
	srv := NewServer(setOf(table))
	srv.KeepDeltas = 4
	addr, stop := startServer(t, srv)
	defer stop()
	session := srv.SessionID()

	var tables sync.Map // Serial -> *rpki.Set, stored before the serial is published
	tables.Store(srv.Serial(), setOf(table))
	done := make(chan struct{})
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		next := srv.Serial()
		for {
			select {
			case <-done:
				return
			default:
			}
			ann, wd := churnDelta(rng, table, 16)
			for _, v := range ann {
				table[v] = struct{}{}
			}
			for _, v := range wd {
				delete(table, v)
			}
			next = SerialAdvance(next, 1)
			tables.Store(next, setOf(table))
			if got := srv.ApplyDelta(ann, wd); got != next {
				t.Errorf("ApplyDelta published serial %d, want %d", got, next)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	const routers, rounds = 8, 12
	var incremental atomic.Int64 // Serial Queries answered with a delta
	var wg sync.WaitGroup
	errs := make(chan error, routers+1)
	for r := 0; r < routers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := queryRounds(addr, session, rounds, &tables, &incremental); err != nil {
				errs <- err
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := sharedBodies(srv.pub.Load(), 8); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	pubWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if incremental.Load() == 0 {
		t.Errorf("none of %d Serial Queries was answered incrementally", routers*rounds)
	}
}

// queryRounds is one router: each round a Reset Query, then a Serial Query
// from the serial it reached; every End of Data table is checked against
// the published model.
func queryRounds(addr string, session uint16, rounds int, tables *sync.Map, incremental *atomic.Int64) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(nc)
	for i := 0; i < rounds; i++ {
		table := make(map[rpki.VRP]struct{})
		serial, err := queryOnce(nc, br, &ResetQuery{}, table)
		if err != nil {
			return err
		}
		if err := checkTable(tables, serial, table, "reset"); err != nil {
			return err
		}
		next, err := queryOnce(nc, br, &SerialQuery{SessionID: session, Serial: serial}, table)
		if err != nil {
			return err
		}
		if next == 0 { // Cache Reset: the serial left the ring meanwhile
			continue
		}
		incremental.Add(1)
		if err := checkTable(tables, next, table, fmt.Sprintf("serial %d ->", serial)); err != nil {
			return err
		}
	}
	return nil
}

// queryOnce sends q and applies the response to table, skipping Serial
// Notifies. It returns the End of Data serial, or 0 on Cache Reset.
func queryOnce(nc net.Conn, br *bufio.Reader, q PDU, table map[rpki.VRP]struct{}) (Serial, error) {
	if err := WritePDU(nc, Version1, q); err != nil {
		return 0, err
	}
	for {
		pdu, _, err := ReadPDU(br)
		if err != nil {
			return 0, err
		}
		switch x := pdu.(type) {
		case *SerialNotify, *CacheResponse:
		case *CacheReset:
			return 0, nil
		case *Prefix:
			_, present := table[x.VRP]
			if x.Flags&FlagAnnounce != 0 {
				if present {
					return 0, fmt.Errorf("announce of present %v", x.VRP)
				}
				table[x.VRP] = struct{}{}
			} else {
				if !present {
					return 0, fmt.Errorf("withdrawal of absent %v", x.VRP)
				}
				delete(table, x.VRP)
			}
		case *EndOfData:
			return x.Serial, nil
		default:
			return 0, fmt.Errorf("unexpected %T in response", pdu)
		}
	}
}

func checkTable(tables *sync.Map, serial Serial, table map[rpki.VRP]struct{}, what string) error {
	want, ok := tables.Load(serial)
	if !ok {
		return fmt.Errorf("%s End of Data at unpublished serial %d", what, serial)
	}
	if got := setOf(table); !got.Equal(want.(*rpki.Set)) {
		return fmt.Errorf("%s serial %d: table of %d VRPs != published %d", what, serial, got.Len(), want.(*rpki.Set).Len())
	}
	return nil
}

// sharedBodies has n goroutines fetch every body of p concurrently and
// checks they all received the same backing array per (slot, version).
func sharedBodies(p *published, n int) error {
	type key struct {
		slot    int // -1: full table
		version byte
	}
	ptrs := make([]map[key]*byte, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		ptrs[g] = make(map[key]*byte)
		wg.Add(1)
		go func(m map[key]*byte) {
			defer wg.Done()
			for _, version := range []byte{Version0, Version1} {
				m[key{-1, version}] = unsafe.SliceData(p.fullBody(version))
				for i, sn := range p.snaps[:len(p.snaps)-1] { // the current slot's body is empty
					b, _ := p.deltaBody(sn.serial, version)
					m[key{i, version}] = unsafe.SliceData(b)
				}
			}
		}(ptrs[g])
	}
	wg.Wait()
	for k, want := range ptrs[0] {
		if want == nil {
			return fmt.Errorf("body %+v is empty", k)
		}
		for g := 1; g < n; g++ {
			if ptrs[g][k] != want {
				return fmt.Errorf("body %+v built more than once: callers got different arrays", k)
			}
		}
	}
	return nil
}
