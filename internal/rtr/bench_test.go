package rtr

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/rpki"
)

// discardConn is a net.Conn that swallows writes: the full-response
// benchmarks measure encoding cost, not the kernel.
type discardConn struct{}

func (discardConn) Read([]byte) (int, error)         { return 0, net.ErrClosed }
func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (discardConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// BenchmarkSendFull compares the ways to answer a Reset Query over a
// 50k-VRP table: "materialize" is the retired reference (build a []PDU of
// len(vrps)+2 heap values, then write each); "build" is the live path at
// the first Reset Query of a serial (walk and encode the table into the
// published value's body, then write it); "hit" is every later Reset Query
// at that serial (one write of the memoized body between per-router
// framing).
func BenchmarkSendFull(b *testing.B) {
	srv := NewServer(bigVRPSet(50_000))
	defer srv.Close()
	c := &conn{c: discardConn{}, bw: bufio.NewWriterSize(discardConn{}, connBufSize), version: Version1, state: connActive}
	full := outItem{kind: outFull, version: Version1}

	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := srv.pub.Load()
			vrps := p.current().AppendVRPs(nil)
			pdus := make([]PDU, 0, len(vrps)+2)
			pdus = append(pdus, &CacheResponse{SessionID: p.session})
			for _, v := range vrps {
				pdus = append(pdus, &Prefix{VRP: v, Flags: FlagAnnounce})
			}
			pdus = append(pdus, srv.endOfData(p.session, p.serial))
			for _, pdu := range pdus {
				if err := WritePDU(c.c, Version1, pdu); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := srv.pub.Load()
			srv.pub.Store(&published{session: p.session, serial: p.serial, snaps: p.snaps}) // empty memo
			if err := srv.writeItem(c, full); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("hit", func(b *testing.B) {
		if err := srv.writeItem(c, full); err != nil { // warm the memo
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := srv.writeItem(c, full); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSerialFanout answers N routers' Serial Queries at one serial —
// the fan-out after a publish, when every router follows the same notify.
// Each iteration starts from an empty memo on a 50k-VRP cache whose ring
// holds 16 publishes of 64 VRPs each, queried from the oldest retained
// serial: the first router pays the diff and the encode, the rest one write
// each of the shared body, so ns/router falls as N grows.
func BenchmarkSerialFanout(b *testing.B) {
	srv := NewServer(bigVRPSet(50_000))
	defer srv.Close()
	for k := 0; k < srv.KeepDeltas; k++ {
		ann := make([]rpki.VRP, 64)
		for i := range ann {
			ann[i] = rpki.VRP{Prefix: mp(fmt.Sprintf("100.%d.%d.0/24", k, i)), MaxLength: 24, AS: 64500}
		}
		srv.ApplyDelta(ann, nil)
	}
	p := srv.pub.Load()
	q := outItem{kind: outSerial, version: Version1, query: SerialQuery{SessionID: p.session, Serial: p.snaps[0].serial}}
	for _, n := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("routers=%d", n), func(b *testing.B) {
			conns := make([]*conn, n)
			for i := range conns {
				conns[i] = &conn{c: discardConn{}, bw: bufio.NewWriterSize(discardConn{}, connBufSize), version: Version1, state: connActive}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.pub.Store(&published{session: p.session, serial: p.serial, snaps: p.snaps}) // empty memo
				for _, c := range conns {
					if err := srv.writeItem(c, q); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/router")
		})
	}
}

// BenchmarkPublishDelta measures the publish path a delta-fed cache runs
// per update — persistent-snapshot apply, ring roll, atomic swap — with no
// sessions connected, i.e. the floor the notify fan-out adds to.
func BenchmarkPublishDelta(b *testing.B) {
	srv := NewServer(bigVRPSet(50_000))
	defer srv.Close()
	v := rpki.VRP{Prefix: mp("203.0.113.0/24"), MaxLength: 24, AS: 64501}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			srv.ApplyDelta([]rpki.VRP{v}, nil)
		} else {
			srv.ApplyDelta(nil, []rpki.VRP{v})
		}
	}
}

// BenchmarkClientReset is a router's cold start against a 50k-VRP cache
// over loopback TCP: Dial, one full Reset, Close. It measures the client
// read path end to end — buffered framing, Prefix decode and the table
// commit — against the server's full-table stream.
func BenchmarkClientReset(b *testing.B) {
	set := bigVRPSet(50_000)
	addr, stop := startServer(b, NewServer(set))
	defer stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Reset(); err != nil {
			b.Fatal(err)
		}
		if c.Len() != set.Len() {
			b.Fatalf("reset holds %d VRPs, want %d", c.Len(), set.Len())
		}
		c.Close()
	}
}
