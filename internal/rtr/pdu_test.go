package rtr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/prefix"
	"repro/internal/rpki"
)

func mp(s string) prefix.Prefix { return prefix.MustParse(s) }

func roundTrip(t *testing.T, version byte, p PDU) PDU {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePDU(&buf, version, p); err != nil {
		t.Fatalf("write %T: %v", p, err)
	}
	// Declared length must match what was written.
	if got := binary.BigEndian.Uint32(buf.Bytes()[4:]); int(got) != buf.Len() {
		t.Fatalf("%T: declared length %d, wrote %d", p, got, buf.Len())
	}
	q, v, err := ReadPDU(&buf)
	if err != nil {
		t.Fatalf("read %T: %v", p, err)
	}
	if v != version {
		t.Fatalf("version %d, want %d", v, version)
	}
	return q
}

func TestPDURoundTrips(t *testing.T) {
	v4 := rpki.VRP{Prefix: mp("168.122.0.0/16"), MaxLength: 24, AS: 111}
	v6 := rpki.VRP{Prefix: mp("2001:db8::/32"), MaxLength: 48, AS: 64496}
	for _, version := range []byte{Version0, Version1} {
		pdus := []PDU{
			&SerialNotify{SessionID: 7, Serial: 42},
			&SerialQuery{SessionID: 7, Serial: 42},
			&ResetQuery{},
			&CacheResponse{SessionID: 9},
			&Prefix{Flags: FlagAnnounce, VRP: v4},
			&Prefix{Flags: FlagWithdraw, VRP: v4},
			&Prefix{Flags: FlagAnnounce, VRP: v6},
			&CacheReset{},
			&ErrorReport{Code: ErrCorruptData, CausingPDU: []byte{1, 2, 3}, Text: "boom"},
		}
		for _, p := range pdus {
			q := roundTrip(t, version, p)
			switch a := p.(type) {
			case *SerialNotify:
				if *q.(*SerialNotify) != *a {
					t.Errorf("v%d SerialNotify mismatch", version)
				}
			case *SerialQuery:
				if *q.(*SerialQuery) != *a {
					t.Errorf("v%d SerialQuery mismatch", version)
				}
			case *CacheResponse:
				if *q.(*CacheResponse) != *a {
					t.Errorf("v%d CacheResponse mismatch", version)
				}
			case *Prefix:
				if *q.(*Prefix) != *a {
					t.Errorf("v%d Prefix mismatch: %+v vs %+v", version, q, a)
				}
			case *ErrorReport:
				b := q.(*ErrorReport)
				if b.Code != a.Code || b.Text != a.Text || !bytes.Equal(b.CausingPDU, a.CausingPDU) {
					t.Errorf("v%d ErrorReport mismatch", version)
				}
			}
		}
	}
}

func TestEndOfDataVersions(t *testing.T) {
	in := &EndOfData{SessionID: 5, Serial: 99, Refresh: 3600, Retry: 600, Expire: 7200}
	// Version 0 drops the timers.
	out0 := roundTrip(t, Version0, in).(*EndOfData)
	if out0.Serial != 99 || out0.SessionID != 5 || out0.Refresh != 0 {
		t.Errorf("v0 EndOfData = %+v", out0)
	}
	out1 := roundTrip(t, Version1, in).(*EndOfData)
	if *out1 != *in {
		t.Errorf("v1 EndOfData = %+v", out1)
	}
}

func TestRouterKeyVersionGate(t *testing.T) {
	rk := &RouterKey{Flags: 1, AS: 64496, SPKI: []byte{1, 2, 3, 4}}
	rk.SKI[0] = 0xab
	var buf bytes.Buffer
	if err := WritePDU(&buf, Version0, rk); err == nil {
		t.Fatal("Router Key must be rejected for version 0")
	}
	out := roundTrip(t, Version1, rk).(*RouterKey)
	if out.Flags != 1 || out.AS != 64496 || out.SKI != rk.SKI || !bytes.Equal(out.SPKI, rk.SPKI) {
		t.Errorf("RouterKey mismatch: %+v", out)
	}
}

func TestReadPDUErrors(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		code uint16
	}{
		{"bad version", []byte{9, 2, 0, 0, 0, 0, 0, 8}, ErrUnsupportedVersion},
		{"bad length", []byte{1, 2, 0, 0, 0, 0, 0, 4}, ErrCorruptData},
		{"unknown type", []byte{1, 99, 0, 0, 0, 0, 0, 8}, ErrUnsupportedPDUType},
		{"wrong body size", []byte{1, 2, 0, 0, 0, 0, 0, 12, 0, 0, 0, 0}, ErrCorruptData},
		{"router key v0", append([]byte{0, 9, 0, 0, 0, 0, 0, 32}, make([]byte, 24)...), ErrUnsupportedPDUType},
	}
	for _, c := range cases {
		_, _, err := ReadPDU(bytes.NewReader(c.raw))
		pe, ok := err.(*ProtocolError)
		if !ok {
			t.Errorf("%s: err = %v, want ProtocolError", c.name, err)
			continue
		}
		if pe.Code != c.code {
			t.Errorf("%s: code = %d, want %d", c.name, pe.Code, c.code)
		}
	}
	// Truncated stream.
	if _, _, err := ReadPDU(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Error("truncated header accepted")
	}
	if _, _, err := ReadPDU(bytes.NewReader([]byte{1, 0, 0, 0, 0, 0, 0, 12, 1})); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated body: %v", err)
	}
}

func TestBadPrefixPDURejected(t *testing.T) {
	// maxLength < prefix length must produce ErrCorruptData.
	var buf bytes.Buffer
	if err := WritePDU(&buf, Version1, &Prefix{Flags: FlagAnnounce,
		VRP: rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 16, AS: 1}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[10] = 4 // maxLength 4 < len 8
	_, _, err := ReadPDU(bytes.NewReader(raw))
	pe, ok := err.(*ProtocolError)
	if !ok || pe.Code != ErrCorruptData {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(pe.Error(), "rtr:") {
		t.Error("ProtocolError.Error format")
	}
}

func TestErrorReportTruncation(t *testing.T) {
	big := strings.Repeat("x", MaxPDUSize)
	er := &ErrorReport{Code: 1, CausingPDU: make([]byte, MaxPDUSize), Text: big}
	var buf bytes.Buffer
	if err := WritePDU(&buf, Version1, er); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > MaxPDUSize+headerLen+8 {
		t.Fatalf("oversized error report: %d bytes", buf.Len())
	}
	out, _, err := ReadPDU(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.(*ErrorReport).Text) == 0 {
		t.Error("truncated text vanished entirely")
	}
}

func TestErrorReportMalformedLengths(t *testing.T) {
	// causing-PDU length exceeding the body must be rejected.
	body := make([]byte, 8)
	binary.BigEndian.PutUint32(body, 100) // longer than body
	raw := make([]byte, 8+len(body))
	writeHeader(raw, Version1, TypeErrorReport, 0, uint32(len(raw)))
	copy(raw[8:], body)
	if _, _, err := ReadPDU(bytes.NewReader(raw)); err == nil {
		t.Error("overflowing causing-PDU length accepted")
	}
	// text length overflow.
	body2 := make([]byte, 8)
	binary.BigEndian.PutUint32(body2, 0)
	binary.BigEndian.PutUint32(body2[4:], 50)
	raw2 := make([]byte, 8+len(body2))
	writeHeader(raw2, Version1, TypeErrorReport, 0, uint32(len(raw2)))
	copy(raw2[8:], body2)
	if _, _, err := ReadPDU(bytes.NewReader(raw2)); err == nil {
		t.Error("overflowing text length accepted")
	}
	// Lengths near 2^32 must not wrap the bounds checks into slice panics.
	for _, lens := range [][2]uint32{{0xffffffff, 0}, {0xfffffffc, 0}, {0, 0xffffffff}, {0, 0xfffffffd}} {
		body := make([]byte, 16)
		binary.BigEndian.PutUint32(body, lens[0])
		binary.BigEndian.PutUint32(body[4:], lens[1])
		raw := make([]byte, 8+len(body))
		writeHeader(raw, Version1, TypeErrorReport, 0, uint32(len(raw)))
		copy(raw[8:], body)
		if _, _, err := ReadPDU(bytes.NewReader(raw)); err == nil {
			t.Errorf("lengths %#x accepted", lens)
		}
	}
}

func TestWritePDUUnknownVersion(t *testing.T) {
	if err := WritePDU(io.Discard, 7, &ResetQuery{}); err == nil {
		t.Error("unknown version accepted")
	}
}

func TestPrefixPDUQuickRoundTrip(t *testing.T) {
	f := func(addr uint64, l8, mlDelta uint8, as uint32, v6 bool, announce bool) bool {
		fam := prefix.IPv4
		if v6 {
			fam = prefix.IPv6
		}
		l := l8 % (fam.MaxLen() + 1)
		hi, lo := addr, addr*0x9e3779b97f4a7c15
		if fam == prefix.IPv4 {
			hi &= 0xffffffff00000000
			lo = 0
		}
		p, err := prefix.Make(fam, hi, lo, l)
		if err != nil {
			return false
		}
		ml := l + mlDelta%(fam.MaxLen()-l+1)
		flags := FlagWithdraw
		if announce {
			flags = FlagAnnounce
		}
		in := &Prefix{Flags: flags, VRP: rpki.VRP{Prefix: p, MaxLength: ml, AS: rpki.ASN(as)}}
		var buf bytes.Buffer
		if err := WritePDU(&buf, Version1, in); err != nil {
			return false
		}
		out, _, err := ReadPDU(&buf)
		if err != nil {
			return false
		}
		got, ok := out.(*Prefix)
		return ok && *got == *in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// loopReader replays b forever, in reads as large as the caller asks for.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.b[r.off:])
		n += c
		r.off = (r.off + c) % len(r.b)
	}
	return n, nil
}

// TestPDUReaderPrefixAllocs pins the client read path's per-PDU cost: once
// its body buffer has grown, a connection's reader frames and decodes an
// IPv4 or IPv6 Prefix PDU without allocating.
func TestPDUReaderPrefixAllocs(t *testing.T) {
	var stream bytes.Buffer
	want := []Prefix{
		{Flags: FlagAnnounce, VRP: rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 24, AS: 1}},
		{Flags: FlagWithdraw, VRP: rpki.VRP{Prefix: mp("2001:db8::/32"), MaxLength: 48, AS: 2}},
	}
	for i := range want {
		if err := WritePDU(&stream, Version1, &want[i]); err != nil {
			t.Fatal(err)
		}
	}
	pr := newPDUReader(&loopReader{b: stream.Bytes()})
	var bad error
	i := 0
	read := func() {
		pdu, _, err := pr.next()
		if err != nil {
			bad = err
		} else if p, ok := pdu.(*Prefix); !ok || *p != want[i%len(want)] {
			bad = fmt.Errorf("PDU %d = %#v, want %#v", i, pdu, want[i%len(want)])
		}
		i++
	}
	read()
	read() // the IPv6 body grows the scratch buffer to its final size
	if n := testing.AllocsPerRun(1000, read); n != 0 {
		t.Errorf("reading a Prefix PDU allocates %.1f times, want 0", n)
	}
	if bad != nil {
		t.Fatal(bad)
	}
}
