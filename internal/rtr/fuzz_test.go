package rtr

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"repro/internal/rpki"
)

// FuzzReadPDU checks the PDU parser never panics on arbitrary bytes and
// that everything it accepts re-serializes and re-parses identically.
func FuzzReadPDU(f *testing.F) {
	// Seed with every valid PDU kind.
	seedPDUs := []PDU{
		&SerialNotify{SessionID: 1, Serial: 2},
		&SerialQuery{SessionID: 1, Serial: 2},
		&ResetQuery{},
		&CacheResponse{SessionID: 3},
		&Prefix{Flags: FlagAnnounce, VRP: rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 24, AS: 1}},
		&Prefix{Flags: FlagWithdraw, VRP: rpki.VRP{Prefix: mp("2001:db8::/32"), MaxLength: 48, AS: 2}},
		&EndOfData{SessionID: 1, Serial: 2, Refresh: 3, Retry: 4, Expire: 5},
		&CacheReset{},
		&ErrorReport{Code: 2, CausingPDU: []byte{1}, Text: "x"},
	}
	for _, p := range seedPDUs {
		for _, v := range []byte{Version0, Version1} {
			var buf bytes.Buffer
			if err := WritePDU(&buf, v, p); err == nil {
				f.Add(buf.Bytes())
			}
		}
	}
	f.Add([]byte{1, 99, 0, 0, 0, 0, 0, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		pdu, version, err := ReadPDU(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WritePDU(&buf, version, pdu); err != nil {
			t.Fatalf("re-serializing accepted PDU %T: %v", pdu, err)
		}
		pdu2, _, err := ReadPDU(&buf)
		if err != nil {
			t.Fatalf("re-parsing %T: %v", pdu, err)
		}
		if pdu.Type() != pdu2.Type() {
			t.Fatalf("type changed: %d vs %d", pdu.Type(), pdu2.Type())
		}
	})
}

// FuzzPDUStream decodes one byte stream two ways — through a connection's
// pduReader over readers that deliver it one byte and half a buffer at a
// time, and through ReadPDU one PDU at a time — and requires the same PDUs,
// versions and terminal error from each. It also pins the reader's aliasing
// contract: RouterKey.SPKI and the ErrorReport fields of PDU k are unchanged
// after PDU k+1 is decoded through the same scratch body.
func FuzzPDUStream(f *testing.F) {
	seq := []PDU{
		&CacheResponse{SessionID: 3},
		&ErrorReport{Code: 2, CausingPDU: []byte{1, 2, 3, 4, 5, 6, 7, 8}, Text: "first report"},
		&Prefix{Flags: FlagAnnounce, VRP: rpki.VRP{Prefix: mp("10.0.0.0/8"), MaxLength: 24, AS: 1}},
		&RouterKey{Flags: 1, SKI: [20]byte{9}, AS: 64496, SPKI: []byte("router key spki")},
		&ErrorReport{Code: 7, Text: "a second report, longer than the key before it"},
		&RouterKey{SKI: [20]byte{8}, AS: 64497, SPKI: []byte{0xff, 0xfe}},
		&RouterKey{SKI: [20]byte{7}, AS: 64498, SPKI: []byte{0xfd, 0xfc}},
		&Prefix{Flags: FlagWithdraw, VRP: rpki.VRP{Prefix: mp("2001:db8::/32"), MaxLength: 48, AS: 2}},
		&SerialNotify{SessionID: 1, Serial: 2},
		&EndOfData{SessionID: 3, Serial: 2, Refresh: 3, Retry: 4, Expire: 5},
	}
	for _, v := range []byte{Version0, Version1} {
		var buf bytes.Buffer
		for _, p := range seq {
			_ = WritePDU(&buf, v, p) // Router Key is version 1 only
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-3]) // cut mid-PDU
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		type decoded struct {
			pdu     PDU
			version byte
			err     error
		}
		var want []decoded
		r := bytes.NewReader(data)
		for {
			pdu, version, err := ReadPDU(r)
			want = append(want, decoded{pdu, version, err})
			if err != nil {
				break
			}
		}
		for _, wrap := range []struct {
			name string
			fn   func(io.Reader) io.Reader
		}{{"one-byte", iotest.OneByteReader}, {"half", iotest.HalfReader}} {
			pr := newPDUReader(wrap.fn(bytes.NewReader(data)))
			var prev PDU
			for k, w := range want {
				pdu, version, err := pr.next()
				if !reflect.DeepEqual(err, w.err) || version != w.version || !reflect.DeepEqual(pdu, w.pdu) {
					t.Fatalf("%s: PDU %d = (%#v, %d, %v), ReadPDU gave (%#v, %d, %v)",
						wrap.name, k, pdu, version, err, w.pdu, w.version, w.err)
				}
				switch prev.(type) {
				case *RouterKey, *ErrorReport:
					if !reflect.DeepEqual(prev, want[k-1].pdu) {
						t.Fatalf("%s: PDU %d changed to %#v once PDU %d was read", wrap.name, k-1, prev, k)
					}
				}
				prev = pdu
			}
		}
	})
}
