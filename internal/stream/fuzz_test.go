package stream

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// writeFrame stamps the payload checksum and writes the marshaled frame to
// w.
func writeFrame(w io.Writer, h Header, payload []byte) error {
	h.CRC = Checksum(payload)
	buf, err := marshalFrame(h, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// frameBytes marshals a frame for seeding, stamping the checksum.
func frameBytes(tb testing.TB, h Header, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, h, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadFrame feeds arbitrary bytes to the header+payload codec: it must
// never panic, reject anything that is not a v3 frame, and round-trip
// byte-identically whatever it accepts — including frames whose payload
// no longer matches the checksum (the receiver classifies those as
// corrupt, it does not reject them at parse time). The client's own parse
// path — the header peeked and parsed in place in its read buffer — must
// reach the same verdict and the same header as readHeader.
func FuzzReadFrame(f *testing.F) {
	idx := frameBytes(f, Header{Kind: KindIndex, Slot: 7, Seq: 2, NextIndex: 31, PayloadLen: 16}, bytes.Repeat([]byte{0xC3}, 16))
	dat := frameBytes(f, Header{Kind: KindData, Slot: 900, Seq: DataSeq(12, 1), NextIndex: 4, PayloadLen: 8}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(idx)
	f.Add(dat)
	f.Add(idx[:headerSize-3]) // truncated header
	f.Add(append([]byte(nil), idx[:headerSize]...))
	corrupted := append([]byte(nil), dat...)
	corrupted[headerSize+3] ^= 0x10 // payload bit flip: parses, fails checksum
	f.Add(corrupted)
	v1 := append([]byte(nil), idx...)
	v1[3] = 0 // the pre-checksum wire format's pad byte
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		h, err := readHeader(r)
		c := NewClient(bytes.NewReader(data), 0)
		var ph Header
		perr := c.peekHeader(&ph)
		if (err == nil) != (perr == nil) || ph != h ||
			(err != nil && (err.Error() != perr.Error() || errors.Is(perr, io.EOF) != errors.Is(err, io.EOF))) {
			t.Fatalf("in-place parse = %+v, %v; readHeader = %+v, %v", ph, perr, h, err)
		}
		if err != nil {
			return
		}
		payload := make([]byte, h.PayloadLen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return // truncated payload: the stream layer surfaces the read error
		}
		// Whatever parsed must re-marshal to the identical wire bytes.
		buf, err := marshalFrame(h, payload)
		if err != nil {
			t.Fatalf("parsed header %+v does not marshal: %v", h, err)
		}
		total := headerSize + int(h.PayloadLen)
		if !bytes.Equal(buf, data[:total]) {
			t.Fatalf("round trip mismatch:\n got %x\nwant %x", buf, data[:total])
		}
		h2, err := readHeader(bytes.NewReader(buf))
		if err != nil || h2 != h {
			t.Fatalf("re-read header %+v (err %v), want %+v", h2, err, h)
		}
		// Checksum classification must be deterministic.
		if (Checksum(payload) == h.CRC) != (Checksum(payload) == h2.CRC) {
			t.Fatal("unstable corruption verdict")
		}
	})
}

// TestReadHeaderRejectsForeignVersions pins the version gate: v1 frames
// (pad byte zero), the 20-byte v2, and future versions must be refused, not
// misparsed.
func TestReadHeaderRejectsForeignVersions(t *testing.T) {
	valid := frameBytes(t, Header{Kind: KindIndex, Slot: 1, PayloadLen: 4, NextIndex: 9}, []byte{1, 2, 3, 4})
	for _, v := range []byte{0, 1, 2, 0xff} {
		frame := append([]byte(nil), valid...)
		frame[3] = v
		if _, err := readHeader(bytes.NewReader(frame)); err == nil {
			t.Errorf("version %d accepted", v)
		}
	}
	if _, err := readHeader(bytes.NewReader(valid)); err != nil {
		t.Errorf("current version rejected: %v", err)
	}
}

// TestChecksumDetectsSingleBitFlips pins the property the corruption fault
// model relies on: any one-bit payload flip changes the CRC.
func TestChecksumDetectsSingleBitFlips(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A}, 64)
	want := Checksum(payload)
	for bit := 0; bit < len(payload)*8; bit++ {
		payload[bit/8] ^= 1 << uint(bit%8)
		if Checksum(payload) == want {
			t.Fatalf("bit %d flip undetected", bit)
		}
		payload[bit/8] ^= 1 << uint(bit%8)
	}
}
