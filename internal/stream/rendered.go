package stream

import (
	"encoding/binary"
	"io"

	"airindex/internal/channel"
)

// The broadcast content is periodic: apart from the absolute slot number in
// the header, the frame transmitted at slot s is identical to the frame at
// slot s % cycleLen. renderedCycle exploits that by rendering every frame
// of one cycle exactly once — header template (slot field zero-adjusted at
// transmit time), payload bytes, and payload CRC — so the per-frame work of
// the serving hot path collapses to "copy, patch 8 bytes" per frame and one
// write per batch of frames.
// The table is immutable after renderCycle returns and is shared read-only
// by every connection goroutine.

// renderedFrame is one precomputed slot of the cycle.
type renderedFrame struct {
	hdr     [headerSize]byte // marshaled header with Slot = cycle offset
	payload []byte           // shared read-only payload bytes (CRC already in hdr)
}

// renderedCycle is the slot -> frame table for one Program.
type renderedCycle struct {
	frames    []renderedFrame
	frameSize int // headerSize + capacity
}

func (rc *renderedCycle) cycleLen() int { return len(rc.frames) }

// sizeBytes reports the memory the rendered table pins, for startup logs.
func (rc *renderedCycle) sizeBytes() int { return len(rc.frames) * rc.frameSize }

// renderCycle renders every slot of one broadcast cycle through the same
// frameAt + marshalFrame pipeline the per-frame reference uses, guaranteeing
// byte-identical wire output (pinned by TestRenderedCycleMatchesFrameAt and
// TestBatchedTransmitMatchesPerFrame).
func renderCycle(p *Program) (*renderedCycle, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cycle := p.Sched.CycleLen()
	rc := &renderedCycle{
		frames:    make([]renderedFrame, cycle),
		frameSize: headerSize + p.Capacity,
	}
	for pos := 0; pos < cycle; pos++ {
		h, payload := p.frameAt(pos)
		h.CRC = Checksum(payload)
		buf, err := marshalFrame(h, payload)
		if err != nil {
			return nil, err
		}
		f := &rc.frames[pos]
		copy(f.hdr[:], buf[:headerSize])
		f.payload = buf[headerSize:]
	}
	return rc, nil
}

// txBatchBytes bounds one transmit batch: the live server and
// TransmitObserved copy up to this many bytes of consecutive frames into
// the connection's buffer and write them in one call. The client's read
// buffer is the same size.
const txBatchBytes = 128 << 10

// transmitter is one connection's view of the rendered broadcast: the
// shared frame table, its optional fault channel, the metrics sink, and
// its own batch buffer.
type transmitter struct {
	rc  *renderedCycle
	ch  *channel.Channel
	m   *Metrics
	buf []byte
}

// transmitter builds the per-connection transmit state, rendering the
// cycle on first use. m may be nil (a private, unread metrics set is
// allocated), so the hot path never branches on instrumentation.
func (p *Program) transmitter(ch *channel.Channel, m *Metrics) (*transmitter, error) {
	rc, err := p.Rendered()
	if err != nil {
		return nil, err
	}
	if m == nil {
		m = NewMetrics()
	}
	return &transmitter{rc: rc, ch: ch, m: m}, nil
}

// batchFrames is the number of frames one full batch holds.
func (t *transmitter) batchFrames() int { return max(1, txBatchBytes/t.rc.frameSize) }

// fill copies the frames at cycle positions rel, rel+1, ... (at most n,
// never past the cycle boundary, where callers pick up a swap or drain)
// into the connection's buffer, stamped with absolute slots abs, abs+1, ...
// and generation gen; the two differ once a swap rebased the content. Each
// frame then meets the fault channel in place, in slot order: a dropped
// frame is rewound out of the buffer (the next slot number reveals the
// gap), a corrupted one is damaged in the private copy only.
func (t *transmitter) fill(abs, rel, n int, gen uint32) (buf []byte, slots, dropped, corrupted int) {
	frames := t.rc.frames
	pos := rel % len(frames)
	n = min(n, len(frames)-pos)
	fs := t.rc.frameSize
	if cap(t.buf) < n*fs {
		t.buf = make([]byte, n*fs)
	}
	off := 0
	for i := 0; i < n; i++ {
		f := &frames[pos+i]
		fr := t.buf[off : off+fs]
		copy(fr, f.hdr[:])
		copy(fr[headerSize:], f.payload)
		binary.LittleEndian.PutUint32(fr[4:], uint32(abs+i))
		binary.LittleEndian.PutUint32(fr[16:], gen)
		if t.ch != nil {
			switch t.ch.TransmitFault(fr, headerSize) {
			case channel.Drop:
				dropped++
				continue
			case channel.Corrupt:
				corrupted++
			}
		}
		off += fs
	}
	return t.buf[:off], n, dropped, corrupted
}

// send fills one batch of at most n frames and writes it in a single call
// (none when the channel dropped every frame). The batch's outcomes are
// counted once, after the write succeeded, so the counters never claim
// frames the writer refused. It returns the slots the batch consumed.
func (t *transmitter) send(w io.Writer, abs, rel, n int, gen uint32) (int, error) {
	buf, slots, dropped, corrupted := t.fill(abs, rel, n, gen)
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return 0, err
		}
	}
	t.m.FramesWritten.Add(int64(len(buf) / t.rc.frameSize))
	t.m.BytesWritten.Add(int64(len(buf)))
	t.m.FramesDropped.Add(int64(dropped))
	t.m.FramesCorrupted.Add(int64(corrupted))
	return slots, nil
}
