package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"airindex/internal/channel"

	"airindex/internal/testutil"
)

// legacyTransmitSlot is the pre-rendered-cycle transmit path (render the
// frame from scratch, stamp the checksum, marshal, write), kept here as the
// reference the batched path must match byte for byte: the frame at cycle
// content position rel, stamped with absolute slot abs and generation gen.
func legacyTransmitSlot(w io.Writer, p *Program, abs, rel int, gen uint32) error {
	h, payload := p.frameAt(rel)
	h.Slot, h.Gen = uint32(abs), gen
	h.CRC = Checksum(payload)
	buf, err := marshalFrame(h, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// requireSameBytes fails at the first byte where got and want differ.
func requireSameBytes(t *testing.T, what string, got, want []byte, frameSize int) {
	t.Helper()
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: first divergence at byte %d (frame %d, offset %d): got %#x want %#x",
				what, i, i/frameSize, i%frameSize, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: length mismatch: got %d want %d", what, len(got), len(want))
	}
}

var errWriterFull = errors.New("test writer refuses further writes")

// recordingWriter keeps every write it accepts, and refuses all writes
// from the failAt-th on (failAt 0: never), which is how a transmit loop is
// stopped.
type recordingWriter struct {
	bytes.Buffer
	writes []int // length of every accepted write
	failAt int
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	if w.failAt > 0 && len(w.writes)+1 >= w.failAt {
		return 0, errWriterFull
	}
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// TestRenderedCycleMatchesFrameAt pins the wire format: the rendered-cycle
// transmit path must emit exactly the bytes the per-frame path emitted,
// across more than one full cycle (absolute slot numbers beyond the cycle
// length exercise the slot patching).
func TestRenderedCycleMatchesFrameAt(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 40, 283)
	prog, err := NewDTreeProgram(sub, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := prog.transmitter(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	slots := 2*prog.Sched.CycleLen() + 7

	var got, want bytes.Buffer
	if n := sendFrames(t, tx, &got, slots); n != slots {
		t.Fatalf("sent %d slots, want %d", n, slots)
	}
	for s := 0; s < slots; s++ {
		if err := legacyTransmitSlot(&want, prog, s, s, 1); err != nil {
			t.Fatal(err)
		}
	}
	requireSameBytes(t, "rendered cycle", got.Bytes(), want.Bytes(), headerSize+prog.Capacity)
}

// streamOverPipe runs one server connection's broadcast loop over an
// in-memory pipe, where every server write reaches the reader as its own
// read, and returns the receiving end. The loop stops when the test ends.
func streamOverPipe(t *testing.T, prog *Program, configure func(*Server)) (*Server, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ln, prog)
	if err != nil {
		t.Fatal(err)
	}
	srv.StartSlot = func() int { return 0 }
	if configure != nil {
		configure(srv)
	}
	cliEnd, srvEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.streamTo(srvEnd)
	}()
	t.Cleanup(func() {
		cliEnd.Close()
		srvEnd.Close()
		<-done
		srv.Close()
	})
	return srv, cliEnd
}

// TestBatchedTransmitMatchesPerFrame pins the batched serve loop to the
// per-frame reference: the same bytes on the air, the same fault fates,
// swaps picked up exactly at cycle boundaries, and paced servers still
// delivering one frame per slot tick.
func TestBatchedTransmitMatchesPerFrame(t *testing.T) {
	const capacity = 128
	const frameSize = headerSize + capacity
	subSmall, _ := testutil.RandomVoronoi(t, 40, 283)
	small, err := NewDTreeProgram(subSmall, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	subLarge, _ := testutil.RandomVoronoi(t, 400, 284)
	large, err := NewDTreeProgram(subLarge, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := max(1, txBatchBytes/frameSize)
	if small.Sched.CycleLen() >= batch || large.Sched.CycleLen() <= batch {
		t.Fatalf("fixture cycles %d and %d must bracket the %d-frame batch",
			small.Sched.CycleLen(), large.Sched.CycleLen(), batch)
	}

	t.Run("perfect-wraps", func(t *testing.T) {
		for _, prog := range []*Program{small, large} {
			cycle := prog.Sched.CycleLen()
			const start = 5 // mid-cycle: the first batch is short
			w := &recordingWriter{failAt: 3*(cycle/batch+2) + 1}
			m := NewMetrics()
			if err := prog.TransmitObserved(w, start, nil, m); !errors.Is(err, errWriterFull) {
				t.Fatalf("transmit stopped with %v", err)
			}
			slots := int(m.FramesWritten.Load())
			if slots < 3*cycle {
				t.Fatalf("cycle %d: only %d slots sent, want at least three cycles", cycle, slots)
			}
			var want bytes.Buffer
			for s := start; s < start+slots; s++ {
				if err := legacyTransmitSlot(&want, prog, s, s, 1); err != nil {
					t.Fatal(err)
				}
			}
			requireSameBytes(t, fmt.Sprintf("cycle %d", cycle), w.Bytes(), want.Bytes(), frameSize)
			// Every write is one batch: whole frames, at most a batch, and
			// never across a cycle boundary.
			slot := start
			for i, n := range w.writes {
				frames := n / frameSize
				if n%frameSize != 0 || frames > batch || slot%cycle+frames > cycle {
					t.Fatalf("cycle %d: write %d of %d bytes at slot %d is not one batch", cycle, i, n, slot)
				}
				slot += frames
			}
		}
	})

	t.Run("swap-rebase", func(t *testing.T) {
		srv, conn := streamOverPipe(t, small, nil)
		frame := make([]byte, frameSize)
		if _, err := io.ReadFull(conn, frame); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Swap(large); err != nil {
			t.Fatal(err)
		}
		// The connection holds at most one batch when Swap lands, so the
		// new generation appears within a few cycles of the old program.
		swapAt := -1
		var got, want bytes.Buffer
		got.Write(frame)
		for slot := 1; swapAt < 0 || slot < swapAt+2*large.Sched.CycleLen()+3; slot++ {
			if swapAt < 0 && slot > 10*small.Sched.CycleLen()+batch {
				t.Fatal("swap never reached the connection")
			}
			if _, err := io.ReadFull(conn, frame); err != nil {
				t.Fatal(err)
			}
			got.Write(frame)
			if swapAt < 0 && binary.LittleEndian.Uint32(frame[16:]) == 2 {
				swapAt = slot
			}
		}
		if swapAt%small.Sched.CycleLen() != 0 {
			t.Fatalf("swap picked up at slot %d, not at a cycle boundary of %d", swapAt, small.Sched.CycleLen())
		}
		for s := 0; s < got.Len()/frameSize; s++ {
			var err error
			if s < swapAt {
				err = legacyTransmitSlot(&want, small, s, s, 1)
			} else {
				err = legacyTransmitSlot(&want, large, s, s-swapAt, 2)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		requireSameBytes(t, "swap", got.Bytes(), want.Bytes(), frameSize)
	})

	t.Run("lossy-fates", func(t *testing.T) {
		spec := channel.Spec{Loss: 0.05, Burst: 3, Corrupt: 0.02}
		const seed = 77
		const start = 11
		w := &recordingWriter{failAt: 12}
		m := NewMetrics()
		ch := channel.New(spec.Model(seed), seed+1, nil)
		if err := large.TransmitObserved(w, start, ch, m); !errors.Is(err, errWriterFull) {
			t.Fatalf("transmit stopped with %v", err)
		}
		slots := int(m.FramesWritten.Load() + m.FramesDropped.Load())
		ref := channel.New(spec.Model(seed), seed+1, nil)
		var want bytes.Buffer
		var dropped, corrupted int64
		for s := start; s < start+slots; s++ {
			var f bytes.Buffer
			if err := legacyTransmitSlot(&f, large, s, s, 1); err != nil {
				t.Fatal(err)
			}
			switch ref.TransmitFault(f.Bytes(), headerSize) {
			case channel.Drop:
				dropped++
				continue
			case channel.Corrupt:
				corrupted++
			}
			want.Write(f.Bytes())
		}
		if dropped == 0 || corrupted == 0 {
			t.Fatalf("fixture too clean: %d drops, %d corruptions over %d slots", dropped, corrupted, slots)
		}
		if m.FramesDropped.Load() != dropped || m.FramesCorrupted.Load() != corrupted {
			t.Fatalf("counted %d drops / %d corruptions, reference %d / %d",
				m.FramesDropped.Load(), m.FramesCorrupted.Load(), dropped, corrupted)
		}
		requireSameBytes(t, "lossy", w.Bytes(), want.Bytes(), frameSize)
	})

	t.Run("paced", func(t *testing.T) {
		_, conn := streamOverPipe(t, small, func(s *Server) {
			s.SlotDuration = 200 * time.Microsecond
			s.StartSlot = func() int { return 3 }
		})
		buf := make([]byte, txBatchBytes)
		var want bytes.Buffer
		for s := 3; s < 3+small.Sched.CycleLen()+5; s++ {
			n, err := conn.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != frameSize {
				t.Fatalf("slot %d: paced server wrote %d bytes in one write, want one %d-byte frame", s, n, frameSize)
			}
			want.Reset()
			if err := legacyTransmitSlot(&want, small, s, s, 1); err != nil {
				t.Fatal(err)
			}
			requireSameBytes(t, fmt.Sprintf("paced slot %d", s), buf[:n], want.Bytes(), frameSize)
		}
	})
}

// TestTransmitCountersMatchWriter pins the counters' honesty when the
// writer fails mid-stream: frames and bytes written are exactly what the
// writer accepted, and written plus dropped frames are exactly the slots of
// the batches that reached it — the refused batch counts nowhere.
func TestTransmitCountersMatchWriter(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 400, 284)
	prog, err := NewDTreeProgram(sub, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	frameSize := headerSize + prog.Capacity
	cycle, batch := prog.Sched.CycleLen(), max(1, txBatchBytes/frameSize)
	spec := channel.Spec{Loss: 0.05, Burst: 3, Corrupt: 0.02}
	for _, lossy := range []bool{false, true} {
		for _, failAt := range []int{1, 2, 5} {
			const start = 17
			var ch *channel.Channel
			if lossy {
				ch = channel.New(spec.Model(int64(failAt)), 3, nil)
			}
			w := &recordingWriter{failAt: failAt}
			m := NewMetrics()
			if err := prog.TransmitObserved(w, start, ch, m); !errors.Is(err, errWriterFull) {
				t.Fatalf("transmit stopped with %v", err)
			}
			// The slots of the accepted batches, from the batch geometry.
			slots := 0
			for i := 1; i < failAt; i++ {
				slots += min(batch, cycle-(start+slots)%cycle)
			}
			accepted := int64(w.Len())
			if m.BytesWritten.Load() != accepted || m.FramesWritten.Load()*int64(frameSize) != accepted {
				t.Errorf("lossy=%v failAt=%d: counted %d frames / %d bytes, writer accepted %d bytes",
					lossy, failAt, m.FramesWritten.Load(), m.BytesWritten.Load(), accepted)
			}
			if got := m.FramesWritten.Load() + m.FramesDropped.Load(); got != int64(slots) {
				t.Errorf("lossy=%v failAt=%d: written+dropped = %d, accepted batches consumed %d slots",
					lossy, failAt, got, slots)
			}
		}
	}
}

// TestTransmitPerfectChannelZeroAllocs pins the tentpole property: once the
// cycle is rendered and the connection's batch buffer exists, filling a
// batch on the perfect channel performs zero heap allocations.
func TestTransmitPerfectChannelZeroAllocs(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 40, 283)
	prog, err := NewDTreeProgram(sub, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := prog.transmitter(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := tx.batchFrames()
	slot := 0
	allocs := testing.AllocsPerRun(500, func() {
		_, k, _, _ := tx.fill(slot, slot, n, 1)
		slot += k
	})
	if allocs != 0 {
		t.Fatalf("perfect-channel fill allocates %.1f objects/batch, want 0", allocs)
	}
}

// TestClientDozeZeroAlloc pins the client half of the hot path: skimming a
// frame (header parsed in place, payload discarded unread) allocates
// nothing.
func TestClientDozeZeroAlloc(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 40, 283)
	prog, err := NewDTreeProgram(sub, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := prog.transmitter(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3000
	var air bytes.Buffer
	sendFrames(t, tx, &air, runs+1)
	c := NewClient(bytes.NewReader(air.Bytes()), prog.Capacity)
	doze := func(Header) bool { return false }
	var res Result
	allocs := testing.AllocsPerRun(runs, func() {
		if _, payload, _, err := c.advance(&res, doze); err != nil || payload != nil {
			t.Fatalf("skim: payload %v, err %v", payload != nil, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("dozing allocates %.2f objects per frame, want 0", allocs)
	}
	if res.LastSlot != runs {
		t.Fatalf("skimmed to slot %d, want %d", res.LastSlot, runs)
	}
}

// TestRenderedSize sanity-checks the startup diagnostic.
func TestRenderedSize(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 20, 117)
	prog, err := NewDTreeProgram(sub, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	frames, size, err := prog.RenderedSize()
	if err != nil {
		t.Fatal(err)
	}
	if frames != prog.Sched.CycleLen() {
		t.Errorf("frames = %d, want cycle %d", frames, prog.Sched.CycleLen())
	}
	if want := frames * (headerSize + prog.Capacity); size != want {
		t.Errorf("size = %d, want %d", size, want)
	}
}
