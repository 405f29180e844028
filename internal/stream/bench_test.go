package stream

import (
	"bytes"
	"io"
	"testing"

	"airindex/internal/channel"
	"airindex/internal/testutil"
)

func benchProgram(b *testing.B, n, capacity int) *Program {
	b.Helper()
	sub, _ := testutil.RandomVoronoi(b, n, int64(n)*7+3)
	prog, err := NewDTreeProgram(sub, capacity, 0)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// sendFrames transmits frames [0, frames) in full batches into w, as the
// live server's loop does, and returns the slots consumed.
func sendFrames(tb testing.TB, tx *transmitter, w io.Writer, frames int) int {
	n := tx.batchFrames()
	slot := 0
	for slot < frames {
		k, err := tx.send(w, slot, slot, min(n, frames-slot), 1)
		if err != nil {
			tb.Fatal(err)
		}
		slot += k
	}
	return slot
}

// BenchmarkTransmitHotPath measures the per-frame cost of the transmit hot
// path exactly as the live server runs it: batches filled and written in
// one call each, no fault middleware, shared server metrics attached —
// every frame outcome is counted. bytes/op is the wire rate; allocs/op must
// be 0 (the batch buffer is the connection's, instrumentation is a few
// atomic adds per batch; TestTransmitHotPathZeroAlloc enforces the same
// contract as a hard test failure).
func BenchmarkTransmitHotPath(b *testing.B) {
	prog := benchProgram(b, 200, 256)
	m := NewMetrics()
	tx, err := prog.transmitter(nil, m)
	if err != nil {
		b.Fatal(err)
	}
	tx.fill(0, 0, tx.batchFrames(), 1) // size the batch buffer
	b.SetBytes(int64(headerSize + prog.Capacity))
	b.ReportAllocs()
	b.ResetTimer()
	sendFrames(b, tx, io.Discard, b.N)
	if got := m.FramesWritten.Load(); got != int64(b.N) {
		b.Fatalf("metrics counted %d frames, wrote %d", got, b.N)
	}
}

// TestTransmitHotPathZeroAlloc pins the zero-allocation contract of the
// instrumented transmit path: with metrics enabled, filling and writing a
// batch on the perfect-channel path allocates nothing.
func TestTransmitHotPathZeroAlloc(t *testing.T) {
	sub, _ := testutil.RandomVoronoi(t, 200, 1403)
	prog, err := NewDTreeProgram(sub, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	tx, err := prog.transmitter(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	n := tx.batchFrames()
	slot := 0
	allocs := testing.AllocsPerRun(200, func() {
		k, err := tx.send(io.Discard, slot, slot, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		slot += k
	})
	if allocs != 0 {
		t.Fatalf("instrumented transmit hot path allocates %.1f times per batch, want 0", allocs)
	}
	if m.FramesWritten.Load() != int64(slot) || m.BytesWritten.Load() != int64(slot*(headerSize+prog.Capacity)) {
		t.Fatalf("metrics counted %d frames / %d bytes for %d slots",
			m.FramesWritten.Load(), m.BytesWritten.Load(), slot)
	}
}

// BenchmarkTransmitPerfectChannel measures the per-frame cost of filling
// batches with no fault middleware — the copy-and-patch work every
// connection of the live server does for every slot, without the write.
// allocs/op is the regression guard (0: the batch buffer is reused).
func BenchmarkTransmitPerfectChannel(b *testing.B) {
	prog := benchProgram(b, 200, 256)
	tx, err := prog.transmitter(nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	benchFill(b, tx, headerSize+prog.Capacity)
}

// BenchmarkTransmitLossyChannel measures batch filling behind a lossy,
// corrupting fault channel: every frame is consulted in place, dropped
// frames are rewound out of the buffer.
func BenchmarkTransmitLossyChannel(b *testing.B) {
	prog := benchProgram(b, 200, 256)
	spec := channel.Spec{Loss: 0.05, Burst: 4, Corrupt: 0.01, Seed: 1}
	tx, err := prog.transmitter(spec.Factory(&channel.Stats{})(), nil)
	if err != nil {
		b.Fatal(err)
	}
	benchFill(b, tx, headerSize+prog.Capacity)
}

// benchFill fills b.N frames in full batches (ns/op is per frame).
func benchFill(b *testing.B, tx *transmitter, frameSize int) {
	n := tx.batchFrames()
	tx.fill(0, 0, n, 1) // size the batch buffer
	b.SetBytes(int64(frameSize))
	b.ReportAllocs()
	b.ResetTimer()
	for slot := 0; slot < b.N; {
		_, k, _, _ := tx.fill(slot, slot, min(n, b.N-slot), 1)
		slot += k
	}
}

// BenchmarkRenderCycle measures the one-time cost of rendering a full
// broadcast cycle (the table the zero-allocation path serves from).
func BenchmarkRenderCycle(b *testing.B) {
	prog := benchProgram(b, 200, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rc, err := renderCycle(prog)
		if err != nil {
			b.Fatal(err)
		}
		if rc.cycleLen() == 0 {
			b.Fatal("empty cycle")
		}
	}
}

// BenchmarkClientDoze measures the client's per-frame cost of skimming a
// frame it does not download — header parsed in place in the read buffer,
// payload discarded — over an in-memory stream (ns/op is per frame).
func BenchmarkClientDoze(b *testing.B) {
	prog := benchProgram(b, 200, 512)
	tx, err := prog.transmitter(nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	var air bytes.Buffer
	const frames = 4096
	sendFrames(b, tx, &air, frames)
	doze := func(Header) bool { return false }
	r := bytes.NewReader(air.Bytes())
	c := NewClient(r, prog.Capacity)
	var res Result
	b.SetBytes(int64(headerSize + prog.Capacity))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%frames == 0 {
			r.Reset(air.Bytes())
			c.r.Reset(r)
			c.started = false
		}
		if _, _, _, err := c.advance(&res, doze); err != nil {
			b.Fatal(err)
		}
	}
}
