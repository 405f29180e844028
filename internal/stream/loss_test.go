package stream

import (
	"math/rand"
	"net"
	"testing"

	"airindex/internal/channel"
	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/testutil"
	"airindex/internal/wire"
)

// lossFixture is a broadcast program transmitted through a fault channel
// over an in-memory pipe, with its ground-truth subdivision.
type lossFixture struct {
	sub    *region.Subdivision
	prog   *Program
	client *Client
}

// newLossFixture starts a listener-less transmitter on one end of a
// net.Pipe and a client on the other.
func newLossFixture(t *testing.T, n, capacity, startSlot int, ch *channel.Channel) *lossFixture {
	t.Helper()
	sub, _ := testutil.RandomVoronoi(t, n, int64(n)*13+5)
	prog, err := NewDTreeProgram(sub, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	cliEnd, srvEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		prog.TransmitObserved(srvEnd, startSlot, ch, nil) //nolint:errcheck
	}()
	t.Cleanup(func() {
		cliEnd.Close()
		srvEnd.Close()
		<-done
	})
	return &lossFixture{sub: sub, prog: prog, client: NewClient(cliEnd, capacity)}
}

// query runs one query and asserts the full contract: correct bucket,
// checksum-verified payload, and latency equal to the span of frames the
// client actually observed (the regression guard for stale latency).
func (fx *lossFixture) query(t *testing.T, p geom.Point, capacity int) Result {
	t.Helper()
	res, err := fx.client.Query(p)
	if err != nil {
		t.Fatalf("query %v: %v", p, err)
	}
	if want := fx.sub.Locate(p); res.Bucket != want && !fx.sub.Regions[res.Bucket].Poly.Contains(p) {
		t.Fatalf("query %v: bucket %d, want %d", p, res.Bucket, want)
	}
	if err := VerifyStampedData(res.Data, capacity, res.Bucket); err != nil {
		t.Fatalf("query %v: %v", p, err)
	}
	if want := float64(res.LastSlot + 1 - res.FirstSlot); res.Latency != want {
		t.Fatalf("query %v: latency %v does not reflect the final frame observed (span %v)",
			p, res.Latency, want)
	}
	return res
}

// TestLossMatrix is the acceptance gate of the lossy-channel subsystem:
// under every fault model at rates up to 10%, every streamed query must
// still return the correct bucket with checksum-verified data.
func TestLossMatrix(t *testing.T) {
	const capacity, n = 512, 60
	type cell struct {
		name string
		spec channel.Spec
	}
	var cells []cell
	for i, rate := range []float64{0.02, 0.05, 0.10} {
		seed := int64(31 + 10*i)
		cells = append(cells,
			cell{"bernoulli", channel.Spec{Loss: rate, Seed: seed}},
			cell{"gilbert-elliott", channel.Spec{Loss: rate, Burst: 4, Seed: seed + 1}},
			cell{"corruption", channel.Spec{Corrupt: rate, Seed: seed + 2}},
		)
	}
	for _, c := range cells {
		stats := &channel.Stats{}
		ch := channel.New(c.spec.Model(c.spec.Seed+1), c.spec.Seed+2, stats)
		fx := newLossFixture(t, n, capacity, 17, ch)
		rng := rand.New(rand.NewSource(404))
		var recoveries, lost, corrupt int
		for q := 0; q < 12; q++ {
			p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
			res := fx.query(t, p, capacity)
			recoveries += res.Recoveries
			lost += res.LostSlots
			corrupt += res.CorruptFrames
		}
		snap := stats.Snapshot()
		if c.name == "corruption" {
			if snap.Corrupted == 0 {
				t.Errorf("%s %+v: channel corrupted nothing (%v)", c.name, c.spec, snap)
			}
		} else if snap.Dropped == 0 || lost == 0 {
			t.Errorf("%s %+v: channel dropped %d, client observed %d lost slots",
				c.name, c.spec, snap.Dropped, lost)
		}
		t.Logf("%s loss=%.2f corrupt=%.2f: %v; recoveries %d, lost slots %d, corrupt frames %d",
			c.name, c.spec.Loss, c.spec.Corrupt, snap, recoveries, lost, corrupt)
	}
}

// scriptModel assigns scripted faults to frame ordinals (counted from the
// start of transmission); unlisted frames are delivered.
type scriptModel struct {
	n      int
	faults map[int]channel.Fault
}

func (s *scriptModel) Name() string { return "script" }
func (s *scriptModel) Next() channel.Fault {
	f := s.faults[s.n]
	s.n++
	return f
}

// scriptBucketFaults scripts a fault on the given packet of one bucket's
// occurrence in each of the first `cycles` broadcast cycles.
func scriptBucketFaults(prog *Program, startSlot, bucket, pkt, cycles int, f channel.Fault) *scriptModel {
	sched := prog.Sched
	first := sched.NextBucketStart(bucket, float64(startSlot))
	faults := map[int]channel.Fault{}
	for k := 0; k < cycles; k++ {
		faults[first+k*sched.CycleLen()+pkt-startSlot] = f
	}
	return &scriptModel{faults: faults}
}

// anyPoint picks a seeded query point and its ground-truth bucket.
func (fx *lossFixture) anyPoint(seed int64) (geom.Point, int) {
	rng := rand.New(rand.NewSource(seed))
	p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
	return p, fx.sub.Locate(p)
}

// TestClientRecoversFromScriptedDataLoss drops the second packet of the
// queried bucket for several consecutive cycles: the client must discard
// the broken runs, retry on later cycles, and deliver intact data with the
// retries reflected in latency and recovery counters. The pre-recovery
// client failed outright on the first broken run.
func TestClientRecoversFromScriptedDataLoss(t *testing.T) {
	const capacity, n, start = 512, 40, 5
	// Build the fixture once without faults to learn the program layout,
	// then rebuild the channel with the scripted drops.
	base := newLossFixture(t, n, capacity, start, nil)
	p, bucket := base.anyPoint(777)
	if bp := wire.DTreeParams(capacity).DataBucketPackets(); bp != 2 {
		t.Fatalf("fixture expects 2-packet buckets, got %d", bp)
	}
	model := scriptBucketFaults(base.prog, start, bucket, 1, 3, channel.Drop)
	ch := channel.New(model, 9, nil)
	fx := newLossFixture(t, n, capacity, start, ch)

	res := fx.query(t, p, capacity)
	if res.Recoveries == 0 {
		t.Errorf("no recoveries recorded: %+v", res)
	}
	if res.LostSlots == 0 {
		t.Errorf("no lost slots observed: %+v", res)
	}
	if res.Latency <= float64(fx.prog.Sched.CycleLen()) {
		t.Errorf("latency %v does not include the retry cycles (cycle %d)",
			res.Latency, fx.prog.Sched.CycleLen())
	}
	if res.TuneRecover == 0 {
		t.Errorf("recovery cost no tuning: %+v", res)
	}
}

// TestClientRecoversFromScriptedCorruption corrupts the first packet of
// the queried bucket for several cycles: the checksum must expose every
// damaged download and the client must retry until a clean copy arrives.
func TestClientRecoversFromScriptedCorruption(t *testing.T) {
	const capacity, n, start = 512, 40, 5
	base := newLossFixture(t, n, capacity, start, nil)
	p, bucket := base.anyPoint(778)
	model := scriptBucketFaults(base.prog, start, bucket, 0, 3, channel.Corrupt)
	ch := channel.New(model, 9, nil)
	fx := newLossFixture(t, n, capacity, start, ch)

	res := fx.query(t, p, capacity)
	if res.CorruptFrames == 0 {
		t.Errorf("checksum caught no corruption: %+v", res)
	}
	if res.Recoveries == 0 || res.TuneRecover == 0 {
		t.Errorf("corruption recovery not accounted: %+v", res)
	}
	if res.Latency <= float64(fx.prog.Sched.CycleLen()) {
		t.Errorf("latency %v does not include the retry cycles", res.Latency)
	}
}

// TestLatencyReflectsFinalFrame is the regression test for the latency
// accounting fix: on a perfect channel the reported latency must equal the
// span from the initial probe to the final frame observed — previously it
// could go stale when bucket retrieval dozed past the end of the bucket.
func TestLatencyReflectsFinalFrame(t *testing.T) {
	const capacity, n = 256, 50
	fx := newLossFixture(t, n, capacity, 3, nil)
	rng := rand.New(rand.NewSource(11))
	for q := 0; q < 20; q++ {
		p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		res := fx.query(t, p, capacity) // asserts Latency == LastSlot+1-FirstSlot
		if res.Recoveries != 0 || res.LostSlots != 0 || res.CorruptFrames != 0 {
			t.Fatalf("perfect channel reported faults: %+v", res)
		}
		if res.TuneRecover != 0 {
			t.Fatalf("perfect channel charged recovery tuning: %+v", res)
		}
	}
}

// TestServerChannelFactory runs the full TCP server with a per-connection
// fault factory and two concurrent clients — the race-detector path for
// the fault middleware on the concurrent transmit path.
func TestServerChannelFactory(t *testing.T) {
	const capacity = 256
	sub, _ := testutil.RandomVoronoi(t, 40, 40*13+5)
	prog, err := NewDTreeProgram(sub, capacity, 0)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ln, prog)
	if err != nil {
		t.Fatal(err)
	}
	stats := &channel.Stats{}
	srv.Channel = channel.Spec{Loss: 0.05, Burst: 3, Corrupt: 0.01, Seed: 77}.Factory(stats)
	srv.StartSlot = func() int { return 0 }
	go srv.Serve() //nolint:errcheck
	defer srv.Close()

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(seed int64) {
			client, err := Dial(srv.Addr().String(), capacity)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 8; q++ {
				p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
				res, err := client.Query(p)
				if err != nil {
					errs <- err
					return
				}
				if err := VerifyStampedData(res.Data, capacity, res.Bucket); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(int64(i + 1))
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if snap := stats.Snapshot(); snap.Dropped == 0 {
		t.Errorf("factory channels dropped nothing: %v", snap)
	}
}
