package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"time"

	"airindex/internal/channel"
	"airindex/internal/dataset"
	"airindex/internal/fabric"
	"airindex/internal/geom"
	"airindex/internal/obs"
	"airindex/internal/stream"
)

const (
	capacity  = 512 // packet capacity, bytes
	setupReps = 5   // set-ups per run; setup_s is their median
	shards    = 4   // channels of the sharded workload
)

// The sharded workload's Gilbert-Elliott fault channel.
var lossySpec = channel.Spec{Loss: 0.02, Burst: 3, Corrupt: 0.005}

// timedSetup builds the broadcast setupReps times, closing all but the
// last, and records the median build time as setup_s.
func timedSetup[T interface{ close() }](r *run, build func() (T, error)) (T, error) {
	var last T
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			last.close()
			last = *new(T) // let the closed broadcast be collected before the next build
		}
		runtime.GC()
		t0 := time.Now()
		b, err := build()
		if err != nil {
			var zero T
			return zero, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		last = b
	}
	recordSetup(r, times)
	return last, nil
}

// recordSetup reports the median of a run's set-up times as setup_s.
func recordSetup(r *run, times []float64) {
	r.set("setup_s", median(times), "s")
	r.detail["setup_s_samples"] = times
}

// listenServe starts a server for prog on a loopback port.
func listenServe(prog *stream.Program, served chan<- error) (*stream.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := stream.NewServer(ln, prog)
	if err != nil {
		ln.Close()
		return nil, err
	}
	go func() { served <- srv.Serve() }()
	return srv, nil
}

// stopServers closes every server and waits for each Serve to return.
func stopServers(srvs []*stream.Server, served <-chan error) {
	for _, s := range srvs {
		s.Close()
	}
	for range srvs {
		if err := <-served; err != nil && !errors.Is(err, stream.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
		}
	}
}

// single is a one-channel broadcast: a stream.Swapper feeding one server
// over a perfect channel.
type single struct {
	sw     *stream.Swapper
	srv    *stream.Server
	served chan error
}

func startSingle(ds dataset.Dataset) (*single, error) {
	sw, err := stream.NewSwapper(ds.Area, ds.Sites, capacity, 0)
	if err != nil {
		return nil, err
	}
	if _, err := sw.Program().Rendered(); err != nil {
		return nil, err
	}
	s := &single{sw: sw, served: make(chan error, 1)}
	if s.srv, err = listenServe(sw.Program(), s.served); err != nil {
		return nil, err
	}
	sw.Bind(s.srv)
	return s, nil
}

func (s *single) close() { stopServers([]*stream.Server{s.srv}, s.served) }

func (s *single) frames() int64 { return s.srv.Metrics().FramesWritten.Load() }

func (s *single) compileNS() float64 { return histTotal(s.srv.Metrics().CutBuildNS) }

func (s *single) sink(spans *spanLog) *recSink {
	return newRecSink(func(ops []stream.SiteOp) ([]uint32, []int, error) {
		gen, ids, err := s.sw.Apply(ops)
		return []uint32{gen}, ids, err
	}, s.sw.Pending, spans)
}

// client dials the broadcast and returns a query function that answers
// one point and records what the verifier and the metrics need.
func (s *single) client() (queryFunc, func(), error) {
	c, err := stream.Dial(s.srv.Addr().String(), capacity)
	if err != nil {
		return nil, nil, err
	}
	query := func(p geom.Point, _ *rand.Rand, q *qrec) {
		q.p = p
		q.start = time.Now()
		res, err := c.Query(p)
		q.end = time.Now()
		if err == nil {
			err = stream.VerifyStampedData(res.Data, capacity, res.Bucket)
		}
		q.err = err
		q.ans, q.gen = res.Bucket, res.Generation
		q.slots = res.Latency
		q.tune = [5]int{res.TuneProbe, 0, res.TuneIndex, res.TuneData, res.TuneRecover}
		q.dozed, q.recoveries, q.restarts = res.DozedFrames, res.Recoveries, res.EpochRestarts
	}
	return query, func() { c.Close() }, nil
}

// sharded is the S-channel fabric: a fabric.Swapper feeding one server
// per channel, every connection behind its own seeded lossy channel.
type sharded struct {
	sw     *fabric.Swapper
	srvs   []*stream.Server
	served chan error
	stats  *channel.Stats
}

func startSharded(ds dataset.Dataset, seed int64) (*sharded, error) {
	sw, err := fabric.NewSwapper(ds.Area, ds.Sites, shards, capacity, fabric.Options{})
	if err != nil {
		return nil, err
	}
	s := &sharded{sw: sw, served: make(chan error, shards), stats: &channel.Stats{}}
	for ch, prog := range sw.Programs() {
		if _, err := prog.Rendered(); err != nil {
			s.close()
			return nil, err
		}
		srv, err := listenServe(prog, s.served)
		if err != nil {
			s.close()
			return nil, err
		}
		spec := lossySpec
		spec.Seed = subSeed(seed, seedChannels+int64(ch))
		srv.Channel = spec.Factory(s.stats)
		sw.Bind(ch, srv)
		s.srvs = append(s.srvs, srv)
	}
	return s, nil
}

func (s *sharded) close() { stopServers(s.srvs, s.served) }

func (s *sharded) frames() int64 {
	var n int64
	for _, srv := range s.srvs {
		n += srv.Metrics().FramesWritten.Load()
	}
	return n
}

func (s *sharded) compileNS() float64 {
	t := 0.0
	for _, srv := range s.srvs {
		t += histTotal(srv.Metrics().CutBuildNS)
	}
	return t
}

func (s *sharded) sink(spans *spanLog) *recSink {
	return newRecSink(s.sw.Apply, s.sw.Pending, spans)
}

func (s *sharded) client() (queryFunc, func(), error) {
	addrs := make([]string, len(s.srvs))
	for i, srv := range s.srvs {
		addrs[i] = srv.Addr().String()
	}
	c := fabric.NewClient(addrs, capacity)
	query := func(p geom.Point, rng *rand.Rand, q *qrec) {
		entry := rng.Intn(len(addrs))
		q.p = p
		q.start = time.Now()
		res, err := c.QueryFrom(p, entry)
		q.end = time.Now()
		q.err = err
		q.ans, q.gen = res.Global, res.Generation
		q.slots = res.Latency
		q.tune = [5]int{res.TuneProbe, res.TuneDirectory, res.TuneIndex, res.TuneData, res.TuneRecover}
		q.dozed, q.recoveries, q.restarts, q.hops = res.DozedFrames, res.Recoveries, res.EpochRestarts, res.Hops
	}
	return query, func() { c.Close() }, nil
}

// closeWithin closes an ingest pipeline, draining its queue through final
// cuts, or fails after d.
func closeWithin(close func(context.Context) error, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return close(ctx)
}

// histTotal is the sum of the samples an obs histogram still holds (its
// ring outlasts every run here, so this is the sum of all samples).
func histTotal(h *obs.Histogram) float64 {
	sn := h.Snapshot()
	return sn.Mean * float64(sn.Window)
}

// Independent random streams derived from the workload seed. The dataset
// generators take the seed itself, so no stream may reuse it: queries
// drawn from the dataset's own stream would land exactly on its sites.
const (
	seedQueries  = 1
	seedOps      = 2
	seedDecode   = 3
	seedServe    = 4
	seedChannels = 16 // + channel index
	seedPhases   = 32 // + churn phase index
)

func subSeed(seed, stream int64) int64 { return seed*1_000_003 + stream }

func randPoint(rng *rand.Rand, area geom.Rect) geom.Point {
	return geom.Pt(area.MinX+rng.Float64()*area.W(), area.MinY+rng.Float64()*area.H())
}
