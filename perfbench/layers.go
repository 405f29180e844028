package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"airindex/internal/channel"
	"airindex/internal/core"
	"airindex/internal/dataset"
	"airindex/internal/fabric"
	"airindex/internal/geom"
	"airindex/internal/region"
	"airindex/internal/stream"
	"airindex/internal/voronoi"
	"airindex/internal/wire"
)

// layerProg is one served channel as the layer replays see it: its
// broadcast program and its bare D-tree index packets.
type layerProg struct {
	prog    *stream.Program
	packets func() ([][]byte, error)
}

const (
	serveFrames   = 300000 // frames per serve replay
	serveReps     = 3
	decodeQueries = 20000
	fullCompiles  = 3 // cuts replayed as from-scratch compiles
)

// traceLayers runs the traced run's replays on the workload's own data:
// the build chain stage by stage (over the shard subdivisions when
// sharded), the serve loop per frame, the client decoder per packet, and
// a from-scratch compile of generations the cuts built incrementally.
func traceLayers(r *run, ds dataset.Dataset, shardSubs []*region.Subdivision, progs []*layerProg, cuts []cutRec,
	cutSub func(cut cutRec, prev []uint32) *region.Subdivision, route func(geom.Point) int) error {
	if err := buildChain(r, ds, shardSubs); err != nil {
		return fmt.Errorf("build replay: %w", err)
	}
	if err := serveReplay(r, progs[0].prog); err != nil {
		return fmt.Errorf("serve replay: %w", err)
	}
	if err := decodeReplay(r, ds.Area, progs, route); err != nil {
		return fmt.Errorf("decode replay: %w", err)
	}
	return compileReplay(r, cuts, cutSub)
}

// buildChain times each build stage once and compares their sum with
// setup_s; the unaccounted share (negative when stages overlapped on
// several cores) is reported by name.
func buildChain(r *run, ds dataset.Dataset, shardSubs []*region.Subdivision) error {
	var stages time.Duration
	lap := func(name string, t0 time.Time) {
		d := time.Since(t0)
		stages += d
		r.set(name, ms(d), "ms")
	}
	t0 := time.Now()
	cells, err := voronoi.Cells(ds.Area, ds.Sites)
	if err != nil {
		return err
	}
	lap("voronoi.cells_ms", t0)
	t0 = time.Now()
	sub, err := region.New(ds.Area, cells)
	if err != nil {
		return err
	}
	lap("region.weld_ms", t0)
	t0 = time.Now()
	if _, _, _, err := fabric.Partition(ds.Area, ds.Sites, shards); err != nil {
		return err
	}
	part := time.Since(t0)
	r.set("fabric.partition_ms", ms(part), "ms")
	subs := shardSubs
	if subs == nil {
		subs = []*region.Subdivision{sub}
	} else {
		stages += part // the sharded set-up partitions; a single channel does not
	}
	var build, page, flatten, encode, render time.Duration
	packets, frames := 0, 0
	for _, s := range subs {
		t0 := time.Now()
		tree, err := core.Build(s)
		if err != nil {
			return err
		}
		t1 := time.Now()
		paged, err := tree.Page(wire.DTreeParams(capacity))
		if err != nil {
			return err
		}
		t2 := time.Now()
		fp := paged.Flatten()
		t3 := time.Now()
		pk, err := fp.EncodePackets()
		if err != nil {
			return err
		}
		t4 := time.Now()
		prog, err := stream.ProgramFromFlat(fp, 0)
		if err != nil {
			return err
		}
		if _, err := prog.Rendered(); err != nil {
			return err
		}
		t5 := time.Now()
		build += t1.Sub(t0)
		page += t2.Sub(t1)
		flatten += t3.Sub(t2)
		encode += t4.Sub(t3)
		render += t5.Sub(t4)
		packets += len(pk)
		frames += prog.Sched.CycleLen()
	}
	stages += build + page + flatten + encode + render
	r.set("core.build_ms", ms(build), "ms")
	r.set("core.page_ms", ms(page), "ms")
	r.set("core.flatten_ms", ms(flatten), "ms")
	r.set("core.encode_ms", ms(encode), "ms")
	r.set("stream.render_ms", ms(render), "ms")
	r.set("core.index_packets", float64(packets), "pkts")
	r.set("stream.cycle_frames", float64(frames)/float64(len(subs)), "frames")
	r.set("bench.setup_unaccounted_frac", 1-stages.Seconds()/r.metrics["setup_s"].Value, "fraction")
	return nil
}

var errCutoff = errors.New("serve replay: frame budget spent")

// cutoffWriter discards what it is given and fails once limit bytes have
// passed, which is how a listener-less transmit loop is stopped.
type cutoffWriter struct{ n, limit int64 }

func (w *cutoffWriter) Write(p []byte) (int, error) {
	if w.n >= w.limit {
		return 0, errCutoff
	}
	w.n += int64(len(p))
	return len(p), nil
}

// serveReplay times the per-frame transmit loop into a discarding writer,
// on a perfect channel and behind the sharded workload's lossy channel.
func serveReplay(r *run, prog *stream.Program) error {
	perFrame := func(lossy bool) (float64, error) {
		var samples []float64
		for i := 0; i < serveReps; i++ {
			var ch *channel.Channel
			if lossy {
				seed := subSeed(r.cfg.Seed, seedServe) + int64(i)
				ch = channel.New(lossySpec.Model(seed), seed+1, &channel.Stats{})
			}
			m := stream.NewMetrics()
			// A frame is a 24-byte header plus at most Capacity payload bytes.
			w := &cutoffWriter{limit: serveFrames * int64(24+prog.Capacity)}
			t0 := time.Now()
			err := prog.TransmitObserved(w, 0, ch, m)
			d := time.Since(t0)
			if !errors.Is(err, errCutoff) {
				return 0, err
			}
			slots := m.FramesWritten.Load() + m.FramesDropped.Load()
			samples = append(samples, float64(d.Nanoseconds())/float64(slots))
		}
		return median(samples), nil
	}
	ns, err := perFrame(false)
	if err != nil {
		return err
	}
	r.set("stream.serve_ns_per_frame", ns, "ns")
	if ns, err = perFrame(true); err != nil {
		return err
	}
	r.set("stream.serve_ns_per_frame_lossy", ns, "ns")
	return nil
}

// decodeReplay times the client decoder over captured index packets: each
// point is routed to its channel and located from that channel's packets.
func decodeReplay(r *run, area geom.Rect, progs []*layerProg, route func(geom.Point) int) error {
	packets := make([][][]byte, len(progs))
	for i, lp := range progs {
		pk, err := lp.packets()
		if err != nil {
			return err
		}
		packets[i] = pk
	}
	rng := rand.New(rand.NewSource(subSeed(r.cfg.Seed, seedDecode)))
	points := make([]geom.Point, decodeQueries)
	for i := range points {
		points[i] = randPoint(rng, area)
	}
	var loc core.ClientLocator
	read := 0
	var elapsed time.Duration
	for _, p := range points {
		ch := 0
		if route != nil {
			ch = route(p)
		}
		pk := packets[ch]
		get := func(k int) ([]byte, error) {
			if k < 0 || k >= len(pk) {
				return nil, fmt.Errorf("packet %d of %d", k, len(pk))
			}
			return pk[k], nil
		}
		t0 := time.Now()
		_, trace, err := loc.Locate(get, capacity, p)
		elapsed += time.Since(t0)
		if err != nil {
			return err
		}
		read += len(trace)
	}
	r.set("core.client_decode_ns_per_pkt", float64(elapsed.Nanoseconds())/float64(read), "ns")
	return nil
}

// compileReplay compiles from scratch, with stream.CompileDTree, the
// subdivision of a few generations the cuts built incrementally, and
// compares with the cut time.
func compileReplay(r *run, cuts []cutRec, cutSub func(cut cutRec, prev []uint32) *region.Subdivision) error {
	var samples []float64
	step := max(len(cuts)/fullCompiles, 1)
	for i := 0; i < len(cuts) && len(samples) < fullCompiles; i += step {
		var prev []uint32
		if i > 0 {
			prev = cuts[i-1].gens
		}
		sub := cutSub(cuts[i], prev)
		if sub == nil {
			continue
		}
		t0 := time.Now()
		if _, _, err := stream.CompileDTree(sub, capacity, 0); err != nil {
			return err
		}
		samples = append(samples, ms(time.Since(t0)))
	}
	if len(samples) == 0 {
		return fmt.Errorf("no cut left a generation to recompile")
	}
	full := quantile(samples, 50)
	r.setQ("stream.cut_full_compile_ms_p50", full, "ms")
	r.set("stream.cut_incremental_speedup", full.Value/r.metrics["stream.cut_ms_p50"].Value, "ratio")
	return nil
}
