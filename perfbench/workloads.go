package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"airindex/internal/channel"
	"airindex/internal/dataset"
	"airindex/internal/geom"
	"airindex/internal/ingest"
	"airindex/internal/region"
)

const (
	uniformSites   = 10000 // static-query and churn-ingest
	clusteredSites = 20000 // sharded-lossy
	warmupQueries  = 20    // answered and verified before the window opens
	// slotQueries is the fixed query prefix the paper's costs are averaged
	// over, so latency_slots_mean and tuning_pkts_mean repeat exactly for
	// a seed however fast the host runs; closed loops run at least this long.
	slotQueries = 2000
	// Single site ops the publish probe waits for. A fabric cut retains
	// about 25 MB of history on the 20k-site fabric, so the sharded probe
	// is shorter.
	probeOpsSingle  = 40
	probeOpsSharded = 16

	churnOpPeriod = 10 * time.Millisecond // 100 site ops/s
	// 40 queries/s. A query's slot count spreads over the whole cycle
	// (standard deviation about half the mean), so the mean and median
	// need several hundred queries to settle; at a much higher rate the
	// one connection is busy often enough that queries queue behind each
	// other, and any slowdown of the host is amplified by the queueing.
	churnQueryPeriod = time.Second / 40
)

// broadcast is what the closed-loop workloads need from a live air.
type broadcast interface {
	close()
	frames() int64
	compileNS() float64
	client() (queryFunc, func(), error)
	sink(spans *spanLog) *recSink
}

// runStatic: a 10k-site uniform broadcast on one perfect channel, one
// closed-loop client; the cut chain only runs after the window, in the
// publish probe.
func runStatic(r *run) error {
	ds := dataset.Uniform(uniformSites, r.cfg.Seed)
	b, err := timedSetup(r, func() (*single, error) { return startSingle(ds) })
	if err != nil {
		return err
	}
	defer b.close()
	sites := func(gen uint32) []geom.Point {
		if g := b.sw.Generation(gen); g != nil {
			return g.Sites
		}
		return nil
	}
	return closedWorkload(r, b, ds, sites, nil, probeOpsSingle, func(cuts []cutRec) error {
		return singleLayers(r, ds, b, cuts)
	})
}

// runSharded: a 20k-site clustered fabric on four lossy channels, one
// hopping closed-loop client entering on a seeded channel per query.
func runSharded(r *run) error {
	ds := dataset.LargeClustered(clusteredSites)
	b, err := timedSetup(r, func() (*sharded, error) { return startSharded(ds, r.cfg.Seed) })
	if err != nil {
		return err
	}
	defer b.close()
	sites := func(uint32) []geom.Point { return ds.Sites }
	return closedWorkload(r, b, ds, sites, b.stats, probeOpsSharded, func(cuts []cutRec) error {
		var progs []*layerProg
		var subs []*region.Subdivision
		for ch := 0; ch < shards; ch++ {
			sh := b.sw.Current(ch).Shard
			progs = append(progs, &layerProg{sh.Prog, sh.Flat.EncodePackets})
			subs = append(subs, sh.Sub)
		}
		return traceLayers(r, ds, subs, progs, cuts, func(cut cutRec, prev []uint32) *region.Subdivision {
			for ch, gen := range cut.gens {
				if prev == nil || gen != prev[ch] {
					return b.sw.Generation(ch, gen).Shard.Sub
				}
			}
			return nil
		}, b.sw.Directory().Route)
	})
}

// closedWorkload is the shared body of the closed-loop workloads: warm up,
// measure the window, verify every answer, run the publish probe, and in a
// traced run the layer replays.
func closedWorkload(r *run, b broadcast, ds dataset.Dataset, sites func(uint32) []geom.Point, stats *channel.Stats, probeOps int, layers func([]cutRec) error) error {
	query, closeClient, err := b.client()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(subSeed(r.cfg.Seed, seedQueries)))
	warm := make([]qrec, warmupQueries)
	for i := range warm {
		query(randPoint(rng, ds.Area), rng, &warm[i])
	}
	var mem [2]runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem[0])
	var ch0 channel.Snapshot
	if stats != nil {
		ch0 = stats.Snapshot()
	}
	f0, cpu0 := b.frames(), cpuTime()
	recs, late, window := closedLoop(r, query, rng, ds.Area, slotQueries)
	cpu, frames := cpuTime()-cpu0, b.frames()-f0
	runtime.ReadMemStats(&mem[1])
	closeClient()
	// The peak of set-up and serving; the probe's retained generations and
	// the traced run's replays come after it.
	r.set("rss_peak_mb", peakRSSMB(), "MB")

	verifyQueries(r, warm, sites)
	verifyQueries(r, recs, sites)
	queryMetrics(r, recs, late, window, slotQueries)
	r.set("cpu_s", cpu.Seconds()*1000/float64(len(recs)), "s")
	r.set("stream.frames_per_query", float64(frames)/float64(len(recs)), "frames")
	channelMetrics(r, stats, ch0)
	runtimeMetrics(r, mem)

	sink := b.sink(r.spans)
	if err := probe(r, sink, ds.Area, probeOps, b.compileNS); err != nil {
		return err
	}
	if r.cfg.Trace {
		if err := layers(sink.snapshot()); err != nil {
			return err
		}
	}
	return nil
}

// runChurn: the static broadcast under an open-loop site-op stream at a
// fixed rate through a default ingest pipeline, with open-loop queries on
// one connection beside it. The window is split evenly over setupReps
// phases, each on a freshly built broadcast of its own seeded dataset and
// op stream. Cut cost is heavy-tailed and differs from one dataset to the
// next, and every retained generation grows the heap the queries share
// the CPU with, so one long window on one broadcast drifts with its
// dataset and its age; the pooled phases do not. The phases' set-up times
// give setup_s and their peak resident sizes rss_peak_mb, as medians;
// their queries and site ops are pooled.
func runChurn(r *run) error {
	window := time.Duration(r.cfg.Seconds * float64(time.Second) / setupReps)
	var (
		setups       []float64
		recs         []qrec
		late         []float64
		elapsed, cpu time.Duration
		frames       int64
		offered      int
		mem          [][2]runtime.MemStats
		phases       []opPhase
		phaseP50     []float64
		rss          []float64
		last         *churnOut
	)
	for i := 0; i < setupReps; i++ {
		out, err := churnPhase(r, subSeed(r.cfg.Seed, seedPhases+int64(i)), window, int64(i)*phaseSpanIDs)
		if out != nil && out.b != nil {
			if i < setupReps-1 || err != nil {
				out.b.close()
			} else {
				defer out.b.close()
			}
		}
		if err != nil {
			return fmt.Errorf("phase %d: %w", i, err)
		}
		setups = append(setups, out.setup)
		phaseP50 = append(phaseP50, quantile(wallMS(out.recs), 50).Value)
		rss = append(rss, out.rssMB)
		recs = append(recs, out.recs...)
		late = append(late, out.late...)
		elapsed += out.elapsed
		cpu += out.cpu
		frames += out.frames
		offered += len(out.ops.log)
		mem = append(mem, out.mem)
		phases = append(phases, out.ops)
		last = out
	}
	recordSetup(r, setups)
	r.detail["phase_query_ms_p50"] = phaseP50
	r.set("rss_peak_mb", median(rss), "MB")
	r.detail["phase_rss_peak_mb"] = rss
	queryMetrics(r, recs, late, elapsed, 0)
	r.set("cpu_s", cpu.Seconds()*1000/float64(offered), "s")
	r.set("stream.frames_per_query", float64(frames)/float64(len(recs)), "frames")
	channelMetrics(r, nil, channel.Snapshot{})
	runtimeMetrics(r, mem...)
	if err := opMetrics(r, phases); err != nil {
		return err
	}
	if r.cfg.Trace {
		if err := singleLayers(r, last.ds, last.b, last.ops.cuts); err != nil {
			return err
		}
	}
	return nil
}

// phaseSpanIDs separates the span ids of the churn phases.
const phaseSpanIDs = 1_000_000

// churnOut is one churn phase: its broadcast, still open, and what it
// measured.
type churnOut struct {
	ds           dataset.Dataset
	b            *single
	setup        float64 // seconds
	recs         []qrec
	late         []float64 // query and site-op lateness, ms
	elapsed, cpu time.Duration
	frames       int64
	mem          [2]runtime.MemStats
	rssMB        float64 // the phase's peak
	ops          opPhase
}

// churnPhase builds a broadcast from the phase seed, runs the churn window
// on it, and verifies every answer after the window. The caller closes
// the returned broadcast, also on error.
func churnPhase(r *run, seed int64, window time.Duration, spanID int64) (*churnOut, error) {
	out := &churnOut{ds: dataset.Uniform(uniformSites, seed)}
	// Hand the previous phase's memory back and restart the high-water
	// mark, so each phase's peak is its own.
	debug.FreeOSMemory()
	resetPeakRSS()
	t0 := time.Now()
	b, err := startSingle(out.ds)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	out.setup, out.b = time.Since(t0).Seconds(), b
	sink := b.sink(r.spans)
	sink.spanID = spanID
	im := ingest.NewMetrics()
	pipe := ingest.Start(sink, ingest.Config{Metrics: im})
	query, closeClient, err := b.client()
	if err != nil {
		pipe.Close(nil) //nolint:errcheck
		return out, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, seedQueries)))
	warm := make([]qrec, warmupQueries)
	for i := range warm {
		query(randPoint(rng, out.ds.Area), rng, &warm[i])
	}

	runtime.GC()
	runtime.ReadMemStats(&out.mem[0])
	start := time.Now().Add(time.Millisecond)
	f0, cpu0 := b.frames(), cpuTime()
	g := newOpGen(subSeed(seed, seedOps), out.ds.Area, 0)
	g.spanID = spanID
	var opLate, qLate []float64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		schedule(start, window, churnOpPeriod, func(_ int, due time.Time) {
			o := g.submit(pipe, due, r.spans)
			opLate = append(opLate, ms(o.enq.Sub(due)))
		})
	}()
	go func() {
		defer wg.Done()
		schedule(start, window, churnQueryPeriod, func(i int, due time.Time) {
			var q qrec
			query(randPoint(rng, out.ds.Area), rng, &q)
			q.due = due
			qLate = append(qLate, ms(q.start.Sub(due)))
			r.spans.add("query", spanID+int64(i+1), due, q.end)
			out.recs = append(out.recs, q)
		})
	}()
	wg.Wait()
	out.elapsed, out.cpu, out.frames = time.Since(start), cpuTime()-cpu0, b.frames()-f0
	runtime.ReadMemStats(&out.mem[1])
	closeClient()
	if err := closeWithin(pipe.Close, 60*time.Second); err != nil {
		return out, fmt.Errorf("ingest drain: %w", err)
	}
	out.rssMB = peakRSSMB()

	// Verification only now: Swapper.Generation takes the lock every cut
	// holds, so checking inside the window would stall the queries.
	sites := func(gen uint32) []geom.Point {
		if g := b.sw.Generation(gen); g != nil {
			return g.Sites
		}
		return nil
	}
	verifyQueries(r, warm, sites)
	verifyQueries(r, out.recs, sites)
	out.late = append(qLate, opLate...)
	out.ops = opPhase{g.log, sink.snapshot(), im, b.compileNS()}
	return out, nil
}

// singleLayers runs the layer replays of a one-channel broadcast.
func singleLayers(r *run, ds dataset.Dataset, b *single, cuts []cutRec) error {
	g := b.sw.Current()
	return traceLayers(r, ds, nil, []*layerProg{{g.Prog, g.Flat.EncodePackets}}, cuts, func(cut cutRec, _ []uint32) *region.Subdivision {
		return b.sw.Generation(cut.gens[0]).Sub
	}, nil)
}

// verifyQueries checks every recorded answer against the ground truth of
// the generation it was resolved under.
func verifyQueries(r *run, recs []qrec, sites func(uint32) []geom.Point) {
	for i := range recs {
		q := &recs[i]
		r.tally.Attempted++
		if q.err != nil {
			r.tally.Errors++
			continue
		}
		s := sites(q.gen)
		if s == nil {
			r.tally.Wrong++
			continue
		}
		r.tally.record(judge(s, q.p, q.ans))
	}
	r.set("bench.wrong_answers", float64(r.tally.Wrong), "count")
	r.set("bench.tolerance_accepts", float64(r.tally.Tolerated), "count")
}

// queryMetrics reports the query path. The paper's costs average the
// first slotPrefix queries (all when 0).
func queryMetrics(r *run, recs []qrec, late []float64, window time.Duration, slotPrefix int) {
	wall := wallMS(recs)
	r.setQ("query_ms_p50", quantile(wall, 50), "ms")
	r.setQ("bench.query_ms_p99", quantile(wall, 99), "ms")
	r.set("bench.queries_per_s", float64(len(recs))/window.Seconds(), "1/s")
	pre := recs
	if slotPrefix > 0 && len(pre) > slotPrefix {
		pre = pre[:slotPrefix]
	}
	var slots, tuning []float64
	for i := range pre {
		t := 0
		for _, n := range pre[i].tune {
			t += n
		}
		slots = append(slots, pre[i].slots)
		tuning = append(tuning, float64(t))
	}
	r.set("latency_slots_mean", mean(slots), "slots")
	r.set("tuning_pkts_mean", mean(tuning), "pkts")
	r.detail["slot_queries"] = len(pre)

	per := func(f func(q *qrec) int) float64 {
		t := 0
		for i := range recs {
			t += f(&recs[i])
		}
		return float64(t) / float64(len(recs))
	}
	for i, name := range []string{"stream.tune_probe", "fabric.tune_directory", "stream.tune_index", "stream.tune_data", "stream.tune_recover"} {
		r.set(name, per(func(q *qrec) int { return q.tune[i] }), "pkts")
	}
	r.set("stream.dozed_per_query", per(func(q *qrec) int { return q.dozed }), "frames")
	r.set("fabric.hops_per_query", per(func(q *qrec) int { return q.hops }), "count")
	r.set("stream.recoveries_per_query", per(func(q *qrec) int { return q.recoveries }), "count")
	r.set("stream.epoch_restarts_per_query", per(func(q *qrec) int { return q.restarts }), "count")
	r.setQ("bench.gen_late_ms_p99", quantile(late, 99), "ms")
}

// wallMS is the wall time of every answered query, in ms.
func wallMS(recs []qrec) []float64 {
	var wall []float64
	for i := range recs {
		if recs[i].err == nil {
			wall = append(wall, ms(recs[i].wall()))
		}
	}
	return wall
}

// channelMetrics reports the fault middleware's drop and corruption
// shares over the window (zero on a perfect channel).
func channelMetrics(r *run, stats *channel.Stats, before channel.Snapshot) {
	var drop, corrupt float64
	if stats != nil {
		s := stats.Snapshot()
		if sent := s.Sent - before.Sent; sent > 0 {
			drop = float64(s.Dropped-before.Dropped) / float64(sent)
			corrupt = float64(s.Corrupted-before.Corrupted) / float64(sent)
		}
	}
	r.set("channel.drop_frac", drop, "fraction")
	r.set("channel.corrupt_frac", corrupt, "fraction")
}

// runtimeMetrics reports the Go runtime over the measured windows, each
// given as the MemStats at its start and end.
func runtimeMetrics(r *run, windows ...[2]runtime.MemStats) {
	var gc uint32
	var pause, alloc uint64
	for _, w := range windows {
		gc += w[1].NumGC - w[0].NumGC
		pause += w[1].PauseTotalNs - w[0].PauseTotalNs
		alloc += w[1].TotalAlloc - w[0].TotalAlloc
	}
	r.set("runtime.gc_cycles", float64(gc), "count")
	r.set("runtime.gc_pause_ms", float64(pause)/1e6, "ms")
	r.set("runtime.alloc_mb", float64(alloc)/(1<<20), "MB")
	r.set("runtime.heap_live_mb_end", float64(windows[len(windows)-1][1].HeapAlloc)/(1<<20), "MB")
}
