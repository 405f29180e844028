package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"airindex/internal/geom"
	"airindex/internal/ingest"
	"airindex/internal/stream"
)

// qrec is one query as issued and answered. Verification happens after
// the measured window from these records alone.
type qrec struct {
	p          geom.Point
	due        time.Time // when the query was due (open loop) or issued (closed loop)
	start, end time.Time
	err        error
	ans        int    // bucket (one channel) or global site id (fabric)
	gen        uint32 // generation the answer was resolved against
	slots      float64
	tune       [5]int // probe, directory, index, data, recover
	dozed      int
	recoveries int
	restarts   int
	hops       int
}

func (q *qrec) wall() time.Duration { return q.end.Sub(q.due) }

type queryFunc func(p geom.Point, rng *rand.Rand, q *qrec)

// closedLoop runs one client back to back for the run's window, and on
// until at least minQueries have completed. late collects the gap between
// one query's answer and the next query's issue.
func closedLoop(r *run, query queryFunc, rng *rand.Rand, area geom.Rect, minQueries int) (recs []qrec, late []float64, window time.Duration) {
	deadline := time.Now().Add(time.Duration(r.cfg.Seconds * float64(time.Second)))
	t0 := time.Now()
	prevEnd := t0
	for i := 0; time.Now().Before(deadline) || len(recs) < minQueries; i++ {
		var q qrec
		query(randPoint(rng, area), rng, &q)
		q.due = q.start
		late = append(late, ms(q.start.Sub(prevEnd)))
		prevEnd = q.end
		r.spans.add("query", int64(i+1), q.start, q.end)
		recs = append(recs, q)
	}
	return recs, late, time.Since(t0)
}

// schedule calls fn for each slot i of a fixed-rate schedule over the
// window, sleeping until slot i is due; fn receives the due time. A slot
// whose predecessor overran is issued at once, so its lateness shows.
func schedule(start time.Time, window, period time.Duration, fn func(i int, due time.Time)) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if due.Sub(start) >= window {
			return
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		fn(i, due)
	}
}

// opRec is one site op as offered to the ingest pipeline, and when it
// reached the air.
type opRec struct {
	id       int64 // span id
	handle   int64
	kind     int
	x, y     float64
	due      time.Time
	enq      time.Time // Enqueue called
	admitted time.Time // Enqueue returned
	shed     bool

	cut      int  // index of the carrying cut, -1 until matched
	folded   bool // annihilated: cut is the cut that flushed its window
	cutStart time.Time
	vis      time.Time // the carrying ApplyBatch returned: generation published
}

// opGen draws site ops on a private population of sites addressed by
// provisional handles. With step == 0 it draws the churn mix of the ingest
// experiment: the population grows to at least four, then 80% moves, 10%
// adds and 10% removes, all to uniform random points. With step > 0 it is
// one mobile site: an add, then moves by a normal step of that standard
// deviation, clamped to the area.
type opGen struct {
	rng     *rand.Rand
	area    geom.Rect
	step    float64
	handles []int64
	next    int64
	last    geom.Point // the mobile site's position (step > 0)
	log     []opRec
	spanID  int64 // span id of the last op; phases start it apart
}

func newOpGen(seed int64, area geom.Rect, step float64) *opGen {
	return &opGen{rng: rand.New(rand.NewSource(seed)), area: area, step: step, next: -1}
}

// submit draws one op, enqueues it and logs the outcome. The population
// only changes on admission, so later ops stay self-consistent.
func (g *opGen) submit(p *ingest.Pipeline, due time.Time, spans *spanLog) *opRec {
	pt := randPoint(g.rng, g.area)
	if g.step > 0 && len(g.handles) > 0 {
		pt = geom.Pt(
			min(max(g.last.X+g.rng.NormFloat64()*g.step, g.area.MinX), g.area.MaxX),
			min(max(g.last.Y+g.rng.NormFloat64()*g.step, g.area.MinY), g.area.MaxY))
	}
	g.spanID++
	rec := opRec{id: g.spanID, kind: ingest.OpMove, x: pt.X, y: pt.Y, due: due, cut: -1}
	j := 0
	switch k := g.rng.Intn(10); {
	case g.step > 0 && len(g.handles) > 0:
		rec.handle = g.handles[0]
	case g.step > 0 || len(g.handles) < 4 || k == 0:
		rec.kind, rec.handle = ingest.OpAdd, g.next
	case k == 1:
		j = g.rng.Intn(len(g.handles))
		rec.kind, rec.handle, rec.x, rec.y = ingest.OpRemove, g.handles[j], 0, 0
	default:
		rec.handle = g.handles[g.rng.Intn(len(g.handles))]
	}
	rec.enq = time.Now()
	err := p.Enqueue(ingest.Op{Kind: rec.kind, ID: rec.handle, X: rec.x, Y: rec.y})
	rec.admitted = time.Now()
	spans.add("enqueue", rec.id, rec.enq, rec.admitted)
	rec.shed = err != nil
	if !rec.shed {
		g.last = pt
		switch rec.kind {
		case ingest.OpAdd:
			g.handles = append(g.handles, g.next)
			g.next--
		case ingest.OpRemove:
			g.handles = append(g.handles[:j], g.handles[j+1:]...)
		}
	}
	g.log = append(g.log, rec)
	return &g.log[len(g.log)-1]
}

// cutRec is one ApplyBatch as the pipeline called it.
type cutRec struct {
	start, end time.Time
	ops        []stream.SiteOp
	ids        []int
	gens       []uint32 // per-channel generation after the cut
	err        error
}

// recSink is the ingest sink the benchmark hands the pipeline: it applies
// each batch to the swapper exactly as ingest.SwapperSink and
// ingest.FabricSink do, and records when each cut ran and what it carried.
type recSink struct {
	apply   func([]stream.SiteOp) ([]uint32, []int, error)
	pending func() bool
	spans   *spanLog
	spanID  int64 // span id of the last cut; phases start it apart

	mu     sync.Mutex
	cuts   []cutRec
	landed chan struct{} // signalled after every cut; closed-loop waiters
}

func newRecSink(apply func([]stream.SiteOp) ([]uint32, []int, error), pending func() bool, spans *spanLog) *recSink {
	return &recSink{apply: apply, pending: pending, spans: spans, landed: make(chan struct{}, 1)}
}

func (s *recSink) ApplyBatch(ops []stream.SiteOp) ([]int, error) {
	st := time.Now()
	gens, ids, err := s.apply(ops)
	en := time.Now()
	s.mu.Lock()
	s.cuts = append(s.cuts, cutRec{st, en, append([]stream.SiteOp(nil), ops...), append([]int(nil), ids...), gens, err})
	s.spanID++
	id := s.spanID
	s.mu.Unlock()
	s.spans.add("apply_batch", id, st, en)
	select {
	case s.landed <- struct{}{}:
	default:
	}
	return ids, err
}

func (s *recSink) Pending() bool { return s.pending() }

func (s *recSink) snapshot() []cutRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]cutRec(nil), s.cuts...)
}

// opOutcome is the result of matching offered ops to the cuts that
// published them.
type opOutcome struct {
	annihilated int64 // folded away: an add and its remove in one window
	unapplied   int64 // admitted, never published
	causality   int64 // matched to a cut that started before the op was admitted
}

// matchCuts finds, for every admitted op, the cut that published it. A
// cut carries the newest coalesced op per site, so an add or move is
// recognised by its exact coordinates and a remove by the live site id
// the handle was bound to when its add landed; every earlier op on the
// same handle is published by the same cut (folded into it, or already
// superseded on air).
func matchCuts(log []opRec, cuts []cutRec) opOutcome {
	type key struct{ x, y float64 }
	byCoord := map[key]int{}
	perHandle := map[int64][]int{} // handle -> log indices in admission order
	for i := range log {
		if log[i].shed {
			continue
		}
		h := log[i].handle
		perHandle[h] = append(perHandle[h], i)
		if log[i].kind != ingest.OpRemove {
			byCoord[key{log[i].x, log[i].y}] = i
		}
	}
	next := map[int64]int{}         // handle -> first unpublished position in perHandle
	liveToHandle := map[int]int64{} // live site id -> handle
	publish := func(h int64, upTo int, c int) {
		list := perHandle[h]
		for next[h] < len(list) && list[next[h]] <= upTo {
			o := &log[list[next[h]]]
			o.cut, o.cutStart, o.vis = c, cuts[c].start, cuts[c].end
			next[h]++
		}
	}
	for c, cut := range cuts {
		applied := len(cut.ops)
		if cut.err != nil {
			applied = min(applied, len(cut.ids))
		}
		for i, op := range cut.ops[:applied] {
			switch op.Kind {
			case stream.OpAdd, stream.OpMove:
				j, ok := byCoord[key{op.P.X, op.P.Y}]
				if !ok {
					continue
				}
				h := log[j].handle
				if op.Kind == stream.OpAdd {
					liveToHandle[cut.ids[i]] = h
				}
				publish(h, j, c)
			case stream.OpRemove:
				if h, ok := liveToHandle[op.ID]; ok {
					publish(h, len(log), c)
				}
			}
		}
	}
	var out opOutcome
	for h, list := range perHandle {
		// A handle none of whose ops ever reached the air, ending in a
		// remove, was added and removed within one window: its ops were
		// applied by folding, in the first cut after the remove.
		rest := int64(len(list) - next[h])
		last := &log[list[len(list)-1]]
		if next[h] == 0 && last.kind == ingest.OpRemove {
			out.annihilated += rest
			c := sort.Search(len(cuts), func(c int) bool { return !cuts[c].start.Before(last.admitted) })
			for _, i := range list {
				if c < len(cuts) {
					log[i].cut = c
				}
				log[i].folded = true
			}
		} else {
			out.unapplied += rest
		}
		for _, i := range list[:next[h]] {
			if log[i].cutStart.Before(log[i].admitted) {
				out.causality++
			}
		}
	}
	return out
}

// opPhase is one ingest pipeline's site ops, the cuts that published
// them, its counters, and the program compile time its servers reported.
type opPhase struct {
	log       []opRec
	cuts      []cutRec
	im        *ingest.Metrics
	compileNS float64
}

// opMetrics reports the site-op path over one or more independent phases,
// pooled: op_visible and its split into admit, queue wait and cut, the
// cut chain and the ingest counters.
func opMetrics(r *run, phases []opPhase) error {
	var vis, wait, admit, cutMS, batch []float64
	var sumVis, sumParts, compileNS float64
	var busy, busySpan, carriedSpan time.Duration
	var offered, carried, nCuts int
	var shed, coalIn, coalOut, shedOps int64
	var out opOutcome
	for _, ph := range phases {
		log, cuts := ph.log, ph.cuts
		m := matchCuts(log, cuts)
		out.annihilated += m.annihilated
		out.unapplied += m.unapplied
		out.causality += m.causality
		perCut := make([]int, len(cuts))
		published := len(vis)
		for i := range log {
			o := &log[i]
			if o.shed {
				shed++
				continue
			}
			if o.cut < 0 {
				continue
			}
			perCut[o.cut]++
			if o.folded {
				continue
			}
			v, a, w := o.vis.Sub(o.enq), o.admitted.Sub(o.enq), o.cutStart.Sub(o.admitted)
			c := o.vis.Sub(o.cutStart)
			vis = append(vis, ms(v))
			admit = append(admit, us(a))
			wait = append(wait, ms(w))
			sumVis += ms(v)
			sumParts += us(a)/1000 + ms(w) + ms(c)
			r.spans.add("queue_wait", o.id, o.admitted, o.cutStart)
			r.spans.add("publish", o.id, o.enq, o.vis)
		}
		if len(vis) == published || len(cuts) < 2 {
			return fmt.Errorf("site ops: %d published over %d cuts; need at least two cuts", len(vis)-published, len(cuts))
		}
		phaseBusy := time.Duration(0)
		for _, c := range cuts {
			d := c.end.Sub(c.start)
			phaseBusy += d
			cutMS = append(cutMS, ms(d))
			batch = append(batch, float64(len(c.ops)))
		}
		busy += phaseBusy
		busySpan += cuts[len(cuts)-1].end.Sub(log[0].enq)
		// Applied rate between the first and the last publish: the ops the
		// later cuts carried (folded-away ops included) over the time they
		// took to land.
		for _, n := range perCut[1:] {
			carried += n
		}
		carriedSpan += cuts[len(cuts)-1].end.Sub(cuts[0].end)
		offered += len(log)
		nCuts += len(cuts)
		compileNS += ph.compileNS
		shedOps += ph.im.ShedOps.Load()
		coalIn += ph.im.CoalescedIn.Load()
		coalOut += ph.im.CoalescedOut.Load()
	}
	if out.causality > 0 {
		r.correct = false
		r.detail["op_causality_violations"] = out.causality
	}
	r.set("site_ops_per_s", float64(carried)/carriedSpan.Seconds(), "1/s")
	r.setQ("ingest.op_visible_ms_p50", quantile(vis, 50), "ms")
	r.setQ("ingest.op_visible_ms_p99", quantile(vis, 99), "ms")
	r.setQ("ingest.admit_us_p50", quantile(admit, 50), "us")
	r.setQ("ingest.admit_us_p99", quantile(admit, 99), "us")
	r.setQ("ingest.queue_wait_ms_p50", quantile(wait, 50), "ms")
	r.setQ("ingest.queue_wait_ms_p99", quantile(wait, 99), "ms")
	r.setQ("ingest.batch_ops_p50", quantile(batch, 50), "count")
	r.setQ("stream.cut_ms_p50", quantile(cutMS, 50), "ms")
	r.setQ("stream.cut_ms_p99", quantile(cutMS, 99), "ms")
	r.set("stream.cuts", float64(nCuts), "count")
	r.set("stream.cut_busy_frac", busy.Seconds()/busySpan.Seconds(), "fraction")
	r.set("ingest.shed_ops", float64(shedOps), "count")
	ratio := 1.0
	if coalOut > 0 {
		ratio = float64(coalIn) / float64(coalOut)
	}
	r.set("ingest.coalesce_ratio", ratio, "ratio")
	// Layer sums: per op, admit + queue wait + cut tile op_visible; per cut,
	// the program compile the servers report accounts for part of the cut
	// and the rest (maintain, patch, render, swap) is named here.
	r.set("bench.op_unaccounted_frac", 1-sumParts/sumVis, "fraction")
	r.set("bench.cut_noncompile_frac", 1-compileNS/float64(busy.Nanoseconds()), "fraction")
	r.tally.Attempted += int64(offered)
	r.tally.Shed += shed
	r.tally.Unapplied += out.unapplied
	r.tally.Annihilate += out.annihilated
	r.detail["site_ops"] = map[string]any{
		"offered": offered, "published": len(vis), "shed": shed,
		"annihilated": out.annihilated, "unapplied": out.unapplied, "cuts": nCuts, "phases": len(phases),
	}
	return nil
}

// probeStep is the mobile site's step in the publish probe: a fifth of the
// mean site spacing of the 10k-site datasets. Teleporting ops make single
// cuts cost anywhere from 30 to 500 ms, too wide for a few dozen samples
// to settle; a site that moves a little at a time is the mobile-site case
// the churn scenarios model.
const probeStep = 20

// probe is the publish path on an otherwise idle broadcast: one mobile
// site added and then moved n-1 times, one op at a time in a closed loop,
// each waited for until its cut lands, through a default-configured
// ingest pipeline. It runs after the query window, so the window itself
// never sees a cut.
func probe(r *run, sink *recSink, area geom.Rect, n int, compileNS func() float64) error {
	im := ingest.NewMetrics()
	pipe := ingest.Start(sink, ingest.Config{Metrics: im})
	g := newOpGen(subSeed(r.cfg.Seed, seedOps), area, probeStep)
	for i := 0; i < n; i++ {
		if g.submit(pipe, time.Now(), r.spans).shed {
			continue
		}
		select {
		case <-sink.landed:
		case <-time.After(60 * time.Second):
			pipe.Close(nil) //nolint:errcheck
			return fmt.Errorf("probe op %d never landed", i)
		}
	}
	if err := closeWithin(pipe.Close, 60*time.Second); err != nil {
		return fmt.Errorf("probe drain: %w", err)
	}
	return opMetrics(r, []opPhase{{g.log, sink.snapshot(), im, compileNS()}})
}
