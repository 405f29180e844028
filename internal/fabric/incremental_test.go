package fabric

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"airindex/internal/dataset"
	"airindex/internal/geom"
	"airindex/internal/stream"
)

// randomBatch draws one Apply batch against the swapper's live ids, never
// reusing an id already removed earlier in the same batch.
func randomBatch(rng *rand.Rand, sw *Swapper, ds *dataset.Dataset, batch int) []stream.SiteOp {
	live := sw.LiveSiteIDs()
	ops := make([]stream.SiteOp, 0, batch)
	for i := 0; i < batch; i++ {
		p := randomPoint(rng, ds.Area)
		switch op := rng.Intn(3); {
		case op == 0 || len(live) < 8:
			ops = append(ops, stream.SiteOp{Kind: stream.OpAdd, P: p})
		case op == 1:
			k := rng.Intn(len(live))
			ops = append(ops, stream.SiteOp{Kind: stream.OpRemove, ID: live[k]})
			live = append(live[:k], live[k+1:]...)
		default:
			ops = append(ops, stream.SiteOp{Kind: stream.OpMove, ID: live[rng.Intn(len(live))], P: p})
		}
	}
	return ops
}

// requireShardsMatchFresh compares every shard of the swapper against a
// from-scratch fabric build of the live set: same bucket numbering, byte-
// identical index packets, byte-identical flat arena snapshots.
func requireShardsMatchFresh(t *testing.T, label string, sw *Swapper) {
	t.Helper()
	sub, globalIDs, err := sw.maint.Snapshot()
	if err != nil {
		t.Fatalf("%s: snapshot: %v", label, err)
	}
	fresh, err := FromSubdivision(sub, globalIDs, sw.dir, sw.rects, sw.capacity, sw.opts)
	if err != nil {
		t.Fatalf("%s: fresh build: %v", label, err)
	}
	for ch := range sw.cur {
		cur := sw.Current(ch).Shard
		want := fresh.Shards[ch]
		if len(cur.IDs) != len(want.IDs) {
			t.Fatalf("%s: shard %d: %d buckets incrementally, %d from scratch", label, ch, len(cur.IDs), len(want.IDs))
		}
		for i := range cur.IDs {
			if cur.IDs[i] != want.IDs[i] {
				t.Fatalf("%s: shard %d bucket %d: global %d vs %d", label, ch, i, cur.IDs[i], want.IDs[i])
			}
		}
		if len(cur.Prog.IndexPackets) != len(want.Prog.IndexPackets) {
			t.Fatalf("%s: shard %d: %d index packets incrementally, %d from scratch", label, ch, len(cur.Prog.IndexPackets), len(want.Prog.IndexPackets))
		}
		for k := range cur.Prog.IndexPackets {
			if !bytes.Equal(cur.Prog.IndexPackets[k], want.Prog.IndexPackets[k]) {
				t.Fatalf("%s: shard %d index packet %d differs from a fresh build", label, ch, k)
			}
		}
		if !bytes.Equal(cur.Flat.Snapshot(), want.Flat.Snapshot()) {
			t.Fatalf("%s: shard %d arena snapshot differs from a fresh build", label, ch)
		}
	}
}

// TestSwapperIncrementalEveryGeneration pins the fabric's incremental cut
// pipeline per generation: after every Apply batch, every shard's program
// and arena are byte-identical to a from-scratch fabric build of the live
// set, and untouched shards keep not just their generation number but the
// very same published objects.
func TestSwapperIncrementalEveryGeneration(t *testing.T) {
	ds := dataset.Uniform(140, 61)
	const (
		capacity = 128
		S        = 4
	)
	sw, err := NewSwapper(ds.Area, ds.Sites, S, capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireShardsMatchFresh(t, "bootstrap", sw)
	rng := rand.New(rand.NewSource(62))
	incremental, skipped := 0, 0
	for batch := 0; batch < 12; batch++ {
		before := make([]*ShardGeneration, S)
		for ch := 0; ch < S; ch++ {
			before[ch] = sw.Current(ch)
		}
		gens, _, err := sw.Apply(randomBatch(rng, sw, &ds, 1+rng.Intn(3)))
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for ch := 0; ch < S; ch++ {
			if gens[ch] == before[ch].Gen {
				skipped++
				if sw.Current(ch) != before[ch] {
					t.Fatalf("batch %d: shard %d kept generation %d but replaced the published object", batch, ch, gens[ch])
				}
			} else if sw.comps[ch].Retains() {
				incremental++
			}
		}
		requireShardsMatchFresh(t, "batch", sw)
	}
	if skipped == 0 {
		t.Error("no shard cut was ever skipped; the dirty-footprint prefilter never fired")
	}
	if incremental == 0 {
		t.Error("no shard was ever rebuilt with retained incremental state")
	}
}

// TestSwapperReconcileAfterStale pins the recovery path: when an Apply is
// marked stale (as a failed rebuild or publish would), the next Apply
// reconciles every shard from a fresh clip scan and converges back to the
// from-scratch build, after which incremental cutting resumes.
func TestSwapperReconcileAfterStale(t *testing.T) {
	ds := dataset.Uniform(120, 71)
	const (
		capacity = 128
		S        = 3
	)
	sw, err := NewSwapper(ds.Area, ds.Sites, S, capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	if _, _, err := sw.Apply(randomBatch(rng, sw, &ds, 3)); err != nil {
		t.Fatal(err)
	}
	// Simulate a failed batch: the maintainer advanced but nothing was
	// republished and the bounds cache was never updated.
	sw.mu.Lock()
	sw.maint.BeginBatch()
	live, _ := sw.maint.LiveSites()
	if _, err := sw.maint.Move(live[0], randomPoint(rng, ds.Area)); err != nil {
		sw.mu.Unlock()
		t.Fatal(err)
	}
	sw.stale = true
	sw.mu.Unlock()
	// The next Apply must reconcile the missed churn even though its own
	// batch is tiny.
	if _, _, err := sw.Apply(randomBatch(rng, sw, &ds, 1)); err != nil {
		t.Fatal(err)
	}
	requireShardsMatchFresh(t, "reconcile", sw)
	// And the pipeline keeps cutting incrementally afterwards.
	for batch := 0; batch < 4; batch++ {
		if _, _, err := sw.Apply(randomBatch(rng, sw, &ds, 1+rng.Intn(3))); err != nil {
			t.Fatalf("post-reconcile batch %d: %v", batch, err)
		}
	}
	requireShardsMatchFresh(t, "post-reconcile", sw)
}

// interiorSite returns the live site nearest the center of shard ch's
// rectangle: nudging it perturbs only Voronoi cells deep inside the shard.
func interiorSite(sw *Swapper, ch int) (int, geom.Point) {
	center := sw.rects[ch].Center()
	ids, sites := sw.maint.LiveSites()
	best := 0
	for i := range ids {
		if sites[i].Dist(center) < sites[best].Dist(center) {
			best = i
		}
	}
	return ids[best], sites[best]
}

// TestSwapperCutFailureRecovery drives the real cut-failure path: one
// shard's compile fails inside Apply while another touched shard's compile
// succeeds. Nothing may reach the air — every channel keeps its generation
// and its exact program — Pending() turns true, an empty Apply republishes
// shards byte-identical to a from-scratch build of the live set, and
// incremental cuts resume afterwards. The fabric analogue of stream's
// TestApplyCutFailureRollsBackBatchState.
func TestSwapperCutFailureRecovery(t *testing.T) {
	ds := dataset.Uniform(200, 21)
	const (
		capacity = 128
		S        = 4
	)
	sw, err := NewSwapper(ds.Area, ds.Sites, S, capacity, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srvs := startFabricServers(t, sw.Programs(), func(ch int, srv *stream.Server) { sw.Bind(ch, srv) })
	nudge := func(ch int) stream.SiteOp {
		id, p := interiorSite(sw, ch)
		return stream.SiteOp{Kind: stream.OpMove, ID: id, P: p.Add(geom.Pt(3, 3))}
	}

	// One good incremental cut first, so shard 0's compiler retains state.
	if _, _, err := sw.Apply([]stream.SiteOp{nudge(0)}); err != nil {
		t.Fatal(err)
	}
	if !sw.comps[0].Retains() {
		t.Fatal("shard 0 holds no retained cut state after a successful cut")
	}
	onAir := make([]*stream.Program, S)
	gens := make([]uint32, S)
	for ch, srv := range srvs {
		onAir[ch], gens[ch] = srv.Program(), srv.Generation()
		if onAir[ch] != sw.Current(ch).Shard.Prog {
			t.Fatalf("shard %d: server and swapper disagree before the failure", ch)
		}
	}

	// A batch touching shards 0 and 1; shard 0's compile fails, shard 1's
	// succeeds but must not be published alone.
	injected := errors.New("injected shard cut failure")
	sw.comps[0].FailNext(injected)
	got, ids, err := sw.Apply([]stream.SiteOp{nudge(0), nudge(1)})
	if !errors.Is(err, injected) {
		t.Fatalf("Apply returned %v, want the injected failure", err)
	}
	if len(ids) != 2 {
		t.Fatalf("failed Apply reported %d applied ops, want 2 (mutations stay)", len(ids))
	}
	if !sw.Pending() {
		t.Fatal("Pending() false after a failed shard cut")
	}
	for ch, srv := range srvs {
		if got[ch] != gens[ch] || srv.Generation() != gens[ch] || sw.Current(ch).Gen != gens[ch] {
			t.Fatalf("shard %d: generation moved to %d (server %d, swapper %d) from %d on a failed cut",
				ch, got[ch], srv.Generation(), sw.Current(ch).Gen, gens[ch])
		}
		if srv.Program() != onAir[ch] || sw.Current(ch).Shard.Prog != onAir[ch] {
			t.Fatalf("shard %d: a failed cut replaced the program on the air", ch)
		}
	}

	// An empty Apply reconciles: shards 0 and 1 republish, byte-identical
	// to a from-scratch build of the live set.
	got, ids, err = sw.Apply(nil)
	if err != nil {
		t.Fatalf("republish Apply: %v", err)
	}
	if len(ids) != 0 {
		t.Fatalf("republish applied %d ops, want 0", len(ids))
	}
	if sw.Pending() {
		t.Fatal("Pending() still true after the republish")
	}
	for _, ch := range []int{0, 1} {
		if got[ch] != gens[ch]+1 || srvs[ch].Generation() != got[ch] {
			t.Fatalf("shard %d republished as generation %d (server %d), want %d", ch, got[ch], srvs[ch].Generation(), gens[ch]+1)
		}
		if srvs[ch].Program() != sw.Current(ch).Shard.Prog {
			t.Fatalf("shard %d: server does not carry the republished program", ch)
		}
	}
	requireShardsMatchFresh(t, "republish", sw)

	// Incremental cuts resume on the reconciled compiler.
	if _, _, err := sw.Apply([]stream.SiteOp{nudge(0)}); err != nil {
		t.Fatal(err)
	}
	if p := srvs[0].Metrics().CutDirtyPermille.Load(); p >= 1000 {
		t.Fatalf("shard 0's post-recovery cut rebuilt %d‰ of its tree, want an incremental cut", p)
	}
	requireShardsMatchFresh(t, "post-recovery", sw)
}
