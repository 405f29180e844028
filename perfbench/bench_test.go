package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"airindex/internal/geom"
	"airindex/internal/ingest"
	"airindex/internal/stream"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: quantile must sort
	}
	return xs
}

func TestQuantileKeepsTenSamplesBeyondTheTail(t *testing.T) {
	cases := []struct {
		n, p        int
		value, pct  float64
		wantSamples int
	}{
		{1000, 99, 990, 99, 1000}, // exactly ten beyond p99
		{100, 99, 90, 90, 100},    // p99 unsupported: lowered to p90
		{240, 99, 230, 100 * 230.0 / 240, 240},
		{15, 99, 8, 100 * 8.0 / 15, 15}, // never below the median
		{20, 50, 10, 50, 20},
		{7, 50, 4, 100 * 4.0 / 7, 7}, // medians are not lowered
		{1, 99, 1, 100, 1},
	}
	for _, c := range cases {
		q := quantile(seq(c.n), float64(c.p))
		if q.Value != c.value || q.Percentile != c.pct || q.Samples != c.wantSamples {
			t.Errorf("n=%d p%d: got %+v, want value %v percentile %v samples %d", c.n, c.p, q, c.value, c.pct, c.wantSamples)
		}
		if c.p > 50 && c.n >= 2*minBeyond {
			if beyond := c.n - int(q.Value); beyond < minBeyond {
				t.Errorf("n=%d p%d: only %d samples beyond the reported value", c.n, c.p, beyond)
			}
		}
	}
	if q := quantile(nil, 99); q.Samples != 0 || q.Value != 0 {
		t.Errorf("empty sample: %+v", q)
	}
}

func TestToleranceVerifierNearBoundary(t *testing.T) {
	// Two sites whose bisector is the line x = 1.
	sites := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(10, 10)}
	near := geom.Pt(1+5e-4, 0.3) // nearest is site 1, 5e-4 past the bisector
	if v := judge(sites, near, 1); v != exact {
		t.Fatalf("true nearest judged %v", v)
	}
	if v := judge(sites, near, 0); v != tolerated {
		t.Fatalf("neighbour 5e-4 from the bisector judged %v, want tolerated", v)
	}
	far := geom.Pt(1.01, 0.3)
	if v := judge(sites, far, 0); v != wrong {
		t.Fatalf("neighbour 1e-2 from the bisector judged %v, want wrong", v)
	}
	if v := judge(sites, near, 2); v != wrong {
		t.Fatalf("distant site judged %v, want wrong", v)
	}
	if v := judge(sites, near, -1); v != wrong {
		t.Fatalf("out-of-range answer judged %v, want wrong", v)
	}
	var tl tally
	for _, v := range []verdict{exact, tolerated, wrong, tolerated} {
		tl.record(v)
	}
	if tl.Tolerated != 2 || tl.Wrong != 1 {
		t.Fatalf("tally %+v", tl)
	}
}

func TestFailureAccounting(t *testing.T) {
	tl := tally{Attempted: 100, Errors: 1, Wrong: 2, Tolerated: 5, Shed: 3, Unapplied: 4, Annihilate: 6}
	if got := tl.failed(); got != 10 {
		t.Fatalf("failed = %d, want errors+wrong+shed+unapplied = 10", got)
	}
	if got := tl.failedFrac(); got != 0.1 {
		t.Fatalf("failed frac = %v", got)
	}
	if (tally{}).failedFrac() != 0 {
		t.Fatal("empty tally must not divide by zero")
	}
}

// TestOpMatchingFoldsAndFailures drives the op-to-cut matching through
// every coalescing case the pipeline produces and checks the accounting.
func TestOpMatchingFoldsAndFailures(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	op := func(h int64, kind int, x float64, ms int) opRec {
		return opRec{handle: h, kind: kind, x: x, y: x, enq: at(ms), admitted: at(ms), cut: -1}
	}
	log := []opRec{
		op(-1, ingest.OpAdd, 1, 0), // folded with the move below into one add
		op(-1, ingest.OpMove, 2, 1),
		op(-2, ingest.OpAdd, 3, 11),    // added and removed in one window:
		op(-2, ingest.OpRemove, 0, 12), // annihilated
		op(-1, ingest.OpMove, 4, 13),
		op(-1, ingest.OpRemove, 0, 31),
		op(-3, ingest.OpAdd, 5, 32), // shed at admission
	}
	log[6].shed = true
	cuts := []cutRec{
		{start: at(5), end: at(10), ops: []stream.SiteOp{{Kind: stream.OpAdd, P: geom.Pt(2, 2)}}, ids: []int{100}},
		{start: at(20), end: at(30), ops: []stream.SiteOp{{Kind: stream.OpMove, ID: 100, P: geom.Pt(4, 4)}}, ids: []int{100}},
		{start: at(40), end: at(50), ops: []stream.SiteOp{{Kind: stream.OpRemove, ID: 100}}, ids: []int{100}},
	}
	out := matchCuts(log, cuts)
	if out != (opOutcome{annihilated: 2}) {
		t.Fatalf("outcome %+v", out)
	}
	wantCut := []int{0, 0, 1, 1, 1, 2, -1}
	for i, want := range wantCut {
		if log[i].cut != want {
			t.Errorf("op %d carried by cut %d, want %d", i, log[i].cut, want)
		}
	}
	if !log[2].folded || !log[3].folded || log[4].folded {
		t.Errorf("folded flags %v %v %v", log[2].folded, log[3].folded, log[4].folded)
	}

	r := &run{metrics: map[string]metric{}, detail: map[string]any{}, correct: true}
	if err := opMetrics(r, []opPhase{{log, cuts, ingest.NewMetrics(), 0}}); err != nil {
		t.Fatal(err)
	}
	if r.tally.Attempted != 7 || r.tally.Shed != 1 || r.tally.Annihilate != 2 || r.tally.failed() != 1 {
		t.Fatalf("tally %+v", r.tally)
	}
	// Cuts 1 and 2 carried four ops (two of them folded away) in 40 ms.
	if got := r.metrics["site_ops_per_s"].Value; got < 99.99 || got > 100.01 {
		t.Fatalf("site_ops_per_s = %v, want 100", got)
	}
	// Visible ops: 10, 9, 17, 19 ms.
	if got := r.metrics["ingest.op_visible_ms_p50"].Value; got != 10 {
		t.Fatalf("op_visible p50 = %v", got)
	}
	if !r.correct {
		t.Fatal("a causal matching was flagged")
	}

	// An op matched to a cut that started before it was admitted is a
	// broken matching, and the run is marked incorrect.
	late := append([]opRec(nil), log...)
	for i := range late {
		late[i].cut = -1
		late[i].folded = false
	}
	late[0].admitted = at(6)
	r = &run{metrics: map[string]metric{}, detail: map[string]any{}, correct: true}
	if err := opMetrics(r, []opPhase{{late, cuts, ingest.NewMetrics(), 0}}); err != nil {
		t.Fatal(err)
	}
	if r.correct {
		t.Fatal("causality violation not flagged")
	}
}

// TestNamesMatchBenchmarkJSON keeps the metric lists the program checks
// its output against equal to the ones BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
