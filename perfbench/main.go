// Command perfbench is the repository's end-to-end benchmark. It builds a
// live broadcast from a seeded dataset, drives it over loopback TCP from
// one process, verifies every answer, and prints one JSON result line:
//
//	perfbench --workload static-query --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, taken with outside spans switched on
// and with replays of the build, serve, client and cut layers. Every run
// also writes a detailed report (machine block, sample counts, layer-sum
// checks, spans) under .bench_build/results in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
}

// run accumulates one invocation's measurements.
type run struct {
	cfg     config
	start   time.Time
	metrics map[string]metric
	detail  map[string]any
	tally   tally
	correct bool
	spans   *spanLog // nil unless tracing
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// setQ records a quantile's value under name and its percentile and
// sample count in the detail report.
func (r *run) setQ(name string, q Quantile, unit string) {
	r.set(name, q.Value, unit)
	qs, _ := r.detail["quantiles"].(map[string]Quantile)
	if qs == nil {
		qs = map[string]Quantile{}
		r.detail["quantiles"] = qs
	}
	qs[name] = q
}

// maxProcs caps the benchmark at two busy threads, the size of the box
// the workloads were sized on; the machine block records both numbers.
const maxProcs = 2

var workloads = map[string]func(*run) error{
	"static-query":  runStatic,
	"churn-ingest":  runChurn,
	"sharded-lossy": runSharded,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "static-query | churn-ingest | sharded-lossy")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed: datasets, query points, site ops and channel faults")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "measured window, seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.Trace = trace == 1
	fn, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags (workload %q, seconds %v, trace %d)\n", cfg.Workload, cfg.Seconds, trace)
		os.Exit(2)
	}
	if runtime.NumCPU() > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	steal0, total0 := cpuStat()
	r := &run{cfg: cfg, start: time.Now(), metrics: map[string]metric{}, detail: map[string]any{}, correct: true}
	if cfg.Trace {
		r.spans = newSpanLog(r.start)
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		os.Exit(1)
	}
	r.set("bench.failed_frac", r.tally.failedFrac(), "fraction")
	list := endToEnd
	if cfg.Trace {
		list = perLayer
	}
	metrics, err := pick(r.metrics, list)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		os.Exit(1)
	}
	r.detail["machine"] = machine(cfg)
	if steal1, total1 := cpuStat(); total1 > total0 {
		r.detail["steal_frac"] = (steal1 - steal0) / (total1 - total0)
	}
	r.detail["tally"] = r.tally
	r.detail["metrics"] = r.metrics
	if cfg.Trace {
		r.detail["untraced_medians"], r.detail["trace_overhead"] = traceOverhead(cfg, r.metrics)
	}
	report, err := json.Marshal(r.detail)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: report: %v\n", err)
		os.Exit(1)
	}
	writeReport(cfg, report, r.spans)
	fmt.Println(string(report))
	out, err := json.Marshal(result{
		Correct:   r.correct && r.tally.Wrong == 0 && r.tally.Errors == 0,
		Attempted: max(r.tally.Attempted, 1),
		Failed:    r.tally.failed(),
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// machine is the run block every report carries.
func machine(cfg config) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     gitCommit(),
		"seed":       cfg.Seed,
		"workload":   cfg.Workload,
		"seconds":    cfg.Seconds,
		"trace":      cfg.Trace,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the .git directory of the working directory
// without running git; a checkout exported without history has none.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown (no .git in the working directory)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown (" + ref + ")"
}

// resultsDir holds the per-run reports; traced runs read the untraced
// reports of the same workload from it to state the tracing overhead.
func resultsDir(workload string) string {
	return filepath.Join(".bench_build", "results", workload)
}

func writeReport(cfg config, report []byte, spans *spanLog) {
	dir := resultsDir(cfg.Workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: results dir: %v\n", err)
		return
	}
	base := filepath.Join(dir, fmt.Sprintf("seed%d-trace%d", cfg.Seed, b2i(cfg.Trace)))
	if err := os.WriteFile(base+".json", report, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: report: %v\n", err)
	}
	if spans != nil {
		if err := spans.writeFile(base + "-spans.json"); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// traceOverhead compares a traced run's own end-to-end figures with the
// medians of the untraced reports of the same workload found in the
// results directory: overhead = traced / untraced median - 1.
func traceOverhead(cfg config, traced map[string]metric) (map[string]float64, map[string]float64) {
	files, _ := filepath.Glob(filepath.Join(resultsDir(cfg.Workload), "seed*-trace0.json"))
	vals := map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		var rep struct {
			Metrics map[string]metric `json:"metrics"`
		}
		if json.Unmarshal(data, &rep) != nil {
			continue
		}
		for k, m := range rep.Metrics {
			vals[k] = append(vals[k], m.Value)
		}
	}
	meds := map[string]float64{}
	over := map[string]float64{}
	for k, vs := range vals {
		meds[k] = median(vs)
		if t, ok := traced[k]; ok && meds[k] != 0 {
			over[k] = t.Value/meds[k] - 1
		}
	}
	return meds, over
}
