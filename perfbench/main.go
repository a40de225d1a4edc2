// Command perfbench is factorml's benchmark: it runs one workload's model
// life cycle — set-up, training, closed-loop serving over loopback HTTP,
// streaming ingest — checks every output, and prints the end-to-end
// metrics, or with -trace 1 the per-layer metrics of a traced run. Run it
// through run.py, which builds it inside the checkout; see README.md.
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

type metricDef struct {
	Name string
	Unit string
}

// endToEndMetrics are what a user of the system sees, in output order.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"gmm_train_s", "s"},
	{"nn_train_s", "s"},
	{"predict_rows_per_s", "rows/s"},
	{"predict_p50_ms", "ms"},
	{"predict_p99_ms", "ms"},
	{"ingest_rows_per_s", "rows/s"},
	{"ingest_p50_ms", "ms"},
	{"refresh_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func jsonIndent(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", " ")
	return append(b, '\n'), err
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	secs := flag.Float64("seconds", 10, "measured seconds (training loop and predict phase budget)")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for scratch databases and the span file")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *secs <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	// A hung run still ends, without a result, in bounded time.
	deadline := 120*time.Second + time.Duration(5**secs*float64(time.Second))
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v, aborting\n", deadline)
		os.Exit(3)
	})
	res, err := runWorkload(w, *seed, *secs, *traced == 1, *outDir, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func newBench(w workload, seed int64, secs float64, work string) *bench {
	return &bench{w: w, seed: seed, seconds: secs, work: work, nproc: runtime.NumCPU()}
}

// runWorkload runs one workload and returns the result line; progress and
// the run's description go to out.
func runWorkload(w workload, seed int64, secs float64, traced bool, outDir string, out *os.File) (*result, error) {
	work := filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	header, _ := json.Marshal(map[string]any{
		"workload": w.Name, "seed": seed, "seconds": secs, "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": envOr("PERFBENCH_COMMIT", "unknown"), "source_sha256": envOr("PERFBENCH_SOURCE", "unknown"),
	})
	fmt.Fprintf(out, "perfbench %s\n", header)
	if !traced {
		b := newBench(w, seed, secs, work)
		if _, err := b.run(false); err != nil {
			return nil, err
		}
		vals := endToEnd(&b.res)
		printValues(out, endToEndMetrics, vals, &b.res)
		return finish(endToEndMetrics, vals, []*results{&b.res}, out), nil
	}

	// The traced run: an untraced pipeline, then the same pipeline with
	// observers and spans, one set-up each; their end-to-end difference is
	// the tracing overhead.
	w.Setups, w.TrainReps, w.IngestPasses = 1, min(w.TrainReps, 2), 1
	plain := newBench(w, seed, secs, work)
	if _, err := plain.run(false); err != nil {
		return nil, err
	}
	tb := newBench(w, seed, secs, work)
	tb.spans = newSpanLog()
	tb.probe = newLayerProbe()
	e, err := tb.run(true)
	if err != nil {
		return nil, err
	}
	if err := e.shutdown(); err != nil {
		return nil, err
	}
	if err := e.db.Close(); err != nil {
		return nil, err
	}
	e.db = nil
	if err := tb.probe.storageLayers(tb, e); err != nil {
		return nil, err
	}
	if err := e.close(); err != nil {
		return nil, err
	}
	untraced, withTrace := endToEnd(&plain.res), endToEnd(&tb.res)
	overhead := map[string][2]float64{}
	for _, d := range endToEndMetrics {
		if d.Name == "peak_rss_mb" {
			// VmHWM is the process's lifetime peak, so the traced
			// pipeline, which runs second, cannot read its own.
			fmt.Fprintf(out, "tracing overhead %-20s not compared: the traced pipeline runs second and VmHWM never goes down\n", d.Name)
			continue
		}
		overhead[d.Name] = [2]float64{untraced[d.Name], withTrace[d.Name]}
		fmt.Fprintf(out, "tracing overhead %-20s untraced %12.6g  traced %12.6g %s\n", d.Name, untraced[d.Name], withTrace[d.Name], d.Unit)
	}
	spanPath := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.Name, seed))
	if err := writeSpans(spanPath, w, seed, tb.spans, tb.probe, overhead); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "span file %s\n", spanPath)
	vals := tb.probe.metrics()
	printValues(out, perLayerMetrics, vals, &tb.res)
	fmt.Fprintf(out, "%-28s %14.6g ratio  (output check: must read 1)\n", "plan.ops_ratio", tb.probe.m["plan.ops_ratio"])
	return finish(perLayerMetrics, vals, []*results{&plain.res, &tb.res}, out), nil
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// endToEnd reduces a pipeline's measurements to the end-to-end metrics.
func endToEnd(r *results) map[string]float64 {
	rate, p50, p99 := predictFigures(r.predictTimed, r.predictSpan)
	v := map[string]float64{
		"setup_s":            median(seconds(r.setup)),
		"gmm_train_s":        median(seconds(r.gmmTrain)),
		"nn_train_s":         median(seconds(r.nnTrain)),
		"predict_rows_per_s": rate,
		"predict_p50_ms":     p50,
		"predict_p99_ms":     p99,
		"ingest_rows_per_s":  median(r.ingestRates),
		"ingest_p50_ms":      median(millis(r.ingestLat)),
		"refresh_ms":         median(millis(r.refreshLat)),
		"peak_rss_mb":        r.peakRSSMB,
	}
	for _, d := range endToEndMetrics {
		if v[d.Name] <= 0 {
			r.problem("%s: no measurement", d.Name)
		}
	}
	return v
}

func printValues(out *os.File, defs []metricDef, vals map[string]float64, r *results) {
	counts := map[string]int{
		"setup_s": len(r.setup), "gmm_train_s": len(r.gmmTrain), "nn_train_s": len(r.nnTrain),
		"predict_rows_per_s": len(r.predictTimed), "predict_p50_ms": len(r.predictTimed), "predict_p99_ms": len(r.predictTimed),
		"ingest_rows_per_s": len(r.ingestRates), "ingest_p50_ms": len(r.ingestLat), "refresh_ms": len(r.refreshLat),
	}
	for _, d := range defs {
		n := ""
		if c, ok := counts[d.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(out, "%-28s %14.6g %s%s\n", d.Name, vals[d.Name], d.Unit, n)
	}
}

// finish builds the result line from the metric values and every
// pipeline's counts and output-check problems.
func finish(defs []metricDef, vals map[string]float64, rs []*results, out *os.File) *result {
	res := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	for _, r := range rs {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			res.Correct = false
			fmt.Fprintf(out, "CHECK FAILED: %s\n", p)
		}
	}
	ratio := 0.0
	if res.Attempted > 0 {
		ratio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(out, "%-28s %14.4f ratio  (%d of %d operations)\n", "failed_ratio", ratio, res.Failed, res.Attempted)
	return res
}
