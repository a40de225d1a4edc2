package factorml

// Trace-overhead benchmarks: the span primitives are timed on the
// untraced path (which must add zero allocations — the predict hot path
// calls trace.Start unconditionally) and on a fully sampled request, and
// Engine.PredictCtx is timed with and without a recording trace on the
// context. Measurements land in BENCH_trace.json (see TestMain) with
// allocs/op alongside ns/op so an allocation regression on the disabled
// path fails loudly in CI, not quietly in production.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"factorml/internal/data"
	"factorml/internal/nn"
	"factorml/internal/serve"
	"factorml/internal/trace"
)

// traceBenchRecord is one overhead measurement in BENCH_trace.json.
type traceBenchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

var traceBenchRecorder struct {
	mu      sync.Mutex
	order   []string
	records map[string]traceBenchRecord
}

func recordTraceBench(rec traceBenchRecord) {
	traceBenchRecorder.mu.Lock()
	defer traceBenchRecorder.mu.Unlock()
	if traceBenchRecorder.records == nil {
		traceBenchRecorder.records = make(map[string]traceBenchRecord)
	}
	if _, seen := traceBenchRecorder.records[rec.Name]; !seen {
		traceBenchRecorder.order = append(traceBenchRecorder.order, rec.Name)
	}
	traceBenchRecorder.records[rec.Name] = rec
}

// flushTraceBench writes the overhead measurements to BENCH_trace.json
// (called from TestMain).
func flushTraceBench() {
	traceBenchRecorder.mu.Lock()
	records := make([]traceBenchRecord, 0, len(traceBenchRecorder.order))
	for _, key := range traceBenchRecorder.order {
		records = append(records, traceBenchRecorder.records[key])
	}
	traceBenchRecorder.mu.Unlock()
	if len(records) == 0 {
		return
	}
	out := struct {
		Unit    string             `json:"unit"`
		NumCPU  int                `json:"num_cpu"`
		Results []traceBenchRecord `json:"results"`
	}{Unit: "ns/op", NumCPU: runtime.NumCPU(), Results: records}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err == nil {
		err = os.WriteFile("BENCH_trace.json", append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing BENCH_trace.json: %v\n", err)
	}
}

// benchAllocs runs f once under AllocsPerRun to attribute allocations
// per op for the JSON artifact (b.ReportAllocs covers the console).
func benchAllocs(f func()) float64 { return testing.AllocsPerRun(1, f) }

// BenchmarkTraceSpanUntraced times trace.Start/SetAttr/End on a context
// with no sampled trace — the shape of every span call on the predict
// hot path when tracing is off or the request was not sampled. The
// benchmark fails outright if this path allocates.
func BenchmarkTraceSpanUntraced(b *testing.B) {
	ctx := context.Background()
	op := func() {
		_, sp := trace.Start(ctx, "bench.span")
		sp.SetAttr("k", "v")
		sp.End()
	}
	if allocs := benchAllocs(op); allocs != 0 {
		b.Fatalf("untraced span path allocates %.0f objects/op, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	recordTraceBench(traceBenchRecord{
		Name:    "trace_span/untraced",
		NsPerOp: float64(b.Elapsed().Nanoseconds()) / float64(b.N),
	})
}

// BenchmarkTraceSpanSampled times a full sampled request lifecycle:
// StartRequest, two nested spans with an attribute, Finish into the
// flight recorder.
func BenchmarkTraceSpanSampled(b *testing.B) {
	tracer := trace.New(trace.Config{SampleFraction: 1, Recent: 8, Slow: 8})
	op := func() {
		ctx, tr, _ := tracer.StartRequest(context.Background(), "bench", "")
		ctx, outer := trace.Start(ctx, "outer")
		_, inner := trace.Start(ctx, "inner")
		inner.SetAttr("k", "v")
		inner.End()
		outer.End()
		tr.Finish(200)
	}
	allocs := benchAllocs(op)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	recordTraceBench(traceBenchRecord{
		Name:        "trace_span/sampled_request",
		NsPerOp:     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		AllocsPerOp: allocs,
	})
}

// BenchmarkPredictTraceOverhead times Engine.PredictCtx over the same
// batch with an untraced context and with a fully sampled trace, so the
// BENCH_trace.json artifact pins the cost of span assembly relative to
// the undisturbed hot path.
func BenchmarkPredictTraceOverhead(b *testing.B) {
	db := benchDB(b)
	spec, err := data.Generate(db, "tr", data.SynthConfig{
		NS: 1000, NR: []int{50}, DS: 6, DR: []int{6},
		Seed: 11, WithTarget: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	nres, err := nn.TrainF(db, spec, nn.Config{Hidden: []int{8}, Epochs: 1, NumWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	reg, err := serve.NewRegistry(db)
	if err != nil {
		b.Fatal(err)
	}
	if err := reg.SaveNN("bench-tr", nres.Net); err != nil {
		b.Fatal(err)
	}
	eng, err := serve.NewEngine(reg, spec.Plan(), serve.EngineConfig{NumWorkers: 1})
	if err != nil {
		b.Fatal(err)
	}
	var rows []serve.Row
	sc := spec.S.NewScanner()
	for sc.Next() && len(rows) < 64 {
		tp := sc.Tuple()
		rows = append(rows, serve.Row{
			Fact: append([]float64{}, tp.Features...),
			FKs:  append([]int64{}, tp.Keys[1:]...),
		})
	}
	if err := sc.Err(); err != nil {
		b.Fatal(err)
	}

	tracer := trace.New(trace.Config{SampleFraction: 1, Recent: 8, Slow: 8})
	cases := []struct {
		name string
		ctx  func() (context.Context, *trace.Trace)
	}{
		{"untraced", func() (context.Context, *trace.Trace) { return context.Background(), nil }},
		{"traced", func() (context.Context, *trace.Trace) {
			ctx, tr, _ := tracer.StartRequest(context.Background(), "bench", "")
			return ctx, tr
		}},
	}
	preds := make([]serve.Prediction, len(rows))
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			op := func() {
				ctx, tr := tc.ctx()
				_, err := eng.PredictIntoCtx(ctx, "bench-tr", rows, preds)
				if err != nil {
					b.Fatal(err)
				}
				if preds[0].Err != "" {
					b.Fatal(preds[0].Err)
				}
				tr.Finish(200)
			}
			allocs := benchAllocs(op)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			recordTraceBench(traceBenchRecord{
				Name:        "predict_64rows/" + tc.name,
				NsPerOp:     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
				AllocsPerOp: allocs,
			})
		})
	}
}
