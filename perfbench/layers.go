package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"factorml"
	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/monitor"
	"factorml/internal/parallel"
	"factorml/internal/serve"
	"factorml/internal/storage"
	"factorml/internal/trace"
)

// perLayerMetrics are the traced run's metrics, in output order. A layer
// the workload's pipeline does not call reads 0.
var perLayerMetrics = []metricDef{
	{"storage.pages_read", "count"},
	{"storage.pages_written", "count"},
	{"storage.scan_s", "s"},
	{"join.run_s", "s"},
	{"join.materialize_s", "s"},
	{"join.lookup_ns", "ns"},
	{"factor.fgmm_estep_s", "s"},
	{"factor.fgmm_mstep_cov_s", "s"},
	{"factor.fgmm_mstep_means_s", "s"},
	{"factor.fgmm_cache_fill_s", "s"},
	{"factor.fnn_sgd_s", "s"},
	{"factor.gmm_estep_s", "s"},
	{"factor.gmm_mstep_s", "s"},
	{"factor.nn_sgd_s", "s"},
	{"factor.merge_s", "s"},
	{"parallel.busy_ratio", "ratio"},
	{"parallel.skew", "ratio"},
	{"plan.plan_s", "s"},
	{"gmm.multiplies", "count"},
	{"gmm.kernel_ns_per_row", "ns"},
	{"gmm.fill_dim_caches_us", "us"},
	{"nn.multiplies", "count"},
	{"nn.forward_ns_per_row", "ns"},
	{"monitor.gmm_baseline_s", "s"},
	{"monitor.nn_baseline_s", "s"},
	{"monitor.observe_ns_per_row", "ns"},
	{"trace.span_ns", "ns"},
	{"serve.loopback_us", "us"},
	{"serve.handler_json_us", "us"},
	{"serve.handler_fmb1_us", "us"},
	{"serve.engine_us_per_row", "us"},
	{"serve.dim_cache_hit_ratio", "ratio"},
	{"serve.dim_invalidations", "count"},
	{"serve.rejected", "count"},
	{"stream.ingest_us", "us"},
	{"stream.refresh_ms", "ms"},
	{"stream.refreshes", "count"},
	{"stream.rebaselines", "count"},
	{"wal.fsyncs_per_batch", "ratio"},
	{"wal.bytes_per_fact", "B"},
}

// span is one recorded interval of the traced run. Times are nanoseconds
// since the run started; Parent 0 is the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends. A nil
// *spanLog records nothing.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(parent int, name string) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(l.t0))})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].End = int64(time.Since(l.t0))
	l.mu.Unlock()
}

// add records a finished interval [at-d, at].
func (l *spanLog) add(parent int, name string, at time.Time, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	end := int64(at.Sub(l.t0))
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: end - int64(d), End: end})
}

type passEvent struct {
	ev factor.PassEvent
	at time.Time
}

// layerProbe collects the per-layer metrics of a traced run. A nil
// *layerProbe does nothing, so the untraced pipeline carries no probe
// work.
type layerProbe struct {
	mu       sync.Mutex
	m        map[string]float64
	events   []passEvent
	busy     map[int]time.Duration
	seen     map[string]bool
	opsWorst float64
}

func newLayerProbe() *layerProbe {
	p := &layerProbe{m: map[string]float64{}, seen: map[string]bool{}, opsWorst: 1}
	for _, d := range perLayerMetrics {
		p.m[d.Name] = 0
	}
	return p
}

func (p *layerProbe) add(name string, v float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.m[name] += v
	p.mu.Unlock()
}

func (p *layerProbe) set(name string, v float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.m[name] = v
	p.mu.Unlock()
}

func (p *layerProbe) rejected(n int) { p.add("serve.rejected", float64(n)) }

// beginTrain installs the pass and worker observers for one training
// call; they stay off outside training so serving runs untouched.
func (p *layerProbe) beginTrain() {
	if p == nil {
		return
	}
	p.events, p.busy = nil, map[int]time.Duration{}
	factor.SetObserver(func(ev factor.PassEvent) {
		p.mu.Lock()
		p.events = append(p.events, passEvent{ev, time.Now()})
		p.mu.Unlock()
	})
	parallel.SetWorkerObserver(func(ev parallel.WorkerEvent) {
		p.mu.Lock()
		p.busy[ev.Worker] += ev.Busy
		p.mu.Unlock()
	})
}

// endTrain removes the observers and records every pass event as a child
// span of the training call.
func (p *layerProbe) endTrain(spans *spanLog, parent int) {
	if p == nil {
		return
	}
	factor.SetObserver(nil)
	parallel.SetWorkerObserver(nil)
	for _, pe := range p.events {
		spans.add(parent, "pass."+pe.ev.Pass+"."+pe.ev.Phase, pe.at, pe.ev.Wall)
	}
}

// opsRatio keeps the planner estimate / measured ops ratio farthest from
// 1 (a missing estimate reads 0).
func (p *layerProbe) opsRatio(est *factorml.StrategyEstimate, measured int64) {
	if p == nil {
		return
	}
	r := 0.0
	if est != nil && measured > 0 {
		r = float64(est.Ops.Total()) / float64(measured)
	}
	if math.Abs(r-1) >= math.Abs(p.opsWorst-1) {
		p.opsWorst = r
	}
	p.set("plan.ops_ratio", p.opsWorst)
}

// passMetric maps a pass event to its per-layer metric.
func passMetric(ev factor.PassEvent) string {
	if ev.Phase == "cache_fill" {
		if ev.Pass == "fgmm.estep" || ev.Pass == "fgmm.mstep_means" || ev.Pass == "fgmm.mstep_cov" {
			return "factor.fgmm_cache_fill_s"
		}
		return ""
	}
	switch ev.Pass {
	case "fgmm.estep":
		return "factor.fgmm_estep_s"
	case "fgmm.mstep_cov":
		return "factor.fgmm_mstep_cov_s"
	case "fgmm.mstep_means":
		return "factor.fgmm_mstep_means_s"
	case "fnn.sgd":
		return "factor.fnn_sgd_s"
	case "gmm.estep":
		return "factor.gmm_estep_s"
	case "gmm.mstep_means", "gmm.mstep_cov":
		return "factor.gmm_mstep_s"
	case "nn.sgd_epoch":
		return "factor.nn_sgd_s"
	}
	return ""
}

// trained records the layer metrics of the first training call of each
// model: its ops and page counts, pass wall times and worker balance.
func (p *layerProbe) trained(model string, mul int64, io factorml.IOStats) {
	if p == nil || p.seen[model] {
		return
	}
	p.seen[model] = true
	p.add(model+".multiplies", float64(mul))
	p.add("storage.pages_read", float64(io.PhysicalReads))
	p.add("storage.pages_written", float64(io.PageWrites))
	var poolWall time.Duration
	for _, pe := range p.events {
		if name := passMetric(pe.ev); name != "" {
			p.add(name, pe.ev.Wall.Seconds())
		}
		p.add("factor.merge_s", pe.ev.Merge.Seconds())
		if pe.ev.Phase == "fold" && pe.ev.Workers > 1 {
			poolWall += time.Duration(pe.ev.Workers) * pe.ev.Wall
		}
	}
	var total, most time.Duration
	for _, b := range p.busy {
		total += b
		most = max(most, b)
	}
	p.mu.Lock()
	p.m["parallel.busyNs"] += float64(total)
	p.m["parallel.poolNs"] += float64(poolWall)
	if len(p.busy) > 0 && total > 0 {
		p.m["parallel.skewSum"] += float64(most) / (float64(total) / float64(len(p.busy)))
		p.m["parallel.skewN"]++
	}
	p.mu.Unlock()
}

func (p *layerProbe) cacheWindow(before, after statsz) {
	if p == nil {
		return
	}
	// A refresh republishes the models, which restarts their cache
	// counters; then only the lookups since the restart are counted.
	if after.DimCacheHits < before.DimCacheHits || after.DimCacheMisses < before.DimCacheMisses {
		before = statsz{}
	}
	hits := float64(after.DimCacheHits - before.DimCacheHits)
	misses := float64(after.DimCacheMisses - before.DimCacheMisses)
	if hits+misses > 0 {
		p.set("serve.dim_cache_hit_ratio", hits/(hits+misses))
	}
}

func (p *layerProbe) ingestWindow(before, after factorml.StreamCounters, walBefore, walAfter factorml.WALStats, batches, facts int) {
	if p == nil || batches == 0 || facts == 0 {
		return
	}
	p.set("stream.refreshes", float64(after.Refreshes-before.Refreshes))
	p.set("stream.rebaselines", float64(after.Rebaselines-before.Rebaselines))
	p.set("wal.fsyncs_per_batch", float64(walAfter.Fsyncs-walBefore.Fsyncs)/float64(batches))
	p.set("wal.bytes_per_fact", float64(walAfter.AppendedBytes-walBefore.AppendedBytes)/float64(facts))
}

// perCall times fn over n calls and returns the median of five rounds'
// per-call time.
func perCall(n int, fn func(i int)) time.Duration {
	var rounds []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		rounds = append(rounds, float64(time.Since(t0))/float64(n))
	}
	return time.Duration(median(rounds))
}

const replayRequests = 400

// afterPredict replays the predict traffic through successively deeper
// entry points — loopback HTTP, in-process ServeHTTP, Engine.PredictInto,
// the kernels — one span per replay, and times the layers the requests
// cross on this set-up's models and data.
func (p *layerProbe) afterPredict(b *bench, e *env, l *predictLoad) error {
	if p == nil {
		return nil
	}
	spans := b.spans
	root := spans.begin(0, "replay.predict")
	defer spans.end(root)

	// Loopback, one client, request after request.
	sp := spans.begin(root, "replay.loopback")
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	var buf bytes.Buffer
	var firstErr error
	loop := perCall(replayRequests, func(i int) {
		body, ct := l.body(i)
		status, err := postInto(client, e.base+"/v1/models/"+predictModels[i&1]+"/predict", ct, body, &buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("loopback replay: status %d", status)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	tr.CloseIdleConnections()
	spans.end(sp)
	if firstErr != nil {
		return firstErr
	}
	p.set("serve.loopback_us", float64(loop)/1e3)

	// In-process ServeHTTP, per wire.
	for _, wire := range []struct {
		name   string
		binary bool
	}{{"serve.handler_json_us", false}, {"serve.handler_fmb1_us", true}} {
		sp := spans.begin(root, "replay."+wire.name)
		var idx []int
		for i := 0; len(idx) < replayRequests; i++ {
			if _, _, bin := l.request(i); bin == wire.binary {
				idx = append(idx, i)
			}
		}
		d := perCall(len(idx), func(k int) {
			i := idx[k]
			body, ct := l.body(i)
			req := httptest.NewRequest(http.MethodPost, "/v1/models/"+predictModels[i&1]+"/predict", bytes.NewReader(body))
			req.Header.Set("Content-Type", ct)
			rec := httptest.NewRecorder()
			e.srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK && firstErr == nil {
				firstErr = fmt.Errorf("ServeHTTP replay: status %d", rec.Code)
			}
		})
		spans.end(sp)
		if firstErr != nil {
			return firstErr
		}
		p.set(wire.name, float64(d)/1e3)
	}

	// Engine.PredictInto on an in-process engine over the same data.
	h, err := openEngine(e)
	if err != nil {
		return err
	}
	sp = spans.begin(root, "replay.engine")
	out := make([]serve.Prediction, b.w.RowsPerRequest)
	d := perCall(replayRequests, func(i int) {
		rs, model, _ := l.request(i)
		if _, err := h.eng.PredictInto(model, l.rowsets[rs], out); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	spans.end(sp)
	if firstErr != nil {
		return firstErr
	}
	p.set("serve.engine_us_per_row", float64(d)/1e3/float64(b.w.RowsPerRequest))

	sp = spans.begin(root, "replay.kernels")
	err = p.kernels(b, h, l)
	spans.end(sp)
	if err != nil {
		return err
	}

	sp = spans.begin(root, "plan")
	plan := perCall(3, func(int) {
		if _, err := factorml.PlanGMM(e.ds, b.w.GMM); err != nil && firstErr == nil {
			firstErr = err
		}
		if _, err := factorml.PlanNN(e.ds, b.w.NN); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	spans.end(sp)
	p.set("plan.plan_s", plan.Seconds())

	sp = spans.begin(root, "trace.span")
	tracer := trace.New(trace.Config{SampleFraction: 1, Recent: 8, Slow: 8})
	var ctx context.Context
	var req *trace.Trace
	span := perCall(100000, func(i int) {
		if i%256 == 0 {
			if req != nil {
				req.Finish(200)
			}
			ctx, req, _ = tracer.StartRequest(context.Background(), "bench", "")
		}
		_, s := trace.Start(ctx, "bench.span")
		s.End()
	})
	req.Finish(200)
	spans.end(sp)
	p.set("trace.span_ns", float64(span))
	return firstErr
}

// kernels times the scoring kernels, the dimension lookup and the monitor
// observation on this set-up's models, dimension tuples and predict rows.
func (p *layerProbe) kernels(b *bench, h *engineHandle, l *predictLoad) error {
	w := b.w
	dims := append([]int{w.DS}, w.DR...)
	part := core.NewPartition(dims)
	idx, ok := h.eng.Index("synth_R1")
	if !ok {
		return fmt.Errorf("no resident index for synth_R1")
	}
	rng := rand.New(rand.NewSource(b.seed))
	z := zipfKeys(rng, w.NR[0])
	keys := make([]int64, 1<<16)
	for i := range keys {
		keys[i] = int64(z.Uint64()) % int64(w.NR[0])
	}
	var sink float64
	lookup := perCall(len(keys), func(i int) {
		if f, ok := idx.Lookup(keys[i]); ok {
			sink += f[0]
		}
	})
	p.set("join.lookup_ns", float64(lookup))

	// One resident tuple per dimension for the caches the kernels read.
	var dimRows [][]float64
	for j := range w.NR {
		ix, ok := h.eng.Index(fmt.Sprintf("synth_R%d", j+1))
		if !ok {
			return fmt.Errorf("no resident index for synth_R%d", j+1)
		}
		_, f := ix.At(0)
		dimRows = append(dimRows, f)
	}
	var facts [][]float64
	for _, rs := range l.rowsets {
		for _, r := range rs {
			facts = append(facts, r.Fact)
		}
		if len(facts) >= 4096 {
			break
		}
	}

	gm, err := h.reg.GMM("gmm")
	if err != nil {
		return err
	}
	s, err := gm.NewScorer(part)
	if err != nil {
		return err
	}
	sc := s.NewScratch()
	caches := make([][]core.QuadCache, len(dimRows))
	for j := range caches {
		caches[j] = make([]core.QuadCache, gm.K)
		s.FillDimCaches(caches[j], j+1, dimRows[j], &sc.Ops)
	}
	fill := make([]core.QuadCache, gm.K)
	nR1 := idx.Len()
	fillD := perCall(2000, func(i int) {
		_, f := idx.At(i % nR1)
		s.FillDimCaches(fill, 1, f, &sc.Ops)
	})
	p.set("gmm.fill_dim_caches_us", float64(fillD)/1e3)
	gamma := make([]float64, gm.K)
	kern := perCall(len(facts), func(i int) {
		sink += s.Responsibilities(facts[i], caches, sc, gamma)
	})
	p.set("gmm.kernel_ns_per_row", float64(kern))

	net, err := h.reg.NN("nn")
	if err != nil {
		return err
	}
	fs := net.NewForwardScratch()
	parts := make([][]float64, len(dimRows))
	off := w.DS
	for j, f := range dimRows {
		parts[j] = make([]float64, net.HiddenWidth())
		net.PartialPreAct(parts[j], off, f)
		off += len(f)
	}
	fwd := perCall(len(facts), func(i int) {
		sink += net.ForwardFactorized(fs, facts[i], parts)
	})
	p.set("nn.forward_ns_per_row", float64(fwd))

	// Monitor observation of joined rows against a baseline of the
	// joined width.
	base := &monitor.Baseline{Rows: 1}
	for c := 0; c < part.D; c++ {
		cb := monitor.ColumnBaseline{Table: "t", Name: fmt.Sprintf("c%d", c)}
		cb.Sketch = *monitor.NewSketch(-10, 10, 0)
		cb.Sketch.Observe(0)
		base.Columns = append(base.Columns, cb)
	}
	mon := monitor.New(monitor.Config{})
	mon.Attach("g", "gmm", 1, &monitor.Lineage{TrainingRows: 1, Baseline: base})
	joined := make([][]float64, len(facts))
	for i, f := range facts {
		x := append([]float64(nil), f...)
		for _, d := range dimRows {
			x = append(x, d...)
		}
		joined[i] = x
	}
	obs := perCall(len(joined), func(i int) { mon.ObserveJoined(joined[i]) })
	p.set("monitor.observe_ns_per_row", float64(obs))
	if math.IsNaN(sink) {
		return fmt.Errorf("kernel replay produced NaN")
	}
	return nil
}

// afterIngest feeds more batches straight into Stream.Ingest, past the
// loopback pass, and times the calls that refresh apart from those that
// do not.
func (p *layerProbe) afterIngest(b *bench, e *env, sent int) error {
	if p == nil {
		return nil
	}
	st, err := engineStats(e.base)
	if err != nil {
		return err
	}
	p.set("serve.dim_invalidations", float64(st.DimInvalidations))
	sp := b.spans.begin(0, "replay.stream_ingest")
	defer b.spans.end(sp)
	more := genBatches(b.w, b.seed, sent, 2*b.w.RefreshRows/b.w.BatchFacts+1)
	stream := e.srv.Stream()
	var plain, refresh []float64
	for _, bt := range more {
		t0 := time.Now()
		res, err := stream.Ingest(bt)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("Stream.Ingest replay: %w", err)
		}
		if res.RefreshTriggered {
			refresh = append(refresh, float64(d)/1e6)
		} else {
			plain = append(plain, float64(d)/1e3)
		}
	}
	p.set("stream.ingest_us", median(plain))
	p.set("stream.refresh_ms", median(refresh))
	return nil
}

// storageLayers times the storage and join layers on a closed set-up
// database: a full scan of S, a join pass with no-op callbacks, and a
// materialization of the join.
func (p *layerProbe) storageLayers(b *bench, e *env) error {
	sp := b.spans.begin(0, "replay.storage")
	defer b.spans.end(sp)
	sdb, err := storage.Open(e.dir, storage.Options{PoolPages: -1})
	if err != nil {
		return err
	}
	defer sdb.Close()
	fact, err := sdb.Table(e.fact)
	if err != nil {
		return err
	}
	var direct []*storage.Table
	for _, name := range e.dims {
		t, err := sdb.Table(name)
		if err != nil {
			return err
		}
		direct = append(direct, t)
	}
	spec, err := join.NewSnowflakeSpec(fact, direct, sdb.Table)
	if err != nil {
		return err
	}
	var scans, runs, mats []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		sc := fact.NewScanner()
		for sc.Next() {
		}
		if err := sc.Err(); err != nil {
			return err
		}
		scans = append(scans, time.Since(t0).Seconds())

		t0 = time.Now()
		runner, err := join.NewRunner(spec)
		if err != nil {
			return err
		}
		if err := runner.Run(join.Callbacks{OnMatch: func(*storage.Tuple, int, []int) error { return nil }}); err != nil {
			return err
		}
		runs = append(runs, time.Since(t0).Seconds())

		t0 = time.Now()
		t, _, err := join.Materialize(sdb, spec, "perfbench_T")
		if err != nil {
			return err
		}
		mats = append(mats, time.Since(t0).Seconds())
		if err := sdb.DropTable(t.Schema().Name); err != nil {
			return err
		}
	}
	p.set("storage.scan_s", median(scans))
	p.set("join.run_s", median(runs))
	p.set("join.materialize_s", median(mats))
	return nil
}

// metrics returns the per-layer metrics, finishing the derived ones.
func (p *layerProbe) metrics() map[string]float64 {
	out := map[string]float64{}
	for _, d := range perLayerMetrics {
		out[d.Name] = p.m[d.Name]
	}
	if pool := p.m["parallel.poolNs"]; pool > 0 {
		out["parallel.busy_ratio"] = p.m["parallel.busyNs"] / pool
	}
	if n := p.m["parallel.skewN"]; n > 0 {
		out["parallel.skew"] = p.m["parallel.skewSum"] / n
	}
	return out
}

// writeSpans writes the span file: every span, each layer's self time
// per predict request, and the tracing overhead of each end-to-end metric.
func writeSpans(path string, w workload, seed int64, spans *spanLog, p *layerProbe, overhead map[string][2]float64) error {
	m := p.metrics()
	handler := (m["serve.handler_json_us"] + m["serve.handler_fmb1_us"]) / 2
	engine := m["serve.engine_us_per_row"] * float64(w.RowsPerRequest)
	self := map[string]float64{
		"loopback_net_http_us":               m["serve.loopback_us"] - handler,
		"handler_decode_encode_admission_us": handler - engine,
		"engine_us":                          engine,
	}
	type over struct {
		Untraced, Traced, Change float64
	}
	ov := map[string]over{}
	for name, v := range overhead {
		c := 0.0
		if v[0] != 0 {
			c = v[1]/v[0] - 1
		}
		ov[name] = over{v[0], v[1], c}
	}
	doc := map[string]any{
		"workload":              w.Name,
		"seed":                  seed,
		"spans":                 spans.spans,
		"self_time_per_request": self,
		"tracing_overhead":      ov,
	}
	blob, err := jsonIndent(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
