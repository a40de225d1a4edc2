package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"factorml/internal/join"
	"factorml/internal/serve"
	"factorml/internal/storage"
)

var predictModels = [2]string{"gmm", "nn"}

// predictLoad is the pre-generated predict traffic: Rowsets distinct row
// sets, each encoded once as JSON and once as FMB1. Request i sends row
// set i mod Rowsets to model i&1 over wire (i>>1)&1, so requests
// alternate GMM/NN and JSON/FMB1.
type predictLoad struct {
	seed    int64
	rowsets [][]serve.Row
	json    [][]byte
	fmb1    [][]byte
}

// zipfKeys draws dimension keys 0..n-1 with Zipf(s) skew: key 0 is the
// hottest.
func zipfKeys(rng *rand.Rand, n int) *rand.Zipf {
	if n < 2 {
		return rand.NewZipf(rng, zipfS, 1, 1)
	}
	return rand.NewZipf(rng, zipfS, 1, uint64(n-1))
}

func newPredictLoad(w workload, seed int64) (*predictLoad, error) {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	zipfs := make([]*rand.Zipf, len(w.NR))
	for j, n := range w.NR {
		zipfs[j] = zipfKeys(rng, n)
	}
	l := &predictLoad{seed: seed}
	for i := 0; i < w.Rowsets; i++ {
		rows := make([]serve.Row, w.RowsPerRequest)
		for r := range rows {
			fact := make([]float64, w.DS)
			for k := range fact {
				fact[k] = 3 * rng.NormFloat64()
			}
			fks := make([]int64, len(w.NR))
			for j, z := range zipfs {
				fks[j] = int64(z.Uint64()) % int64(w.NR[j])
			}
			rows[r] = serve.Row{Fact: fact, FKs: fks}
		}
		bin, err := serve.AppendBinaryRequest(nil, rows)
		if err != nil {
			return nil, err
		}
		l.rowsets = append(l.rowsets, rows)
		l.json = append(l.json, encodePredictJSON(rows))
		l.fmb1 = append(l.fmb1, bin)
	}
	return l, nil
}

func encodePredictJSON(rows []serve.Row) []byte {
	b := []byte(`{"rows":[`)
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"fact":[`...)
		for k, v := range r.Fact {
			if k > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, `],"fks":[`...)
		for k, v := range r.FKs {
			if k > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}"...)
}

// request returns request i's row set index, model and wire (true = FMB1).
func (l *predictLoad) request(i int) (rowset int, model string, binary bool) {
	return i % len(l.rowsets), predictModels[i&1], (i>>1)&1 == 1
}

func (l *predictLoad) body(i int) (body []byte, contentType string) {
	rs, _, binary := l.request(i)
	if binary {
		return l.fmb1[rs], serve.BinaryContentType
	}
	return l.json[rs], "application/json"
}

// predictRun is one closed-loop phase's outcome. Requests completing in
// the warm-up are checked but not timed.
type predictRun struct {
	timed     []timed
	span      time.Duration // measured time
	attempted int
	failed    int
	problems  []string
	samples   []predictSample
}

// predictSample is a kept response, checked against the in-process engine
// after the phase.
type predictSample struct {
	req  int
	body []byte
}

// sampled picks a seeded ~1/64 of the requests for the engine check.
func sampled(seed int64, i int) bool {
	h := uint64(i)*0x9E3779B97F4A7C15 ^ uint64(seed)
	h ^= h >> 29
	return h%64 == 0
}

const (
	maxSamples = 512
	warmup     = time.Second // dimension caches fill, connections open
)

// timed is one measured request.
type timed struct {
	lat  time.Duration
	rows int
	kind int // model bit | wire bit << 1, as request() decodes i
}

// closedLoop runs clients closed-loop predict clients (each sends its next
// request once the previous reply is read): a warm-up, then dur measured,
// or when dur is 0 until stop closes.
func (l *predictLoad) closedLoop(base string, clients int, warm, dur time.Duration, stop <-chan struct{}, spans *spanLog) *predictRun {
	sp := spans.begin(0, "predict.loopback_phase")
	defer spans.end(sp)
	tr := &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	urls := [2]string{}
	for m, name := range predictModels {
		urls[m] = base + "/v1/models/" + name + "/predict"
	}
	var next atomic.Int64
	var mu sync.Mutex
	out := &predictRun{}
	from := time.Now().Add(warm)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local predictRun
			var buf bytes.Buffer
		loop:
			for {
				if dur > 0 && time.Since(from) >= dur {
					break
				}
				if stop != nil {
					select {
					case <-stop:
						break loop
					default:
					}
				}
				i := int(next.Add(1) - 1)
				body, ct := l.body(i)
				t0 := time.Now()
				status, err := postInto(client, urls[i&1], ct, body, &buf)
				t1 := time.Now()
				local.attempted++
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %.200s", status, buf.Bytes())
				}
				if err == nil {
					err = l.checkResponse(i, buf.Bytes())
				}
				if err != nil {
					local.failed++
					if len(local.problems) < 5 {
						local.problems = append(local.problems, fmt.Sprintf("predict request %d: %v", i, err))
					}
					continue
				}
				if t1.Before(from) {
					continue
				}
				local.timed = append(local.timed, timed{lat: t1.Sub(t0), rows: len(l.rowsets[i%len(l.rowsets)]), kind: i & 3})
				if sampled(l.seed, i) && len(local.samples) < maxSamples {
					local.samples = append(local.samples, predictSample{req: i, body: append([]byte(nil), buf.Bytes()...)})
				}
			}
			mu.Lock()
			out.timed = append(out.timed, local.timed...)
			out.attempted += local.attempted
			out.failed += local.failed
			out.problems = append(out.problems, local.problems...)
			out.samples = append(out.samples, local.samples...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.span = time.Since(from)
	return out
}

// predictFigures reduces measured requests to rows/s and the p50 and p99
// latencies. The p50 is the mean over request kinds of each kind's
// median: the kinds' latencies differ ~2.5x (JSON vs FMB1), so the pooled
// median sits in the gap between them and swings with small shifts. The
// p99 is over all requests.
func predictFigures(all []timed, span time.Duration) (rowsPerS, p50, p99 float64) {
	var lats []float64
	var byKind [4][]float64
	rows := 0
	for _, t := range all {
		ms := float64(t.lat) / 1e6
		lats = append(lats, ms)
		byKind[t.kind] = append(byKind[t.kind], ms)
		rows += t.rows
	}
	kinds := 0
	for _, l := range byKind {
		if len(l) > 0 {
			p50 += median(l)
			kinds++
		}
	}
	if kinds > 0 {
		p50 /= float64(kinds)
	}
	if span > 0 {
		rowsPerS = float64(rows) / span.Seconds()
	}
	return rowsPerS, p50, quantile(lats, 0.99)
}

// postInto POSTs body and reads the whole reply into buf.
func postInto(client *http.Client, url, contentType string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// predictionsOf decodes a predict response of request i.
func (l *predictLoad) predictionsOf(i int, body []byte) ([]serve.Prediction, error) {
	_, _, binary := l.request(i)
	if binary {
		_, preds, err := serve.DecodeBinaryResponse(body)
		return preds, err
	}
	var resp struct {
		Predictions []struct {
			Output  *float64        `json:"output"`
			LogProb *float64        `json:"log_prob"`
			Cluster *int            `json:"cluster"`
			Error   json.RawMessage `json:"error"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	preds := make([]serve.Prediction, len(resp.Predictions))
	for k, p := range resp.Predictions {
		switch {
		case p.Error != nil:
			preds[k].Err = string(p.Error)
		case p.Output != nil:
			preds[k].Output = *p.Output
		case p.LogProb != nil && p.Cluster != nil:
			preds[k].LogProb, preds[k].Cluster = *p.LogProb, *p.Cluster
		default:
			preds[k].Err = "no value"
		}
	}
	return preds, nil
}

// checkResponse is the per-response check, the same on both wires: the
// response decodes, and holds one error-free prediction per row sent.
func (l *predictLoad) checkResponse(i int, body []byte) error {
	preds, err := l.predictionsOf(i, body)
	if err != nil {
		return err
	}
	if n := len(l.rowsets[i%len(l.rowsets)]); len(preds) != n {
		return fmt.Errorf("%d predictions for %d rows", len(preds), n)
	}
	for k, p := range preds {
		if p.Err != "" {
			return fmt.Errorf("row %d error %s: %s", k, p.Code, p.Err)
		}
	}
	return nil
}

// engineHandle is the in-process serving engine over a second, read-only
// handle on a set-up's database directory. The handle is never closed:
// closing it would rewrite the catalog under the live server's handle.
type engineHandle struct {
	db   *storage.Database
	reg  *serve.Registry
	plan *join.DimPlan
	eng  *serve.Engine
}

func openEngine(e *env) (*engineHandle, error) {
	sdb, err := storage.Open(e.dir, storage.Options{PoolPages: -1})
	if err != nil {
		return nil, err
	}
	reg, err := serve.NewRegistry(sdb)
	if err != nil {
		return nil, err
	}
	var direct []*storage.Table
	for _, name := range e.dims {
		t, err := sdb.Table(name)
		if err != nil {
			return nil, err
		}
		direct = append(direct, t)
	}
	plan, err := join.ExpandDims(direct, sdb.Table)
	if err != nil {
		return nil, err
	}
	eng, err := serve.NewEngine(reg, plan, serve.EngineConfig{NumWorkers: 1})
	if err != nil {
		return nil, err
	}
	return &engineHandle{db: sdb, reg: reg, plan: plan, eng: eng}, nil
}

// checkAgainstEngine compares every sampled loopback response with the
// in-process Engine.Predict over the same rows, bit for bit; since both
// wires are sampled for both models, JSON and FMB1 must also agree.
func checkAgainstEngine(e *env, l *predictLoad, samples []predictSample, r *results) error {
	h, err := openEngine(e)
	if err != nil {
		return err
	}
	var wires [2][2]int
	for _, s := range samples {
		rs, model, binary := l.request(s.req)
		got, err := l.predictionsOf(s.req, s.body)
		if err != nil {
			r.problem("sample %d: decoding response: %v", s.req, err)
			continue
		}
		want, _, err := h.eng.Predict(model, l.rowsets[rs])
		if err != nil {
			return err
		}
		if d := diffPredictions(got, want); d != "" {
			r.problem("sample %d (%s, binary=%v): loopback differs from Engine.Predict: %s", s.req, model, binary, d)
		}
		w := 0
		if binary {
			w = 1
		}
		wires[s.req&1][w]++
	}
	for m, byWire := range wires {
		if byWire[0] == 0 || byWire[1] == 0 {
			r.problem("engine check sampled no %s response on one wire (json %d, fmb1 %d)", predictModels[m], byWire[0], byWire[1])
		}
	}
	return nil
}

func diffPredictions(got, want []serve.Prediction) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d predictions, want %d", len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.Err != "" || w.Err != "" {
			return fmt.Sprintf("row %d: error %q / %q", k, g.Err, w.Err)
		}
		if math.Float64bits(g.Output) != math.Float64bits(w.Output) ||
			math.Float64bits(g.LogProb) != math.Float64bits(w.LogProb) || g.Cluster != w.Cluster {
			return fmt.Sprintf("row %d: got (%v, %v, %d), want (%v, %v, %d)",
				k, g.Output, g.LogProb, g.Cluster, w.Output, w.LogProb, w.Cluster)
		}
	}
	return ""
}

// statsz is the part of GET /statsz the benchmark reads.
type statsz struct {
	DimCacheHits     uint64 `json:"dim_cache_hits"`
	DimCacheMisses   uint64 `json:"dim_cache_misses"`
	DimInvalidations uint64 `json:"dim_invalidations"`
}

func engineStats(base string) (statsz, error) {
	var s statsz
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /statsz: status %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}
