package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"factorml/internal/serve"
)

// tiny shrinks a workload so the whole life cycle runs in a few seconds.
func tiny(w workload) workload {
	w.NS /= 20
	w.NR = append([]int(nil), w.NR...)
	for j := range w.NR {
		w.NR[j] = max(w.NR[j]/20, 2)
	}
	w.Setups = 2
	w.IngestBatches, w.BatchFacts, w.RefreshRows = 24, 16, 100
	w.Rowsets = 255
	// The planner's picks depend on the scale, so the small copies do
	// not check them.
	w.WantGMM, w.WantNN = "", ""
	return w
}

func runTiny(t *testing.T, w workload, traced bool) *result {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	res, err := runWorkload(w, 3, 0.5, traced, t.TempDir(), out)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		log, _ := os.ReadFile(out.Name())
		t.Fatalf("%s: correct=%v failed=%d attempted=%d\n%s", w.Name, res.Correct, res.Failed, res.Attempted, log)
	}
	return res
}

// TestEveryMetricEmitted runs every workload at a small scale, untraced
// and traced, and checks each prints every metric it names.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		w := tiny(workloads[name])
		res := runTiny(t, w, false)
		for _, d := range endToEndMetrics {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v), want a positive value in %s", name, d.Name, m, ok, d.Unit)
			}
		}
		if len(res.Metrics) != len(endToEndMetrics) {
			t.Errorf("%s: %d end-to-end metrics, want %d", name, len(res.Metrics), len(endToEndMetrics))
		}
		res = runTiny(t, w, true)
		for _, d := range perLayerMetrics {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s missing or wrong unit (%+v)", name, d.Name, m)
			}
		}
		if len(res.Metrics) != len(perLayerMetrics) {
			t.Errorf("%s: %d per-layer metrics, want %d", name, len(res.Metrics), len(perLayerMetrics))
		}
	}
}

// TestCorruptedResponseFailsCheck corrupts loopback predict responses and
// checks the output checks catch every corruption.
func TestCorruptedResponseFailsCheck(t *testing.T) {
	w := tiny(workloads["serve-predict"])
	w.Setups = 1
	b := newBench(w, 5, 0.3, t.TempDir())
	e, err := b.setup(0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	load, err := newPredictLoad(w, b.seed)
	if err != nil {
		t.Fatal(err)
	}
	pr := load.closedLoop(e.base, 2, 0, 300*time.Millisecond, nil, nil)
	if pr.failed != 0 || len(pr.samples) == 0 {
		t.Fatalf("clean phase: %d failed, %d samples, problems %v", pr.failed, len(pr.samples), pr.problems)
	}
	var clean results
	if err := checkAgainstEngine(e, load, pr.samples, &clean); err != nil {
		t.Fatal(err)
	}
	if len(clean.problems) != 0 {
		t.Fatalf("clean responses failed the check: %v", clean.problems)
	}

	for _, s := range pr.samples {
		_, _, binary := load.request(s.req)
		bad := append([]byte(nil), s.body...)
		if binary {
			bad[len(bad)-1] ^= 0x40 // last byte of the last row's value
		} else {
			var doc map[string]any
			if err := json.Unmarshal(bad, &doc); err != nil {
				t.Fatal(err)
			}
			row := doc["predictions"].([]any)[0].(map[string]any)
			for k, v := range row {
				if f, ok := v.(float64); ok {
					row[k] = f * 1.0000001
				}
			}
			if bad, err = json.Marshal(doc); err != nil {
				t.Fatal(err)
			}
		}
		var r results
		if err := checkAgainstEngine(e, load, []predictSample{{req: s.req, body: bad}}, &r); err != nil {
			t.Fatal(err)
		}
		if len(r.problems) == 0 {
			t.Fatalf("corrupted response to request %d (binary=%v) passed the engine check", s.req, binary)
		}
	}

	// The per-response check runs on every response of every phase,
	// stream-ingest's included. Request 0 is GMM over JSON, request 2 GMM
	// over FMB1.
	var good [2][]byte
	for _, s := range pr.samples {
		if s.req&1 == 0 {
			_, _, binary := load.request(s.req)
			if binary {
				good[1] = s.body
			} else {
				good[0] = s.body
			}
		}
	}
	if good[0] == nil || good[1] == nil {
		t.Fatal("no sampled GMM response on one wire")
	}
	if err := load.checkResponse(0, good[0]); err != nil {
		t.Fatalf("a clean JSON response failed the per-response check: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(good[0], &doc); err != nil {
		t.Fatal(err)
	}
	preds := doc["predictions"].([]any)
	doc["predictions"] = preds[:len(preds)-1]
	short, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	// An FMB1 GMM response one row short: the row count (after the 8-byte
	// preamble, the model name and the version) less one, the last
	// 13-byte row dropped.
	binShort := append([]byte(nil), good[1][:len(good[1])-13]...)
	at := 8 + 2 + int(binary.LittleEndian.Uint16(binShort[8:])) + 4
	binary.LittleEndian.PutUint32(binShort[at:], binary.LittleEndian.Uint32(binShort[at:])-1)
	if _, preds, err := serve.DecodeBinaryResponse(binShort); err != nil || len(preds) != w.RowsPerRequest-1 {
		t.Fatalf("short FMB1 response: %d rows, %v", len(preds), err)
	}
	for _, c := range []struct {
		req  int
		body string
	}{
		{0, `{"predictions":[]}`},
		{0, string(short)},
		{0, string(good[0][:len(good[0])/2])},
		{0, `{"predictions":[{"error":{"code":"unknown_key"}}]}`},
		{2, string(binShort)},
		{2, string(good[1][:len(good[1])-4])},
	} {
		if err := load.checkResponse(c.req, []byte(c.body)); err == nil {
			t.Errorf("a bad response to request %d passed the per-response check: %.120q", c.req, c.body)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics in
// step with the program.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program emits %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
}
