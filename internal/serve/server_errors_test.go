package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"factorml/internal/api"
	"factorml/internal/gmm"
	"factorml/internal/linalg"
	"factorml/internal/monitor"
	"factorml/internal/serve"
)

// envelope mirrors api.Envelope for black-box decoding.
type envelope struct {
	Error struct {
		Code    string         `json:"code"`
		Message string         `json:"message"`
		Details map[string]any `json:"details"`
	} `json:"error"`
}

// checkEnvelope asserts the unified error shape: the given status, a
// non-empty message, and the expected stable code.
func checkEnvelope(t *testing.T, resp *http.Response, body []byte, status int, code string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, status, body)
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("non-envelope error body %s: %v", body, err)
	}
	if env.Error.Code != code {
		t.Fatalf("error code %q, want %q (body %s)", env.Error.Code, code, body)
	}
	if env.Error.Message == "" {
		t.Fatalf("empty error message in %s", body)
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%d response carries no Retry-After header", status)
		}
	}
}

// TestServerHTTPErrorPaths pins the unified error envelope
// {"error":{"code","message","details"}} with its stable machine-readable
// code on every endpoint failure mode: client mistakes are 4xx, per-row
// data problems are 200 with a structured row-level error, overload and
// not-enabled subsystems are 429/503 with Retry-After. Nothing here
// should ever surface as a 500 — that status is reserved for genuine
// server-side failures.
func TestServerHTTPErrorPaths(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	net, _ := trainModels(t, db, spec)
	reg, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: 1})
	if err := reg.SaveNN("err-nn", net); err != nil {
		t.Fatal(err)
	}
	// A registered model too narrow for the engine's dimension tables:
	// predicts against it must answer model_incompatible, not 500.
	if err := reg.SaveGMM("err-narrow", &gmm.Model{K: 1, D: 1,
		Weights: []float64{1}, Means: [][]float64{{0}},
		Covs: []*linalg.Dense{linalg.NewDenseData(1, 1, []float64{1})}}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServer(eng))
	defer ts.Close()

	do := func(t *testing.T, method, path, body string) (*http.Response, []byte) {
		t.Helper()
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf strings.Builder
		dec := json.NewDecoder(resp.Body)
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == nil {
			buf.Write(raw)
		}
		return resp, []byte(buf.String())
	}
	rows, _ := factRows(t, spec, 2)
	goodRow := fmt.Sprintf(`{"fact":[%g,%g,%g],"fks":[%d,%d]}`,
		rows[0].Fact[0], rows[0].Fact[1], rows[0].Fact[2], rows[0].FKs[0], rows[0].FKs[1])

	t.Run("malformed JSON body", func(t *testing.T) {
		resp, body := do(t, "POST", "/v1/models/err-nn/predict", `{"rows": [ {`)
		checkEnvelope(t, resp, body, http.StatusBadRequest, "invalid_request")
	})
	t.Run("unknown request field", func(t *testing.T) {
		resp, body := do(t, "POST", "/v1/models/err-nn/predict", `{"rows":[`+goodRow+`],"nonsense":1}`)
		checkEnvelope(t, resp, body, http.StatusBadRequest, "invalid_request")
	})
	t.Run("empty rows", func(t *testing.T) {
		resp, body := do(t, "POST", "/v1/models/err-nn/predict", `{"rows":[]}`)
		checkEnvelope(t, resp, body, http.StatusBadRequest, "invalid_request")
	})
	t.Run("unknown model name", func(t *testing.T) {
		resp, body := do(t, "POST", "/v1/models/no-such-model/predict", `{"rows":[`+goodRow+`]}`)
		checkEnvelope(t, resp, body, http.StatusNotFound, "model_not_found")
	})
	t.Run("incompatible model shape", func(t *testing.T) {
		resp, body := do(t, "POST", "/v1/models/err-narrow/predict", `{"rows":[`+goodRow+`]}`)
		checkEnvelope(t, resp, body, http.StatusBadRequest, "model_incompatible")
	})
	t.Run("oversized batch", func(t *testing.T) {
		// 33 MiB of leading whitespace trips the 32 MiB request-body cap
		// while staying valid JSON, so the rejection is attributable to
		// MaxBytesReader alone: a structured 413, not a 500.
		body := strings.Repeat(" ", 33<<20) + `{"rows":[` + goodRow + `]}`
		resp, got := do(t, "POST", "/v1/models/err-nn/predict", body)
		checkEnvelope(t, resp, got, http.StatusRequestEntityTooLarge, "payload_too_large")
	})
	t.Run("wrong feature width is a structured row error", func(t *testing.T) {
		// Shape problems are per-row data errors: the batch succeeds (200)
		// and the offending row carries the coded error, so one bad row
		// cannot fail a whole micro-batched request.
		resp, body := do(t, "POST", "/v1/models/err-nn/predict",
			`{"rows":[`+goodRow+`,{"fact":[1],"fks":[0,0]}]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200 with a row-level error", resp.StatusCode)
		}
		var payload struct {
			Predictions []struct {
				Err *struct {
					Code    string `json:"code"`
					Message string `json:"message"`
				} `json:"error"`
			} `json:"predictions"`
		}
		if err := json.Unmarshal(body, &payload); err != nil {
			t.Fatal(err)
		}
		if payload.Predictions[0].Err != nil {
			t.Fatalf("good row has error %+v", payload.Predictions[0].Err)
		}
		if e := payload.Predictions[1].Err; e == nil || e.Code != "row_width_mismatch" {
			t.Fatalf("bad row error = %+v, want code row_width_mismatch", e)
		}
	})
	t.Run("wrong foreign key count is a structured row error", func(t *testing.T) {
		resp, body := do(t, "POST", "/v1/models/err-nn/predict", `{"rows":[{"fact":[1,2,3],"fks":[0]}]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200 with a row-level error", resp.StatusCode)
		}
		var payload struct {
			Predictions []struct {
				Err *struct {
					Code string `json:"code"`
				} `json:"error"`
			} `json:"predictions"`
		}
		if err := json.Unmarshal(body, &payload); err != nil {
			t.Fatal(err)
		}
		if e := payload.Predictions[0].Err; e == nil || e.Code != "fk_count_mismatch" {
			t.Fatalf("row error = %+v, want code fk_count_mismatch", e)
		}
	})
	t.Run("unknown foreign key is a structured row error", func(t *testing.T) {
		resp, body := do(t, "POST", "/v1/models/err-nn/predict",
			fmt.Sprintf(`{"rows":[{"fact":[1,2,3],"fks":[999999,%d]}]}`, rows[0].FKs[1]))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200 with a row-level error", resp.StatusCode)
		}
		var payload struct {
			Predictions []struct {
				Err *struct {
					Code string `json:"code"`
				} `json:"error"`
			} `json:"predictions"`
		}
		if err := json.Unmarshal(body, &payload); err != nil {
			t.Fatal(err)
		}
		if e := payload.Predictions[0].Err; e == nil || e.Code != "unknown_foreign_key" {
			t.Fatalf("row error = %+v, want code unknown_foreign_key", e)
		}
	})
	t.Run("ingest without a stream", func(t *testing.T) {
		resp, body := do(t, "POST", "/v1/ingest", `{"facts":[]}`)
		checkEnvelope(t, resp, body, http.StatusServiceUnavailable, "stream_disabled")
	})
	t.Run("refresh without a stream", func(t *testing.T) {
		resp, body := do(t, "POST", "/v1/refresh", `{}`)
		checkEnvelope(t, resp, body, http.StatusServiceUnavailable, "stream_disabled")
	})
	t.Run("get unknown model", func(t *testing.T) {
		resp, body := do(t, "GET", "/v1/models/no-such-model", "")
		checkEnvelope(t, resp, body, http.StatusNotFound, "model_not_found")
	})
	t.Run("delete unknown model", func(t *testing.T) {
		resp, body := do(t, "DELETE", "/v1/models/no-such-model", "")
		checkEnvelope(t, resp, body, http.StatusNotFound, "model_not_found")
	})
	t.Run("unknown route", func(t *testing.T) {
		resp, body := do(t, "GET", "/v2/nothing", "")
		checkEnvelope(t, resp, body, http.StatusNotFound, "not_found")
	})
	t.Run("wrong method on a known route", func(t *testing.T) {
		resp, body := do(t, "PUT", "/v1/ingest", "")
		checkEnvelope(t, resp, body, http.StatusMethodNotAllowed, "method_not_allowed")
	})
}

// TestServerReadiness pins the /readyz contract: not-ready answers a
// structured 503 not_ready (what the boot window serves), ready answers
// 200, and /healthz always answers 200 with the readiness flag.
func TestServerReadiness(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	_, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: 1})
	srv := serve.NewServer(eng)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var raw json.RawMessage
		_ = json.NewDecoder(resp.Body).Decode(&raw)
		return resp, raw
	}

	resp, _ := get("/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh server /readyz = %d, want 200", resp.StatusCode)
	}
	srv.SetReady(false)
	resp, body := get("/readyz")
	checkEnvelope(t, resp, body, http.StatusServiceUnavailable, "not_ready")
	resp, body = get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while not ready = %d, want 200 (liveness != readiness)", resp.StatusCode)
	}
	var health struct {
		Ready bool `json:"ready"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Ready {
		t.Fatal("healthz reports ready while SetReady(false)")
	}
	srv.SetReady(true)
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after SetReady(true) = %d, want 200", resp.StatusCode)
	}
}

// TestBootingHandler pins the pre-construction boot window: alive on
// /healthz with ready:false, structured 503 not_ready everywhere else —
// what cmd/serve serves between opening its listener and finishing the
// registry load.
func TestBootingHandler(t *testing.T) {
	ts := httptest.NewServer(serve.BootingHandler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Ready  bool   `json:"ready"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Ready || health.Status != "booting" {
		t.Fatalf("booting /healthz = %d %+v, want 200 booting/not-ready", resp.StatusCode, health)
	}
	for _, path := range []string{"/readyz", "/v1/models", "/statsz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var raw json.RawMessage
		_ = json.NewDecoder(resp.Body).Decode(&raw)
		resp.Body.Close()
		checkEnvelope(t, resp, raw, http.StatusServiceUnavailable, "not_ready")
	}
}

// TestNonFinitePredictRowsRejected sends one binary (FMB1) predict that
// mixes finite rows with NaN and ±Inf fact features to a monitored GMM and
// NN. Each non-finite row answers the non_finite_feature row code, each
// finite row is scored bit-identically to a request without the bad rows,
// and the monitor's sketches end up exactly as on a server that saw only
// the finite rows: no non-finite value reaches them.
func TestNonFinitePredictRowsRejected(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	net, model := trainModels(t, db, spec)
	finite, _ := factRows(t, spec, 3)
	bad := func(v float64) serve.Row {
		r := serve.Row{Fact: append([]float64{}, finite[0].Fact...), FKs: finite[0].FKs}
		r.Fact[1] = v
		return r
	}
	mixed := []serve.Row{finite[0], bad(math.NaN()), finite[1], bad(math.Inf(1)), bad(math.Inf(-1)), finite[2]}
	models := []string{"m-gmm", "m-nn"}

	// run predicts rows against both models on a fresh monitored server
	// and returns the per-model predictions and the monitor's state.
	run := func(rows []serve.Row) (map[string][]serve.Prediction, *monitor.State) {
		reg, eng := newTestEngine(t, db, spec, serve.EngineConfig{NumWorkers: 1})
		if err := reg.SaveGMM("m-gmm", model); err != nil {
			t.Fatal(err)
		}
		if err := reg.SaveNN("m-nn", net); err != nil {
			t.Fatal(err)
		}
		mon := monitor.New(monitor.Config{MinWindowRows: 1})
		for _, name := range models {
			kind := strings.TrimPrefix(name, "m-")
			mon.Attach(name, kind, 1, &monitor.Lineage{TrainingRows: 1, Baseline: &monitor.Baseline{
				CapturedAtUnix: 1, Rows: 1, Quality: monitor.NewSketch(-20, 20, 8),
			}})
		}
		ts := httptest.NewServer(serve.NewServer(eng, serve.WithMonitor(mon)))
		defer ts.Close()
		body, err := serve.AppendBinaryRequest(nil, rows)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]serve.Prediction)
		for _, name := range models {
			resp, err := http.Post(ts.URL+"/v1/models/"+name+"/predict", serve.BinaryContentType, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: binary predict = %d %v", name, resp.StatusCode, err)
			}
			_, preds, err := serve.DecodeBinaryResponse(raw)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = preds
		}
		return out, mon.Snapshot()
	}

	want, wantState := run(finite)
	got, gotState := run(mixed)
	for _, name := range models {
		fi := 0
		for i, p := range got[name] {
			if r := mixed[i].Fact[1]; math.IsNaN(r) || math.IsInf(r, 0) {
				if p.Code != api.CodeNonFiniteFeature || p.Err == "" {
					t.Errorf("%s row %d (%v): code %q err %q, want %q", name, i, r, p.Code, p.Err, api.CodeNonFiniteFeature)
				}
				continue
			}
			w := want[name][fi]
			fi++
			if p.Err != "" || math.Float64bits(p.LogProb) != math.Float64bits(w.LogProb) ||
				math.Float64bits(p.Output) != math.Float64bits(w.Output) || p.Cluster != w.Cluster {
				t.Errorf("%s row %d: %+v, want %+v as without the non-finite rows", name, i, p, w)
			}
		}
	}
	for _, ms := range gotState.Models {
		if ms.Quality == nil || ms.Quality.Count != int64(len(finite)) || ms.Quality.NonFinite != 0 {
			t.Errorf("%s quality sketch %+v, want %d finite observations", ms.Name, ms.Quality, len(finite))
		}
	}
	if !reflect.DeepEqual(gotState, wantState) {
		t.Errorf("monitor state after the mixed request\n%+v\nwant (finite rows only)\n%+v", gotState, wantState)
	}
}
