package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"factorml"
)

// genBatches builds n ingest batches starting at batch index first: each
// carries BatchFacts new facts (sids continue after the base table,
// foreign keys Zipf-drawn) and every UpdateEvery-th batch also updates
// UpdatesPerBatch distinct Zipf-chosen R1 rows. Batch k is the same for a
// seed whatever first is.
func genBatches(w workload, seed int64, first, n int) []factorml.StreamBatch {
	out := make([]factorml.StreamBatch, 0, n)
	for k := first; k < first+n; k++ {
		rng := rand.New(rand.NewSource(seed*104729 + int64(k)))
		zipfs := make([]*rand.Zipf, len(w.NR))
		for j, nr := range w.NR {
			zipfs[j] = zipfKeys(rng, nr)
		}
		var b factorml.StreamBatch
		for f := 0; f < w.BatchFacts; f++ {
			fr := factorml.FactRow{SID: int64(w.NS + k*w.BatchFacts + f), Target: rng.NormFloat64()}
			for j, z := range zipfs {
				fr.FKs = append(fr.FKs, int64(z.Uint64())%int64(w.NR[j]))
			}
			for i := 0; i < w.DS; i++ {
				fr.Features = append(fr.Features, 3*rng.NormFloat64())
			}
			b.Facts = append(b.Facts, fr)
		}
		if (k+1)%w.UpdateEvery == 0 {
			seen := map[int64]bool{}
			for len(b.Dims) < w.UpdatesPerBatch && len(seen) < w.NR[0] {
				rid := int64(zipfs[0].Uint64()) % int64(w.NR[0])
				if seen[rid] {
					continue
				}
				seen[rid] = true
				u := factorml.DimUpdate{Table: "synth_R1", RID: rid}
				for i := 0; i < w.DR[0]; i++ {
					u.Features = append(u.Features, 3*rng.NormFloat64())
				}
				b.Dims = append(b.Dims, u)
			}
		}
		out = append(out, b)
	}
	return out
}

// refreshesFor is the number of automatic refreshes a run of batches
// triggers from pending rows: a refresh runs once pending reaches
// RefreshRows and folds everything pending.
func refreshesFor(w workload, pending int64, batches []factorml.StreamBatch) int {
	count := 0
	for _, b := range batches {
		pending += int64(len(b.Facts))
		if pending >= int64(w.RefreshRows) {
			count++
			pending = 0
		}
	}
	return count
}

// ingestPass POSTs the batches to /v1/ingest one after another and checks
// every acknowledgement and the stream's counters against what was sent.
func (b *bench) ingestPass(e *env, batches []factorml.StreamBatch) error {
	sp := b.spans.begin(0, "ingest.loopback_pass")
	defer b.spans.end(sp)
	bodies := make([][]byte, len(batches))
	for k, bt := range batches {
		body, err := json.Marshal(bt)
		if err != nil {
			return err
		}
		bodies[k] = body
	}
	st := e.srv.Stream()
	before := st.Counters()
	walBefore := e.db.WALStats()
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	r := &b.res
	var buf bytes.Buffer
	facts, updates, triggered := 0, 0, 0
	start := time.Now()
	for k, body := range bodies {
		t0 := time.Now()
		status, err := postInto(client, e.base+"/v1/ingest", "application/json", body, &buf)
		d := time.Since(t0)
		r.attempted++
		var ack factorml.IngestResult
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, buf.Bytes())
		}
		if err == nil {
			err = json.Unmarshal(buf.Bytes(), &ack)
		}
		if err == nil && (ack.Facts != len(batches[k].Facts) || ack.DimUpdates != len(batches[k].Dims) || ack.DimInserts != 0) {
			err = fmt.Errorf("acknowledged %d facts, %d updates, %d inserts; sent %d facts, %d updates",
				ack.Facts, ack.DimUpdates, ack.DimInserts, len(batches[k].Facts), len(batches[k].Dims))
		}
		if err != nil {
			r.failed++
			r.problem("ingest batch %d: %v", k, err)
			continue
		}
		facts += ack.Facts
		updates += ack.DimUpdates
		r.ingestLat = append(r.ingestLat, d)
		if ack.RefreshTriggered {
			triggered++
			r.refreshLat = append(r.refreshLat, d)
		}
	}
	wall := time.Since(start)
	r.ingestRates = append(r.ingestRates, float64(facts)/wall.Seconds())

	after := st.Counters()
	wantRefreshes := refreshesFor(b.w, before.PendingRows, batches)
	if got := after.Batches - before.Batches; got != uint64(len(batches)) {
		r.problem("stream counted %d batches, sent %d", got, len(batches))
	}
	if got := after.FactsIngested - before.FactsIngested; got != uint64(facts) {
		r.problem("stream counted %d facts, acknowledged %d", got, facts)
	}
	if got := after.DimUpdates - before.DimUpdates; got != uint64(updates) {
		r.problem("stream counted %d dimension updates, acknowledged %d", got, updates)
	}
	if got := after.AutoRefreshes - before.AutoRefreshes; got != uint64(wantRefreshes) || triggered != wantRefreshes {
		r.problem("stream ran %d refreshes (%d acknowledged), want %d (facts / RefreshRows)", got, triggered, wantRefreshes)
	}
	b.probe.ingestWindow(before, after, walBefore, e.db.WALStats(), len(batches), facts)
	return nil
}
