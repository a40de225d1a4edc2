package factorml

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"factorml/internal/monitor"
)

// buildLineageStar creates orders ⋈ items ⋈ stores, a two-dimension star
// with correlated columns, through the public API.
func buildLineageStar(t *testing.T, db *DB) *FactTable {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	items, err := db.CreateDimensionTable("items", []string{"price", "size"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		p := rng.NormFloat64()
		if err := items.Append(int64(i), []float64{p, 0.5*p + rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	stores, err := db.CreateDimensionTable("stores", []string{"footfall"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := stores.Append(int64(i), []float64{3 * rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	orders, err := db.CreateFactTable("orders", []string{"amount", "hour"}, true, items, stores)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		a := rng.NormFloat64() + float64(i%3)
		err := orders.Append(int64(i), []int64{int64(rng.Intn(25)), int64(rng.Intn(6))},
			[]float64{a, rng.NormFloat64()}, a)
		if err != nil {
			t.Fatal(err)
		}
	}
	return orders
}

// relClose reports |a−b| ≤ tol·max(|a|, |b|, 1).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestGMMLineageMatchesDenseLogProb pins the one-scorer lineage capture
// against a baseline scored row by row through the dense reference
// Model.LogProb, on a star and on a snowflake: row count and every
// column sketch are identical, the quality sketch counts the same rows
// and agrees on min, max and mean to 1e-9 relative. It also pins
// Model.Score (BIC/AIC log-likelihood) against ΣLogProb over the join.
func TestGMMLineageMatchesDenseLogProb(t *testing.T) {
	cases := map[string]func(t *testing.T, db *DB) *FactTable{
		"star": buildLineageStar,
		"snowflake": func(t *testing.T, db *DB) *FactTable {
			return buildSnowflakeFixture(t, db, 300).fact
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			db := openDB(t)
			ds, err := db.Dataset(build(t, db))
			if err != nil {
				t.Fatal(err)
			}
			res, err := TrainGMM(ds, Factorized, GMMConfig{K: 3, MaxIter: 3, Tol: 1e-300, NumWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			m := res.Model
			got, err := GMMLineage(ds, m, "factorized")
			if err != nil {
				t.Fatal(err)
			}
			want, err := monitor.CaptureLineage(ds.spec, "factorized",
				func(x []float64, _ float64) float64 { return m.LogProb(x) }, "log_likelihood")
			if err != nil {
				t.Fatal(err)
			}
			if got.TrainingRows != want.TrainingRows || got.Strategy != want.Strategy ||
				got.Baseline.Rows != want.Baseline.Rows || got.Baseline.QualityMetric != want.Baseline.QualityMetric {
				t.Fatalf("lineage header: got %+v, want %+v", got, want)
			}
			if !reflect.DeepEqual(got.Baseline.Columns, want.Baseline.Columns) {
				t.Fatal("column sketches differ from the dense-reference capture")
			}
			gq, wq := got.Baseline.Quality, want.Baseline.Quality
			if gq.Count != wq.Count || gq.Count != got.Baseline.Rows || gq.NonFinite != 0 {
				t.Fatalf("quality count %d (non-finite %d), want %d", gq.Count, gq.NonFinite, wq.Count)
			}
			for _, f := range []struct {
				name      string
				got, want float64
			}{{"min", gq.Min, wq.Min}, {"max", gq.Max, wq.Max}, {"mean", gq.Mean, wq.Mean}} {
				if !relClose(f.got, f.want, 1e-9) {
					t.Fatalf("quality %s = %v, dense reference %v", f.name, f.got, f.want)
				}
			}

			var dense float64
			var rows int64
			if err := ds.Stream(func(_ int64, x []float64, _ float64) error {
				dense += m.LogProb(x)
				rows++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			ll, n, err := m.Score(ds.spec)
			if err != nil {
				t.Fatal(err)
			}
			if n != rows || !relClose(ll, dense, 1e-9) {
				t.Fatalf("Score = (%v, %d), ΣLogProb = (%v, %d)", ll, n, dense, rows)
			}
		})
	}
}
