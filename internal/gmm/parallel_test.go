package gmm

import (
	"fmt"
	"math"
	"testing"

	"factorml/internal/join"
	"factorml/internal/storage"
)

// assertBitIdentical fails unless the two results carry bit-for-bit equal
// models, log-likelihood traces and op counts.
func assertBitIdentical(t *testing.T, name string, r1, rn *Result) {
	t.Helper()
	if d := r1.Model.MaxParamDiff(rn.Model); d != 0 {
		t.Errorf("%s: max parameter diff %g between worker counts, want bit-identical", name, d)
	}
	for k, w := range r1.Model.Weights {
		if math.IsNaN(w) {
			t.Errorf("%s: weight %d is NaN", name, k)
		}
	}
	if len(r1.Stats.LogLikelihood) != len(rn.Stats.LogLikelihood) {
		t.Fatalf("%s: iteration counts differ: %d vs %d", name,
			len(r1.Stats.LogLikelihood), len(rn.Stats.LogLikelihood))
	}
	for i := range r1.Stats.LogLikelihood {
		if r1.Stats.LogLikelihood[i] != rn.Stats.LogLikelihood[i] {
			t.Errorf("%s: log-likelihood[%d] %v vs %v, want bit-identical", name,
				i, r1.Stats.LogLikelihood[i], rn.Stats.LogLikelihood[i])
		}
	}
	if r1.Stats.Ops != rn.Stats.Ops {
		t.Errorf("%s: op counts differ: %+v vs %+v", name, r1.Stats.Ops, rn.Stats.Ops)
	}
}

// TestParallelDeterminism is the engine's headline guarantee: for all three
// execution strategies the models trained with 2 and 4 workers are
// bit-for-bit the model trained sequentially. A binary, a 3-way and a 4-way
// schema are covered; the binary and 4-way ones use BlockPages=1, so chunks
// and the covariance pass's R1 group flushes cross block barriers, and the
// 4-way one has a resident–resident cross block.
func TestParallelDeterminism(t *testing.T) {
	trainers := map[string]func(*storage.Database, *join.Spec, Config) (*Result, error){
		"M-GMM": TrainM, "S-GMM": TrainS, "F-GMM": TrainF,
	}
	schemas := []struct {
		name string
		make func(db *storage.Database) *join.Spec
	}{
		// 600 dimension tuples span several pages, so BlockPages=1
		// exercises multi-block chunk barriers.
		{"binary", func(db *storage.Database) *join.Spec { return synthBinary(t, db, 2000, 600, 3, 5) }},
		{"multiway", func(db *storage.Database) *join.Spec {
			return synthMulti(t, db, 1500, []int{60, 25}, 3, []int{4, 2})
		}},
		{"4-way", func(db *storage.Database) *join.Spec {
			return synthMulti(t, db, 2000, []int{600, 25, 10}, 3, []int{4, 3, 2})
		}},
	}
	for _, sc := range schemas {
		db := openDB(t)
		spec := sc.make(db)
		if sc.name != "multiway" {
			spec.BlockPages = 1
		}
		for name, train := range trainers {
			cfg := Config{K: 3, MaxIter: 4, Tol: 1e-12}
			cfg.NumWorkers = 1
			r1, err := train(db, spec, cfg)
			if err != nil {
				t.Fatalf("%s/%s workers=1: %v", sc.name, name, err)
			}
			for _, w := range []int{2, 4} {
				cfg.NumWorkers = w
				rn, err := train(db, spec, cfg)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", sc.name, name, w, err)
				}
				assertBitIdentical(t, sc.name+"/"+name+"/workers="+string(rune('0'+w)), r1, rn)
			}
		}
	}
}

// TestParallelDeterminismDiagonal covers the diagonal-covariance (IGMM)
// code paths, which have their own dense and factorized EM loops: a
// single-block binary schema and a multi-way one with BlockPages=1, whose
// E-step folds the means across block barriers and resident groups.
func TestParallelDeterminismDiagonal(t *testing.T) {
	trainers := map[string]func(*storage.Database, *join.Spec, Config) (*Result, error){
		"M-IGMM": TrainM, "S-IGMM": TrainS, "F-IGMM": TrainF,
	}
	for _, multi := range []bool{false, true} {
		db := openDB(t)
		var spec *join.Spec
		if multi {
			spec = synthMulti(t, db, 2000, []int{600, 25}, 3, []int{4, 2})
			spec.BlockPages = 1
		} else {
			spec = synthBinary(t, db, 1500, 60, 3, 4)
		}
		for name, train := range trainers {
			cfg := Config{K: 3, MaxIter: 4, Tol: 1e-12, Diagonal: true}
			cfg.NumWorkers = 1
			r1, err := train(db, spec, cfg)
			if err != nil {
				t.Fatalf("%s workers=1: %v", name, err)
			}
			cfg.NumWorkers = 4
			r4, err := train(db, spec, cfg)
			if err != nil {
				t.Fatalf("%s workers=4: %v", name, err)
			}
			assertBitIdentical(t, fmt.Sprintf("%s/multiway=%v", name, multi), r1, r4)
		}
	}
}
