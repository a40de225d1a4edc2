package factorml

// Benchmark harness: one benchmark family per figure and table of the
// paper's evaluation (§VII), each with M/S/F sub-benchmarks so the relative
// costs can be read directly from `go test -bench`. Workloads are scaled
// down from the paper (see EXPERIMENTS.md); tuple ratios — the quantity the
// speedups depend on — are preserved. The full sweeps behind each figure
// are produced by `go run ./cmd/experiments`.

import (
	"fmt"
	"testing"

	"factorml/internal/data"
	"factorml/internal/gmm"
	"factorml/internal/join"
	"factorml/internal/nn"
	"factorml/internal/storage"
)

const (
	benchNR  = 100 // dimension cardinality (paper: 1000)
	benchDS  = 5
	benchK   = 5
	benchNH  = 50
	benchIt  = 2 // EM iterations per train
	benchEp  = 2 // NN epochs per train
	benchNR2 = 40
	benchDR2 = 4
)

func benchDB(b *testing.B) *storage.Database {
	b.Helper()
	db, err := storage.Open(b.TempDir(), storage.Options{PoolPages: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func benchSpec(b *testing.B, db *storage.Database, name string, nS int, nR, dR []int, target bool) *join.Spec {
	b.Helper()
	spec, err := data.Generate(db, name, data.SynthConfig{
		NS: nS, NR: nR, DS: benchDS, DR: dR, Seed: 3, WithTarget: target,
	})
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

func gmmTrainers() map[string]func(*storage.Database, *join.Spec, gmm.Config) (*gmm.Result, error) {
	return map[string]func(*storage.Database, *join.Spec, gmm.Config) (*gmm.Result, error){
		"M-GMM": gmm.TrainM, "S-GMM": gmm.TrainS, "F-GMM": gmm.TrainF,
	}
}

func nnTrainers() map[string]func(*storage.Database, *join.Spec, nn.Config) (*nn.Result, error) {
	return map[string]func(*storage.Database, *join.Spec, nn.Config) (*nn.Result, error){
		"M-NN": nn.TrainM, "S-NN": nn.TrainS, "F-NN": nn.TrainF,
	}
}

var gmmAlgoOrder = []string{"M-GMM", "S-GMM", "F-GMM"}
var nnAlgoOrder = []string{"M-NN", "S-NN", "F-NN"}

func benchGMMPoint(b *testing.B, label string, nS int, nR, dR []int, k int) {
	b.Helper()
	db := benchDB(b)
	spec := benchSpec(b, db, "w", nS, nR, dR, false)
	cfg := gmm.Config{K: k, MaxIter: benchIt, Tol: 1e-300}
	trainers := gmmTrainers()
	for _, algo := range gmmAlgoOrder {
		train := trainers[algo]
		b.Run(fmt.Sprintf("%s/%s", label, algo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := train(db, spec, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchNNPoint(b *testing.B, label string, nS int, nR, dR []int, nh int) {
	b.Helper()
	db := benchDB(b)
	spec := benchSpec(b, db, "w", nS, nR, dR, true)
	cfg := nn.Config{Hidden: []int{nh}, Epochs: benchEp}
	trainers := nnTrainers()
	for _, algo := range nnAlgoOrder {
		train := trainers[algo]
		b.Run(fmt.Sprintf("%s/%s", label, algo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := train(db, spec, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 3: GMM, binary join -----------------------------------------

func BenchmarkFig3a_GMMVaryRR(b *testing.B) {
	for _, rr := range []int{50, 200} {
		benchGMMPoint(b, fmt.Sprintf("rr=%d", rr), rr*benchNR, []int{benchNR}, []int{15}, benchK)
	}
}

func BenchmarkFig3b_GMMVaryDR(b *testing.B) {
	for _, dR := range []int{5, 15} {
		benchGMMPoint(b, fmt.Sprintf("dR=%d", dR), 100*benchNR, []int{benchNR}, []int{dR}, benchK)
	}
}

func BenchmarkFig3c_GMMVaryK(b *testing.B) {
	for _, k := range []int{2, 5} {
		benchGMMPoint(b, fmt.Sprintf("K=%d", k), 100*benchNR, []int{benchNR}, []int{15}, k)
	}
}

// --- Figure 4: GMM, multi-way join ---------------------------------------

func BenchmarkFig4a_GMMMultiVaryRR(b *testing.B) {
	for _, rr := range []int{50, 200} {
		benchGMMPoint(b, fmt.Sprintf("rr=%d", rr), rr*benchNR,
			[]int{benchNR, benchNR2}, []int{15, benchDR2}, benchK)
	}
}

func BenchmarkFig4b_GMMMultiVaryDR1(b *testing.B) {
	for _, dR1 := range []int{5, 15} {
		benchGMMPoint(b, fmt.Sprintf("dR1=%d", dR1), 100*benchNR,
			[]int{benchNR, benchNR2}, []int{dR1, benchDR2}, benchK)
	}
}

func BenchmarkFig4c_GMMMultiVaryK(b *testing.B) {
	for _, k := range []int{2, 5} {
		benchGMMPoint(b, fmt.Sprintf("K=%d", k), 100*benchNR,
			[]int{benchNR, benchNR2}, []int{15, benchDR2}, k)
	}
}

// --- Figure 5: NN, binary join --------------------------------------------

func BenchmarkFig5a_NNVaryRR(b *testing.B) {
	for _, rr := range []int{50, 200} {
		benchNNPoint(b, fmt.Sprintf("rr=%d", rr), rr*benchNR, []int{benchNR}, []int{15}, benchNH)
	}
}

func BenchmarkFig5b_NNVaryDR(b *testing.B) {
	for _, dR := range []int{5, 15} {
		benchNNPoint(b, fmt.Sprintf("dR=%d", dR), 100*benchNR, []int{benchNR}, []int{dR}, benchNH)
	}
}

func BenchmarkFig5c_NNVaryNH(b *testing.B) {
	for _, nh := range []int{25, 50} {
		benchNNPoint(b, fmt.Sprintf("nh=%d", nh), 100*benchNR, []int{benchNR}, []int{15}, nh)
	}
}

// --- Figure 6: NN, multi-way join -----------------------------------------

func BenchmarkFig6a_NNMultiVaryRR(b *testing.B) {
	for _, rr := range []int{50, 200} {
		benchNNPoint(b, fmt.Sprintf("rr=%d", rr), rr*benchNR,
			[]int{benchNR, benchNR2}, []int{15, benchDR2}, benchNH)
	}
}

func BenchmarkFig6b_NNMultiVaryDR1(b *testing.B) {
	for _, dR1 := range []int{5, 15} {
		benchNNPoint(b, fmt.Sprintf("dR1=%d", dR1), 100*benchNR,
			[]int{benchNR, benchNR2}, []int{dR1, benchDR2}, benchNH)
	}
}

func BenchmarkFig6c_NNMultiVaryNH(b *testing.B) {
	for _, nh := range []int{25, 50} {
		benchNNPoint(b, fmt.Sprintf("nh=%d", nh), 100*benchNR,
			[]int{benchNR, benchNR2}, []int{15, benchDR2}, nh)
	}
}

// --- Table VI: GMM on (simulated) real datasets ---------------------------

func BenchmarkTable6_GMMRealDatasets(b *testing.B) {
	const scale = 0.002
	for _, name := range []string{"Expedia1", "Expedia2", "Walmart", "Movies",
		"Expedia3", "Expedia4", "Expedia5", "Movies3way"} {
		shape, err := data.ShapeByName(name)
		if err != nil {
			b.Fatal(err)
		}
		db := benchDB(b)
		spec, err := data.GenerateShape(db, shape, scale, 7)
		if err != nil {
			b.Fatal(err)
		}
		cfg := gmm.Config{K: benchK, MaxIter: benchIt, Tol: 1e-300}
		trainers := gmmTrainers()
		for _, algo := range gmmAlgoOrder {
			train := trainers[algo]
			b.Run(fmt.Sprintf("%s/%s", name, algo), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := train(db, spec, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Table VII: NN on (simulated) sparse real datasets ---------------------

func BenchmarkTable7_NNRealDatasets(b *testing.B) {
	const scale = 0.002
	for _, name := range []string{"WalmartSparse", "MoviesSparse", "Movies3waySparse"} {
		shape, err := data.ShapeByName(name)
		if err != nil {
			b.Fatal(err)
		}
		db := benchDB(b)
		spec, err := data.GenerateShape(db, shape, scale, 7)
		if err != nil {
			b.Fatal(err)
		}
		cfg := nn.Config{Hidden: []int{benchNH}, Epochs: benchEp}
		trainers := nnTrainers()
		for _, algo := range nnAlgoOrder {
			train := trainers[algo]
			b.Run(fmt.Sprintf("%s/%s", name, algo), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := train(db, spec, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Ablations (paper §VI-A2 and the GroupedGradient extension) -----------

// The paper's §VI-A2 claim: sharing computation at the second layer costs
// more than it saves, even when the activation is additive.
func BenchmarkAblationLayer2Sharing(b *testing.B) {
	db := benchDB(b)
	spec := benchSpec(b, db, "w", 100*benchNR, []int{benchNR}, []int{15}, true)
	for _, mode := range []struct {
		name  string
		share bool
	}{{"layer1-only", false}, {"share-layer2", true}} {
		cfg := nn.Config{Hidden: []int{benchNH, benchNH}, Act: nn.Identity,
			Epochs: benchEp, ShareLayer2: mode.share}
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := nn.TrainF(db, spec, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Grouped-gradient extension: accumulating the layer-1 dimension gradient
// per group (beyond the paper's Eq. 29 analysis).
func BenchmarkAblationGroupedGradient(b *testing.B) {
	db := benchDB(b)
	spec := benchSpec(b, db, "w", 100*benchNR, []int{benchNR}, []int{15}, true)
	for _, mode := range []struct {
		name    string
		grouped bool
	}{{"per-tuple", false}, {"grouped", true}} {
		cfg := nn.Config{Hidden: []int{benchNH}, Epochs: benchEp, GroupedGradient: mode.grouped}
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := nn.TrainF(db, spec, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// §V-A block-size sensitivity: one streaming pass over the join as the BNL
// block shrinks (S is rescanned once per block). pages/pass is the measured
// logical page reads of one pass (the planner prices the same quantity;
// TestPlannerPicksMeasuredCheapest pins estimate = measured).
func BenchmarkAblationBlockPages(b *testing.B) {
	db := benchDB(b)
	spec := benchSpec(b, db, "w", 5000, []int{3000}, []int{4}, false)
	for _, bp := range []int{1, 4, 64} {
		sp := *spec
		sp.BlockPages = bp
		b.Run(fmt.Sprintf("blockPages=%d", bp), func(b *testing.B) {
			runner, err := join.NewRunner(&sp)
			if err != nil {
				b.Fatal(err)
			}
			io0 := db.Pool().Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := join.StreamWith(runner, func(int64, []float64, float64) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reads := db.Pool().Stats().Sub(io0).LogicalReads
			b.ReportMetric(float64(reads)/float64(b.N), "pages/pass")
		})
	}
}

// Raw join throughput: factorized iteration vs concatenating stream vs
// index probe.
func BenchmarkJoinAccessPaths(b *testing.B) {
	db := benchDB(b)
	spec := benchSpec(b, db, "w", 20000, []int{200}, []int{15}, false)
	b.Run("stream-concat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := join.Stream(spec, func(int64, []float64, float64) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("factorized-callbacks", func(b *testing.B) {
		runner, err := join.NewRunner(spec)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			err := runner.Run(join.Callbacks{
				OnMatch: func(*storage.Tuple, int, []int) error { return nil },
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
