package main

import (
	"sort"

	"factorml"
)

// workload is one set of inputs the benchmark runs. Every workload runs
// the same model life cycle on its own data — set-up, training, closed-loop
// serving and streaming ingest — so every end-to-end metric is measured on
// every workload. The data shape and the share of the run each phase gets
// decide which layers do the work.
type workload struct {
	Name string
	Why  string

	// Data shape, generated from the run's seed.
	NS int
	NR []int
	DR []int
	DS int

	GMM factorml.GMMConfig
	NN  factorml.NNConfig

	// Serving workloads train, capture lineage, save (what cmd/train -save
	// does) and boot the server inside set-up, and measure serving. The
	// others set up with datagen only and measure training; their models
	// are saved without lineage (a lineage pass over 200k joined rows
	// would dominate the run), so monitoring holds no baseline for them.
	Serving bool
	// FreshIngest gives every set-up its own ingest pass with one
	// closed-loop predict client beside it; refresh cost grows with the
	// base table, so a pass is only repeatable on fresh state.
	FreshIngest bool
	// WantGMM/WantNN, when set, are the strategies the planner must pick.
	WantGMM, WantNN string

	Setups    int // set-ups per run; setup_s is their median
	TrainReps int // least TrainGMM+TrainNN pairs the training loop times

	// Ingest: a fixed sequence of batches of BatchFacts facts; every
	// UpdateEvery-th batch also updates UpdatesPerBatch distinct R1 rows.
	// A pass sends IngestBatches of them. Without FreshIngest, each
	// measured set-up runs IngestPasses passes, one after another, the
	// sequence continuing from pass to pass.
	IngestPasses    int
	IngestBatches   int
	BatchFacts      int
	UpdateEvery     int
	UpdatesPerBatch int
	RefreshRows     int

	// Predict requests: RowsPerRequest rows each, drawn into Rowsets
	// distinct pre-generated bodies (odd, so the request index walks every
	// (rowset, model, wire) combination; large enough that the Zipf draw,
	// not body reuse, sets foreign-key reuse).
	RowsPerRequest int
	Rowsets        int
}

const (
	zipfS        = 1.1   // foreign-key skew of predict rows and ingested facts
	walSnapEvery = 10000 // cmd/serve -snapshot-every default
)

func defaults(w workload) workload {
	if w.IngestPasses == 0 {
		w.IngestPasses = 1
	}
	w.IngestBatches, w.BatchFacts, w.UpdateEvery, w.UpdatesPerBatch = 400, 64, 8, 4
	w.RefreshRows = 5000
	w.RowsPerRequest, w.Rowsets = 32, 4095
	return w
}

var workloads = map[string]workload{
	"train-star": defaults(workload{
		Name: "train-star",
		Why:  "the paper's headline multi-way star, where the planner picks factorized GMM and NN training and factorized passes do almost all the work",
		NS:   200000, NR: []int{1000, 100}, DR: []int{15, 4}, DS: 5,
		GMM:     factorml.GMMConfig{K: 5, MaxIter: 3, Tol: 1e-300},
		NN:      factorml.NNConfig{Hidden: []int{50}, Epochs: 2},
		WantGMM: "factorized", WantNN: "factorized",
		Setups: 9, TrainReps: 5, IngestPasses: 2,
	}),
	"train-narrow": defaults(workload{
		Name: "train-narrow",
		Why:  "a binary star with a large one-feature dimension, where the planner materializes the join, so storage writes, block-nested-loop re-reads and dense row passes do the work",
		NS:   200000, NR: []int{100000}, DR: []int{1}, DS: 2,
		GMM:     factorml.GMMConfig{K: 3, MaxIter: 6, Tol: 1e-300},
		NN:      factorml.NNConfig{Hidden: []int{50}, Epochs: 4},
		WantGMM: "materialized", WantNN: "materialized",
		Setups: 9, TrainReps: 5, IngestPasses: 2,
	}),
	"serve-predict": defaults(workload{
		Name: "serve-predict",
		Why:  "read-only closed-loop serving over loopback with a dimension five times the per-model cache, so every predict-path layer works and training layers do not",
		NS:   5000, NR: []int{20000}, DR: []int{15}, DS: 5,
		GMM:     factorml.GMMConfig{K: 8, MaxIter: 10, Tol: 1e-300},
		NN:      factorml.NNConfig{Hidden: []int{50}},
		Serving: true,
		Setups:  3, TrainReps: 6,
	}),
	"stream-ingest": defaults(workload{
		Name: "stream-ingest",
		Why:  "a fixed ingest sequence with WAL fsync, refreshes and dimension updates beside closed-loop reads, each pass on a freshly set-up database",
		NS:   5000, NR: []int{20000}, DR: []int{15}, DS: 5,
		GMM:         factorml.GMMConfig{K: 8, MaxIter: 10, Tol: 1e-300},
		NN:          factorml.NNConfig{Hidden: []int{50}},
		Serving:     true,
		FreshIngest: true,
		Setups:      3, TrainReps: 6,
	}),
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
