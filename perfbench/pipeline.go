package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"factorml"
)

// results accumulates one pipeline's raw measurements.
type results struct {
	setup             []time.Duration
	gmmTrain, nnTrain []time.Duration
	predictTimed      []timed
	predictSpan       time.Duration
	ingestLat         []time.Duration
	refreshLat        []time.Duration
	ingestRates       []float64 // facts/s, one per ingest pass
	peakRSSMB         float64   // VmHWM when the pipeline finished
	attempted, failed int
	problems          []string // failed output checks
}

func (r *results) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// trainRef is the first training call's outcome; every later call on the
// same data must reproduce it bit for bit.
type trainRef struct {
	final    uint64 // math.Float64bits of the final log-likelihood / loss
	mul, add int64
}

// bench is one pipeline over one workload.
type bench struct {
	w       workload
	seed    int64
	seconds float64
	work    string // scratch directory for databases
	nproc   int
	res     results
	refGMM  *trainRef
	refNN   *trainRef
	spans   *spanLog    // nil when untraced
	probe   *layerProbe // nil when untraced
	settled time.Duration
}

// settle runs before every timed phase. It collects the garbage earlier
// phases left (the predict traffic, the previous phase's buffers) so the
// phase does not pay their GC cycle. It also writes back the dirty pages
// they left (datagen, materialized joins, checkpoints), so the phase's
// fsyncs and page writes do not wait on them. Set-up excludes the time
// it takes.
func (b *bench) settle() {
	t0 := time.Now()
	runtime.GC()
	syscall.Sync()
	b.settled += time.Since(t0)
}

// env is one set-up database, and once booted, its server.
type env struct {
	dir  string
	db   *factorml.DB
	ds   *factorml.Dataset
	fact string
	dims []string
	srv  *factorml.Server
	hs   *http.Server
	done chan error
	base string // http://host:port
}

// setup builds set-up number i: datagen, and for serving workloads the
// trained, lineage-stamped, saved models and a booted server.
func (b *bench) setup(i int) (*env, error) {
	sp := b.spans.begin(0, "setup")
	defer b.spans.end(sp)
	t0, settled := time.Now(), b.settled
	e := &env{dir: filepath.Join(b.work, fmt.Sprintf("db%d", i)), fact: "synth_S"}
	for j := range b.w.NR {
		e.dims = append(e.dims, fmt.Sprintf("synth_R%d", j+1))
	}
	db, err := factorml.Open(e.dir, factorml.Options{NumWorkers: b.nproc},
		factorml.WithDurability(factorml.DurabilityConfig{SnapshotEvery: walSnapEvery}))
	if err != nil {
		return nil, err
	}
	e.db = db
	gsp := b.spans.begin(sp, "setup.datagen")
	e.ds, err = factorml.GenerateSynthetic(db, "synth", factorml.SyntheticConfig{
		NS: b.w.NS, NR: b.w.NR, DS: b.w.DS, DR: b.w.DR, Seed: b.seed, WithTarget: true,
	})
	b.spans.end(gsp)
	if err != nil {
		e.close()
		return nil, err
	}
	if b.w.Serving {
		if err := b.trainAndSave(e, sp); err != nil {
			e.close()
			return nil, err
		}
		if err := b.boot(e, sp); err != nil {
			e.close()
			return nil, err
		}
	}
	b.res.setup = append(b.res.setup, time.Since(t0)-(b.settled-settled))
	return e, nil
}

// trainAndSave trains both models on a serving set-up, captures their
// lineage and saves them, as cmd/train -save does.
func (b *bench) trainAndSave(e *env, parent int) error {
	g, err := b.trainGMM(e, parent)
	if err != nil {
		return err
	}
	n, err := b.trainNN(e, parent)
	if err != nil {
		return err
	}
	sp := b.spans.begin(parent, "setup.gmm_lineage")
	t0 := time.Now()
	lin, err := factorml.GMMLineage(e.ds, g.Model, chosen(g.Stats.Plan))
	b.probe.add("monitor.gmm_baseline_s", time.Since(t0).Seconds())
	b.spans.end(sp)
	if err != nil {
		return err
	}
	if err := e.db.SaveGMMLineage("gmm", g.Model, lin); err != nil {
		return err
	}
	sp = b.spans.begin(parent, "setup.nn_lineage")
	t0 = time.Now()
	nlin, err := factorml.NNLineage(e.ds, n.Net, chosen(n.Stats.Plan))
	b.probe.add("monitor.nn_baseline_s", time.Since(t0).Seconds())
	b.spans.end(sp)
	if err != nil {
		return err
	}
	return e.db.SaveNNLineage("nn", n.Net, nlin)
}

// saveUnstamped saves the last trained models of a training workload
// without lineage, so its server can boot.
func (b *bench) saveUnstamped(e *env, g *factorml.GMMResult, n *factorml.NNResult) error {
	if err := e.db.SaveGMM("gmm", g.Model); err != nil {
		return err
	}
	return e.db.SaveNN("nn", n.Net)
}

func chosen(p *factorml.StrategyPlan) string {
	if p == nil {
		return "none"
	}
	return factorml.Algorithm(p.Chosen).String()
}

// checkTrain applies the training output checks: the planner's pick, the
// planner's estimate equal to the measured ops, and bit-identical results
// across repetitions.
func (b *bench) checkTrain(model string, p *factorml.StrategyPlan, final float64, mul, add int64, want string, priced bool, ref **trainRef) {
	r := &b.res
	if p == nil {
		r.problem("%s: Auto training recorded no plan", model)
		return
	}
	if want != "" && chosen(p) != want {
		r.problem("%s: planner chose %s, want %s", model, chosen(p), want)
	}
	var est *factorml.StrategyEstimate
	for i := range p.Estimates {
		if p.Estimates[i].Strategy == p.Chosen {
			est = &p.Estimates[i]
		}
	}
	if priced {
		if est == nil || est.Ops.Total() != mul+add {
			r.problem("%s: planner estimate does not equal the measured ops (%d)", model, mul+add)
		}
		b.probe.opsRatio(est, mul+add)
	}
	if math.IsNaN(final) || math.IsInf(final, 0) {
		r.problem("%s: non-finite final objective %v", model, final)
	}
	got := trainRef{final: math.Float64bits(final), mul: mul, add: add}
	if *ref == nil {
		*ref = &got
		return
	}
	if got != **ref {
		r.problem("%s: repetition differs from the first (final %x vs %x, mul %d vs %d)",
			model, got.final, (*ref).final, got.mul, (*ref).mul)
	}
}

func (b *bench) trainGMM(e *env, parent int) (*factorml.GMMResult, error) {
	b.settle()
	sp := b.spans.begin(parent, "train.gmm")
	b.probe.beginTrain()
	t0 := time.Now()
	res, err := factorml.TrainGMM(e.ds, factorml.Auto, b.w.GMM)
	d := time.Since(t0)
	b.probe.endTrain(b.spans, sp)
	b.spans.end(sp)
	b.res.attempted++
	if err != nil {
		b.res.failed++
		return nil, fmt.Errorf("TrainGMM: %w", err)
	}
	b.res.gmmTrain = append(b.res.gmmTrain, d)
	// The planner prices MaxIter iterations, so its estimate can equal the
	// measured ops only when EM runs them all. A tiny Tol stops EM only at
	// an exact fixed point, which the serving data reaches for some seeds;
	// the training workloads' iteration counts are part of their spec.
	full := res.Stats.Iters == b.w.GMM.MaxIter
	if !b.w.Serving && !full {
		b.res.problem("gmm: ran %d EM iterations, want exactly %d", res.Stats.Iters, b.w.GMM.MaxIter)
	}
	b.checkTrain("gmm", res.Stats.Plan, res.Stats.FinalLL(), res.Stats.Ops.Mul, res.Stats.Ops.Adds, b.w.WantGMM, full, &b.refGMM)
	b.probe.trained("gmm", res.Stats.Ops.Mul, res.Stats.IO)
	return res, nil
}

func (b *bench) trainNN(e *env, parent int) (*factorml.NNResult, error) {
	b.settle()
	sp := b.spans.begin(parent, "train.nn")
	b.probe.beginTrain()
	t0 := time.Now()
	res, err := factorml.TrainNN(e.ds, factorml.Auto, b.w.NN)
	d := time.Since(t0)
	b.probe.endTrain(b.spans, sp)
	b.spans.end(sp)
	b.res.attempted++
	if err != nil {
		b.res.failed++
		return nil, fmt.Errorf("TrainNN: %w", err)
	}
	b.res.nnTrain = append(b.res.nnTrain, d)
	b.checkTrain("nn", res.Stats.Plan, res.Stats.FinalLoss(), res.Stats.Ops.Mul, res.Stats.Ops.Adds, b.w.WantNN, true, &b.refNN)
	b.probe.trained("nn", res.Stats.Ops.Mul, res.Stats.IO)
	return res, nil
}

// trainLoop alternates TrainGMM and TrainNN until budget has passed and
// at least TrainReps of each ran, then with save set saves the last
// models.
func (b *bench) trainLoop(e *env, budget time.Duration, save bool) error {
	sp := b.spans.begin(0, "train")
	defer b.spans.end(sp)
	start := time.Now()
	var g *factorml.GMMResult
	var n *factorml.NNResult
	for rep := 0; rep < b.w.TrainReps || time.Since(start) < budget; rep++ {
		var err error
		if g, err = b.trainGMM(e, sp); err != nil {
			return err
		}
		if n, err = b.trainNN(e, sp); err != nil {
			return err
		}
	}
	if !save {
		return nil
	}
	return b.saveUnstamped(e, g, n)
}

// boot builds the server as cmd/serve builds it by default — metrics,
// tracing at sample 1.0, health monitoring — with streaming ingest over
// the fact table and the WAL on, and serves it on a loopback port.
func (b *bench) boot(e *env, parent int) error {
	sp := b.spans.begin(parent, "boot")
	defer b.spans.end(sp)
	srv, err := factorml.NewServer(e.db, e.dims,
		factorml.WithEngineConfig(factorml.ServeConfig{}),
		factorml.WithLimits(factorml.Limits{}),
		factorml.WithMetrics(),
		factorml.WithTracing(factorml.TraceConfig{SampleFraction: 1.0}),
		factorml.WithMonitoring(factorml.MonitorConfig{DriftWarnPSI: 0.1, DriftPSI: 0.25, SampleFraction: 1.0}),
		factorml.WithStream(e.fact, factorml.StreamPolicy{
			RefreshRows: b.w.RefreshRows, NNEpochs: 1, NNLearningRate: 0.05,
		}),
	)
	if err != nil {
		return fmt.Errorf("NewServer: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = srv
	e.hs = &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	e.done = make(chan error, 1)
	e.base = "http://" + ln.Addr().String()
	go func() { e.done <- e.hs.Serve(ln) }()
	return nil
}

// shutdown stops the HTTP server and waits for its serve loop to return.
func (e *env) shutdown() error {
	if e.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.hs = nil
	return err
}

// close stops the server, closes the database and deletes its directory.
func (e *env) close() error {
	err := e.shutdown()
	if e.db != nil {
		if cerr := e.db.Close(); cerr != nil && err == nil {
			err = cerr
		}
		e.db = nil
	}
	if rerr := os.RemoveAll(e.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// run executes the workload's pipeline. Serving workloads measure on
// every set-up; training workloads only on the last, where training is
// the measured phase. The last set-up stays open and is returned for the
// traced run's replays when keep is set.
func (b *bench) run(keep bool) (*env, error) {
	defer b.recordPeakRSS()
	w := b.w
	budget := time.Duration(b.seconds * float64(time.Second))
	var last *env
	for i := 0; i < w.Setups; i++ {
		e, err := b.setup(i)
		if err != nil {
			return nil, err
		}
		if !w.Serving && i < w.Setups-1 {
			if err := e.close(); err != nil {
				return nil, err
			}
			continue
		}
		if err := b.measure(e, i, budget); err != nil {
			e.close()
			return nil, err
		}
		if i < w.Setups-1 || !keep {
			if err := e.close(); err != nil {
				return nil, err
			}
			continue
		}
		last = e
	}
	return last, nil
}

// measure runs the measured phases on set-up i. Training workloads train
// for half the budget, boot, and give the predict phase 40% of it;
// serving workloads split the predict budget over their set-ups and time
// extra training calls on the first (three set-up trainings alone are
// too few for a steady median).
func (b *bench) measure(e *env, i int, budget time.Duration) error {
	predict := budget / time.Duration(b.w.Setups)
	if !b.w.Serving {
		if err := b.trainLoop(e, budget/2, true); err != nil {
			return err
		}
		if err := b.boot(e, 0); err != nil {
			return err
		}
		predict = budget * 4 / 10
	} else if i == 0 {
		if err := b.trainLoop(e, 0, false); err != nil {
			return err
		}
	}
	// The traffic is generated here, after training, and dropped after
	// the predict phase, so its memory adds neither to training's nor to
	// refresh's peak RSS.
	load, err := newPredictLoad(b.w, b.seed)
	if err != nil {
		return err
	}
	return b.measureServing(e, predict, load)
}

// measureServing runs the serving phases on a booted set-up: a read-only
// closed-loop predict phase of the given length (checked against the
// in-process engine) and then IngestPasses ingest passes, or for
// FreshIngest one ingest pass with one predict client beside it.
func (b *bench) measureServing(e *env, budget time.Duration, load *predictLoad) error {
	n := b.w.IngestBatches
	if b.w.FreshIngest {
		batches := genBatches(b.w, b.seed, 0, n)
		if err := b.probe.afterPredict(b, e, load); err != nil {
			return err
		}
		var before statsz
		if b.probe != nil {
			var err error
			if before, err = engineStats(e.base); err != nil {
				return err
			}
		}
		b.settle()
		stop := make(chan struct{})
		done := make(chan *predictRun, 1)
		go func() { done <- load.closedLoop(e.base, 1, warmup, 0, stop, b.spans) }()
		time.Sleep(warmup)
		err := b.ingestPass(e, batches)
		close(stop)
		pr := <-done
		b.absorbPredict(pr)
		if err != nil {
			return err
		}
		if b.probe != nil {
			after, err := engineStats(e.base)
			if err != nil {
				return err
			}
			b.probe.cacheWindow(before, after)
		}
		return b.probe.afterIngest(b, e, n)
	}
	before, err := engineStats(e.base)
	if err != nil {
		return err
	}
	b.settle()
	pr := load.closedLoop(e.base, b.nproc, warmup, budget, nil, b.spans)
	b.absorbPredict(pr)
	after, err := engineStats(e.base)
	if err != nil {
		return err
	}
	b.probe.cacheWindow(before, after)
	if err := checkAgainstEngine(e, load, pr.samples, &b.res); err != nil {
		return err
	}
	if err := b.probe.afterPredict(b, e, load); err != nil {
		return err
	}
	// Each pass continues the batch sequence where the last one ended.
	for p := 0; p < b.w.IngestPasses; p++ {
		b.settle()
		if err := b.ingestPass(e, genBatches(b.w, b.seed, p*n, n)); err != nil {
			return err
		}
	}
	return b.probe.afterIngest(b, e, b.w.IngestPasses*n)
}

// recordPeakRSS reads the process's peak resident memory as the
// pipeline ends. VmHWM never goes down, so it is the pipeline's own peak
// only for the first pipeline of a process.
func (b *bench) recordPeakRSS() {
	rss, err := peakRSSMB()
	if err != nil {
		b.res.problem("reading peak RSS: %v", err)
	}
	b.res.peakRSSMB = rss
}

func (b *bench) absorbPredict(pr *predictRun) {
	r := &b.res
	r.predictTimed = append(r.predictTimed, pr.timed...)
	r.predictSpan += pr.span
	r.attempted += pr.attempted
	r.failed += pr.failed
	for _, p := range pr.problems {
		r.problem("%s", p)
	}
	b.probe.rejected(pr.failed)
}
