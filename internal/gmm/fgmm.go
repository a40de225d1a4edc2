package gmm

import (
	"math"
	"sync"
	"time"

	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/linalg"
	"factorml/internal/parallel"
	"factorml/internal/storage"
)

// TrainF is the paper's F-GMM: EM where every pass streams the join and the
// per-tuple math is factorized across the relation partition. Quantities
// that depend only on a dimension tuple (PD_R, the LR quadratic term, the
// I_SR·PD_R cross vector, the per-group responsibility sums) are computed
// once per distinct dimension tuple per pass and reused for all matching
// fact tuples. The decomposition is exact (Eq. 7-24), so the result matches
// TrainM and TrainS.
func TrainF(db *storage.Database, spec *join.Spec, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	io0 := db.Pool().Stats()

	ps, err := factor.NewPartScan(spec, cfg.BlockPages)
	if err != nil {
		return nil, err
	}

	// Initialization streams concatenated vectors in the same order as the
	// other algorithms, so all trainers start from the identical model.
	ps.Pass = "fgmm.init"
	pass := func(fn func(x []float64) error) error {
		return ps.Scan(func(x []float64, _ float64) error { return fn(x) })
	}
	model, n, err := initModel(pass, ps.P.D, cfg)
	if err != nil {
		return nil, err
	}

	res := &Result{Model: model}
	em := emFactorized
	if cfg.Diagonal {
		em = emFactorizedDiag
	}
	if err := em(ps, n, cfg, model, &res.Stats); err != nil {
		return nil, err
	}
	res.Stats.IO = db.Pool().Stats().Sub(io0)
	res.Stats.TrainTime = time.Since(start)
	return res, nil
}

// emFactorized runs the factorized EM loop. Parts: 0 = S, 1 = the blocked
// dimension relation R1, 2+j = resident dimension relation Rs[1+j].
//
// Each iteration makes two passes over the join. The E-step — the
// dimension-cache fills and the per-match responsibility computation —
// runs on the chunked worker pool (cfg.NumWorkers): caches fill over
// disjoint index grains, matches stream through RunParallel with per-chunk
// log-likelihood/γ buffers merged in chunk order, and the merge also folds
// the means and weights (factMeans). The model is therefore bit-identical
// for every worker count. The covariance pass stays sequential:
// factorization already collapses its per-match work to the upper
// triangle of the fact block plus one group-sum axpy per dimension pair,
// with everything else flushed once per dimension tuple.
func emFactorized(ps *factor.PartScan, n int, cfg Config, model *Model, stats *Stats) error {
	p := ps.P
	nw := parallel.Workers(cfg.NumWorkers)
	k := cfg.K
	q := p.Parts() - 1 // number of dimension relations
	dS := p.Dims[0]

	gamma := make([]float64, n*k)
	pds := make([]float64, dS)
	gp := make([]float64, dS)     // γ·PD_S of the current match and component
	pdBuf := make([][]float64, q) // per-part PD pointers for cross terms
	hBuf := make([][]float64, q)  // per-part cross group sums of the match
	// tail[a] is the width of the dimension parts after part 1+a: the
	// length of the cross group sums a tuple of part 1+a carries.
	tail := make([]int, q)
	for a := q - 2; a >= 0; a-- {
		tail[a] = tail[a+1] + p.Dims[2+a]
	}

	// feAcc is the per-chunk E-step accumulator: responsibilities for the
	// chunk's matches plus the partial log-likelihood. caches[j] is the
	// K-component cache run of the match's tuple in dimension part j+1 —
	// a subslice of the flat per-block/per-resident cache arrays.
	type feAcc struct {
		ll     float64
		ops    core.Ops
		ng     int
		gamma  []float64
		logp   []float64
		pds    []float64
		caches [][]core.QuadCache
		rows   meanRows
	}
	fePool := sync.Pool{New: func() any {
		return &feAcc{
			logp:   make([]float64, k),
			pds:    make([]float64, dS),
			caches: make([][]core.QuadCache, q),
		}
	}}

	// Reusable per-block buffers (sized on first block).
	var blkCache []core.QuadCache // E-step: len(block)*k
	var pdBlk [][]float64         // M: PD per (block tuple, component)
	var wBlk []float64            // M: group responsibility sums
	var gvecBlk [][]float64       // M: Σ γ·PD_S per group
	var hBlk [][]float64          // M: Σ γ·PD_Rb per group, resident parts b
	var curBlock []*storage.Tuple // current R1 block, shared across callbacks

	// Per-iteration accumulators hoisted out of the EM loop (the resident
	// dimension tables are loaded by the init scan and their sizes are
	// fixed, so every buffer below is allocated once and recycled —
	// FillQuadCache and VecSub overwrite, the rest are zeroed in place).
	means := newFactMeans(ps, k)
	resCache := make([][]core.QuadCache, q-1) // E-step resident caches
	pdRes := make([][][]float64, q-1)         // M resident PDs
	gvecRes := make([][][]float64, q-1)       // M Σ γ·PD_S per resident group
	hRes := make([][][]float64, q-1)          // M Σ γ·PD_Rb per resident group, later parts b
	for j := 0; j < q-1; j++ {
		nt := len(ps.Resident(j))
		resCache[j] = make([]core.QuadCache, nt*k)
		pdRes[j] = make([][]float64, nt*k)
		gvecRes[j] = make([][]float64, nt*k)
		hRes[j] = make([][]float64, nt*k)
		dRj := p.Dims[2+j]
		for i := range pdRes[j] {
			pdRes[j][i] = make([]float64, dRj)
			gvecRes[j][i] = make([]float64, dS)
			hRes[j][i] = make([]float64, tail[1+j])
		}
	}
	acc := make([]*core.BlockedSym, k) // M covariance accumulators
	sumCov := make([]*linalg.Dense, k) // assembled Σ-update destinations
	for c := 0; c < k; c++ {
		acc[c] = core.NewBlockedZero(p)
		sumCov[c] = linalg.NewDense(p.D, p.D)
	}

	// flushCross adds a tuple of part 1+a's cross blocks,
	// B[1+a][1+b] += PD_Ra ⊗ h_b for every later part b, where h holds
	// the group sums h_b back to back.
	flushCross := func(bs *core.BlockedSym, a int, pd, h []float64) {
		for b := a + 1; b < q; b++ {
			d := p.Dims[1+b]
			linalg.OuterAccum(bs.B[1+a][1+b], 1, pd, h[:d])
			stats.Ops.AddOuter(p.Dims[1+a], d)
			h = h[d:]
		}
	}

	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		states, err := model.precompute(p, true)
		if err != nil {
			return err
		}
		hot := buildHot(model, p, states)

		// ------------------------------------------------------------------
		// E-step: factorized responsibilities (Eq. 7-12 / 19-21), folding
		// the means and weights (Eq. 13 / 22) as the chunks merge.
		// ------------------------------------------------------------------
		// Resident caches are filled once per iteration (parallel fill,
		// disjoint (tuple, component) slots).
		ps.Pass = "fgmm.estep"
		for j := 0; j < q-1; j++ {
			rj := resCache[j]
			part := 2 + j
			err = ps.FillCaches(nw, ps.Resident(j), &stats.Ops, func(t int, tp *storage.Tuple, ops *core.Ops) error {
				for c := 0; c < k; c++ {
					core.FillQuadCache(&rj[t*k+c], states[c].blocked, part, tp.Features, model.Means[c], ops)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}

		ll := 0.0
		idx := 0
		means.reset()
		err = ps.RunChunks(nw, join.ParallelCallbacks{
			OnBlockStart: func(block []*storage.Tuple) error {
				need := len(block) * k
				if cap(blkCache) < need {
					blkCache = make([]core.QuadCache, need)
				}
				blkCache = blkCache[:need]
				means.startBlock(block)
				return ps.FillCaches(nw, block, &stats.Ops, func(i int, tp *storage.Tuple, ops *core.Ops) error {
					for c := 0; c < k; c++ {
						core.FillQuadCache(&blkCache[i*k+c], states[c].blocked, 1, tp.Features, model.Means[c], ops)
					}
					return nil
				})
			},
			NewState: func() any {
				a := fePool.Get().(*feAcc)
				a.ll, a.ops, a.ng = 0, core.Ops{}, 0
				a.gamma = a.gamma[:0]
				a.rows.reset()
				return a
			},
			OnMatchChunk: func(state any, matches []join.Match) error {
				a := state.(*feAcc)
				for _, m := range matches {
					a.rows.add(m)
					a.caches[0] = blkCache[m.R1*k : (m.R1+1)*k]
					for j, ri := range m.Res {
						a.caches[1+j] = resCache[j][ri*k : (ri+1)*k]
					}
					hot.scoreRow(m.S.Features, a.caches, a.pds, a.logp, &a.ops)
					lse := linalg.LogSumExp(a.logp)
					a.ll += lse
					for c := 0; c < k; c++ {
						a.gamma = append(a.gamma, math.Exp(a.logp[c]-lse))
					}
					a.ng++
				}
				return nil
			},
			OnChunkMerged: func(state any) error {
				a := state.(*feAcc)
				copy(gamma[idx*k:(idx+a.ng)*k], a.gamma)
				idx += a.ng
				ll += a.ll
				stats.Ops.Add(a.ops)
				means.absorb(&a.rows, a.gamma, &stats.Ops)
				fePool.Put(a)
				return nil
			},
			OnBlockEnd: func() error {
				means.endBlock(&stats.Ops)
				return nil
			},
		})
		if err != nil {
			return err
		}
		collapsed := applyMeanUpdates(model, means.nk, means.finish(ps, &stats.Ops), n)

		// ------------------------------------------------------------------
		// M-step pass: covariances (Eq. 14-18 / 23-24) with the new means.
		// Every block is grouped by the tuple of a dimension relation:
		//   Σ_n γ PD_R PD_Rᵀ   = (Σ_{n∈group} γ) · PD_R PD_Rᵀ,
		//   Σ_n γ PD_S PD_Rᵀ   = (Σ_{n∈group} γ PD_S) ⊗ PD_R,
		//   Σ_n γ PD_Ra PD_Rbᵀ = PD_Ra ⊗ (Σ_{n∈group of Ra} γ PD_Rb),
		// so per match only the fact block and the group sums grow. Only
		// the upper half of the symmetric accumulator is summed (B[0][0]'s
		// upper triangle and the blocks B[a][b], a < b); MirrorUpper fills
		// in the rest once per iteration.
		// ------------------------------------------------------------------
		for c := 0; c < k; c++ {
			acc[c].Zero()
		}
		for j := 0; j < q-1; j++ {
			dRj := p.Dims[2+j]
			for t, tp := range ps.Resident(j) {
				for c := 0; c < k; c++ {
					linalg.VecSub(pdRes[j][t*k+c], tp.Features, p.Slice(model.Means[c], 2+j))
					stats.Ops.AddSub(dRj)
					linalg.VecZero(gvecRes[j][t*k+c])
					linalg.VecZero(hRes[j][t*k+c])
				}
			}
		}

		idx = 0
		ps.Pass = "fgmm.mstep_cov"
		err = ps.Run(join.Callbacks{
			OnBlockStart: func(block []*storage.Tuple) error {
				need := len(block) * k
				if cap(pdBlk) < need {
					pdBlk = make([][]float64, need)
					gvecBlk = make([][]float64, need)
					hBlk = make([][]float64, need)
				}
				pdBlk = pdBlk[:need]
				gvecBlk = gvecBlk[:need]
				hBlk = hBlk[:need]
				if cap(wBlk) < need {
					wBlk = make([]float64, need)
				}
				wBlk = wBlk[:need]
				linalg.VecZero(wBlk)
				dR1 := p.Dims[1]
				for i, tp := range block {
					for c := 0; c < k; c++ {
						if pdBlk[i*k+c] == nil {
							pdBlk[i*k+c] = make([]float64, dR1)
							gvecBlk[i*k+c] = make([]float64, dS)
							hBlk[i*k+c] = make([]float64, tail[0])
						}
						linalg.VecSub(pdBlk[i*k+c], tp.Features, p.Slice(model.Means[c], 1))
						stats.Ops.AddSub(dR1)
						linalg.VecZero(gvecBlk[i*k+c])
						linalg.VecZero(hBlk[i*k+c])
					}
				}
				curBlock = block
				return nil
			},
			OnMatch: func(s *storage.Tuple, r1Idx int, resIdx []int) error {
				g := gamma[idx*k : (idx+1)*k]
				for c := 0; c < k; c++ {
					gc := g[c]
					linalg.VecSub(pds, s.Features, p.Slice(model.Means[c], 0))
					stats.Ops.AddSub(dS)
					linalg.VecScale(gp, gc, pds)
					stats.Ops.AddScale(dS)
					linalg.OuterAccumUpper(acc[c].B[0][0], gp, pds)
					stats.Ops.AddOuterUpper(dS)
					wBlk[r1Idx*k+c] += gc
					gv := gvecBlk[r1Idx*k+c]
					linalg.VecAdd(gv, gv, gp)
					stats.Ops.AddSub(dS)
					pdBuf[0], hBuf[0] = pdBlk[r1Idx*k+c], hBlk[r1Idx*k+c]
					for j, ri := range resIdx {
						gv = gvecRes[j][ri*k+c]
						linalg.VecAdd(gv, gv, gp)
						stats.Ops.AddSub(dS)
						pdBuf[1+j], hBuf[1+j] = pdRes[j][ri*k+c], hRes[j][ri*k+c]
					}
					// Cross group sums: the tuple of each part 1+a collects
					// γ·PD_Rb of every later part b.
					for a := 0; a+1 < q; a++ {
						h := hBuf[a]
						for b := a + 1; b < q; b++ {
							d := p.Dims[1+b]
							linalg.Axpy(gc, pdBuf[b], h[:d])
							stats.Ops.AddAxpy(d)
							h = h[d:]
						}
					}
				}
				idx++
				return nil
			},
			OnBlockEnd: func() error {
				dR1 := p.Dims[1]
				for i := range curBlock {
					for c := 0; c < k; c++ {
						pd := pdBlk[i*k+c]
						linalg.OuterAccum(acc[c].B[1][1], wBlk[i*k+c], pd, pd)
						stats.Ops.AddOuter(dR1, dR1)
						linalg.OuterAccum(acc[c].B[0][1], 1, gvecBlk[i*k+c], pd)
						stats.Ops.AddOuter(dS, dR1)
						flushCross(acc[c], 0, pd, hBlk[i*k+c])
					}
				}
				return nil
			},
		})
		if err != nil {
			return err
		}
		// The resident groups' Σγ are the E-step's (γ is unchanged since).
		for j, wRes := range means.wRes {
			dRj := p.Dims[2+j]
			for t := range ps.Resident(j) {
				for c := 0; c < k; c++ {
					pd := pdRes[j][t*k+c]
					linalg.OuterAccum(acc[c].B[2+j][2+j], wRes[t*k+c], pd, pd)
					stats.Ops.AddOuter(dRj, dRj)
					linalg.OuterAccum(acc[c].B[0][2+j], 1, gvecRes[j][t*k+c], pd)
					stats.Ops.AddOuter(dS, dRj)
					flushCross(acc[c], 1+j, pd, hRes[j][t*k+c])
				}
			}
		}
		for c := 0; c < k; c++ {
			acc[c].MirrorUpper()
			acc[c].AssembleInto(sumCov[c])
		}
		applyCovUpdates(model, means.nk, sumCov, collapsed, cfg.RegEps)

		stats.LogLikelihood = append(stats.LogLikelihood, ll)
		stats.Iters = iter + 1
		if iter > 0 && converged(ll, prevLL, cfg.Tol) {
			stats.Converged = true
			break
		}
		prevLL = ll
	}
	return nil
}
