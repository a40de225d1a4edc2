package gmm

import (
	"math"
	"sync"

	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/linalg"
	"factorml/internal/parallel"
)

// emDense runs EM over a dense pass source. It is the engine of both M-GMM
// and S-GMM (Algorithm 1 of the paper): each iteration makes two passes
// through whatever access path `pass` encapsulates (reading the
// materialized T, or re-joining on the fly). The E-step pass computes the
// responsibilities and, since the means and weights need nothing but γ,
// also accumulates Σγ and Σγx; the second pass accumulates the covariances
// around the new means. Algorithm 1 spends a separate scan on the means;
// the E-step sums the same terms in the same order, so the result is
// exactly Algorithm 1's.
//
// Every pass is executed by the shared chunked row-pass operator
// (factor.RunRowPass over internal/parallel): rows are cut into fixed
// chunks, each chunk folds into its own accumulator on a worker, and the
// accumulators merge in chunk order. The trained model is therefore
// bit-identical for every cfg.NumWorkers value.
func emDense(pass passFn, d, n int, cfg Config, model *Model, stats *Stats) error {
	nw := parallel.Workers(cfg.NumWorkers)
	scan := func(onRow factor.RowFn) error {
		return pass(func(x []float64) error { return onRow(x, 0) })
	}
	k := cfg.K
	gamma := make([]float64, n*k)
	p := core.NewPartition([]int{d})

	// Per-chunk accumulators, pooled across passes and iterations.
	type eAcc struct {
		ll    float64
		ops   core.Ops
		logp  []float64
		pd    []float64
		nk    []float64
		sumMu [][]float64
	}
	ePool := sync.Pool{New: func() any {
		a := &eAcc{logp: make([]float64, k), pd: make([]float64, d),
			nk: make([]float64, k), sumMu: make([][]float64, k)}
		for c := 0; c < k; c++ {
			a.sumMu[c] = make([]float64, d)
		}
		return a
	}}
	type m2Acc struct {
		ops    core.Ops
		pd     []float64
		sumCov []*linalg.Dense
	}
	m2Pool := sync.Pool{New: func() any {
		a := &m2Acc{pd: make([]float64, d), sumCov: make([]*linalg.Dense, k)}
		for c := 0; c < k; c++ {
			a.sumCov[c] = linalg.NewDense(d, d)
		}
		return a
	}}

	nk := make([]float64, k)
	sumMu := make([][]float64, k)
	sumCov := make([]*linalg.Dense, k)
	for c := 0; c < k; c++ {
		sumMu[c] = make([]float64, d)
		sumCov[c] = linalg.NewDense(d, d)
	}

	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		states, err := model.precompute(p, false)
		if err != nil {
			return err
		}

		// --- E-step pass: responsibilities and log-likelihood (Eq. 1-2, 6),
		// plus the means and weights (Eq. 3, 5). Workers write γ rows at
		// disjoint indices; the per-chunk log-likelihood, Σγ and Σγx
		// partials merge in chunk order.
		ll := 0.0
		for c := 0; c < k; c++ {
			nk[c] = 0
			linalg.VecZero(sumMu[c])
		}
		err = factor.RunRowPass("gmm.estep", nw, d, scan, factor.PassHooks{
			NewAcc: func() any {
				a := ePool.Get().(*eAcc)
				a.ll, a.ops = 0, core.Ops{}
				for c := 0; c < k; c++ {
					a.nk[c] = 0
					linalg.VecZero(a.sumMu[c])
				}
				return a
			},
			Fold: func(acc any, start int, rows, _ []float64, nr int) error {
				a := acc.(*eAcc)
				for i := 0; i < nr; i++ {
					x := rows[i*d : (i+1)*d]
					for c := 0; c < k; c++ {
						linalg.VecSub(a.pd, x, model.Means[c])
						a.ops.AddSub(d)
						q := linalg.QuadForm(states[c].inv, a.pd)
						a.ops.AddQuadForm(d)
						a.logp[c] = states[c].logW + states[c].logNorm - 0.5*q
					}
					lse := linalg.LogSumExp(a.logp)
					a.ll += lse
					g := gamma[(start+i)*k : (start+i+1)*k]
					for c := 0; c < k; c++ {
						g[c] = math.Exp(a.logp[c] - lse)
						a.nk[c] += g[c]
						linalg.Axpy(g[c], x, a.sumMu[c])
						a.ops.AddAxpy(d)
					}
				}
				return nil
			},
			Merge: func(acc any) error {
				a := acc.(*eAcc)
				ll += a.ll
				for c := 0; c < k; c++ {
					nk[c] += a.nk[c]
					linalg.VecAdd(sumMu[c], sumMu[c], a.sumMu[c])
				}
				stats.Ops.Add(a.ops)
				ePool.Put(a)
				return nil
			}})
		if err != nil {
			return err
		}
		collapsed := applyMeanUpdates(model, nk, sumMu, n)

		// --- M-step pass: covariances with the new means (Eq. 4).
		for c := 0; c < k; c++ {
			sumCov[c].Zero()
		}
		err = factor.RunRowPass("gmm.mstep_cov", nw, d, scan, factor.PassHooks{
			NewAcc: func() any {
				a := m2Pool.Get().(*m2Acc)
				a.ops = core.Ops{}
				for c := 0; c < k; c++ {
					a.sumCov[c].Zero()
				}
				return a
			},
			Fold: func(acc any, start int, rows, _ []float64, nr int) error {
				a := acc.(*m2Acc)
				for i := 0; i < nr; i++ {
					x := rows[i*d : (i+1)*d]
					g := gamma[(start+i)*k : (start+i+1)*k]
					for c := 0; c < k; c++ {
						linalg.VecSub(a.pd, x, model.Means[c])
						a.ops.AddSub(d)
						linalg.OuterAccum(a.sumCov[c], g[c], a.pd, a.pd)
						a.ops.AddOuter(d, d)
					}
				}
				return nil
			},
			Merge: func(acc any) error {
				a := acc.(*m2Acc)
				for c := 0; c < k; c++ {
					sumCov[c].AddScaled(1, a.sumCov[c])
				}
				stats.Ops.Add(a.ops)
				m2Pool.Put(a)
				return nil
			}})
		if err != nil {
			return err
		}
		applyCovUpdates(model, nk, sumCov, collapsed, cfg.RegEps)

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
