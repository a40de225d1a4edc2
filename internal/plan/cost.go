package plan

import (
	"factorml/internal/core"
	"factorml/internal/join"
	"factorml/internal/storage"
)

// The cost model prices exactly the kernels the trainers charge into
// Stats.Ops at their call sites (see internal/gmm, internal/nn,
// core.FillQuadCache/FactQuad), composed with Ops.Add and Ops.Scale:
//
//	dense EM, per row, per component, per iteration
//	    E:  sub(d) + quadform(d) + axpy(d)      (the means fold into E)
//	    M:  sub(d) + outer(d,d)
//	factorized EM, per iteration
//	    cache fills, per dimension tuple of relation i, per component:
//	        sub(wᵢ) + quadform(wᵢ) + matvec(dS×wᵢ)          (Eq. 7–12)
//	    E, per match:  sub(dS) + quadform(dS)
//	                   + Σᵢ dot(dS) + Σᵢ<ⱼ bilinear(wᵢ×wⱼ)   (Eq. 19–21)
//	       means: axpy(dS) per match + axpy(wᵢ) per dimension tuple (Eq. 22)
//	    M, per match:  sub(dS) + scale(dS) + upper-triangle outer(dS)
//	                   + q·vecadd(dS) + Σᵢ<ⱼ axpy(wⱼ)
//	       per tuple of relation i:  sub(wᵢ) + outer(wᵢ,wᵢ) + outer(dS,wᵢ)
//	                   + Σⱼ>ᵢ outer(wᵢ,wⱼ)                    (Eq. 23–24)
//
// and the NN equivalents (§VI-A1/A3). The I/O model is the paper's
// block-nested-loops accounting: each pass reads R1 once and rescans S
// once per R1 block; Materialized pays one join plus writing T, then reads
// T per pass. Buffer-pool caching is deliberately ignored (pessimistic for
// re-reads, uniformly across strategies).
//
// Every factorized M-step block is grouped by the tuple of a dimension
// relation: the fact block and the group sums (Σγ, Σγ·PD_S, and Σγ·PD_Rⱼ
// for each later relation j) grow per match, everything else is flushed
// once per tuple, and only the upper half of the symmetric Σ is summed.

// shape extracts the quantities the formulas need.
type shape struct {
	n    int64   // fact rows
	dS   int     // fact feature width
	d    int     // joined width
	w    []int   // per-dimension-relation widths
	m    []int64 // per-dimension-relation row counts
	q    int     // number of dimension relations
	hasY bool
}

func (ss *SchemaStats) shape() shape {
	sh := shape{
		n:    ss.Fact.Stats.Rows,
		dS:   ss.Fact.Stats.Width,
		d:    ss.JoinedWidth(),
		q:    len(ss.Dims),
		hasY: ss.HasTarget,
	}
	for _, r := range ss.Dims {
		sh.w = append(sh.w, r.Stats.Width)
		sh.m = append(sh.m, r.Stats.Rows)
	}
	return sh
}

// estimateOps prices the training-math flops of one full training run.
func estimateOps(ss *SchemaStats, m ModelSpec, s Strategy) core.Ops {
	sh := ss.shape()
	var total core.Ops
	switch m.Family {
	case FamilyGMM:
		var perIter core.Ops
		if s == Factorized {
			perIter = factGMMIter(sh, m.K, m.Diagonal)
		} else {
			perIter = denseGMMIter(sh, m.K, m.Diagonal)
		}
		total.Add(perIter.Scale(int64(m.Iters)))
	case FamilyNN:
		var perEpoch core.Ops
		if s == Factorized {
			perEpoch = factNNEpoch(sh, m, ss)
		} else {
			perEpoch = denseNNEpoch(sh, m)
		}
		total.Add(perEpoch.Scale(int64(m.Epochs)))
	}
	return total
}

// denseGMMIter prices one dense EM iteration (M-GMM/S-GMM do the same
// math; they differ only in I/O).
func denseGMMIter(sh shape, k int, diagonal bool) core.Ops {
	var kernel core.Ops // per row, per component
	if diagonal {
		kernel.AddDiagQuad(sh.d) // E
		kernel.AddAxpy(sh.d)     // E: means
		kernel.AddDiagQuad(sh.d) // M
	} else {
		kernel.AddSub(sh.d) // E: PD
		kernel.AddQuadForm(sh.d)
		kernel.AddAxpy(sh.d) // E: means
		kernel.AddSub(sh.d)  // M: PD
		kernel.AddOuter(sh.d, sh.d)
	}
	return kernel.Scale(int64(k) * sh.n)
}

// factGMMIter prices one factorized EM iteration.
func factGMMIter(sh shape, k int, diagonal bool) core.Ops {
	var total core.Ops
	// Per-dimension-tuple work: cache fills and mean flushes (E), PD
	// setup + covariance flushes (M) — once per distinct tuple per
	// iteration, per component; this is the per-group reuse the strategy
	// buys with fan-out.
	for i, wi := range sh.w {
		var perTuple core.Ops
		if diagonal {
			perTuple.AddDiagQuad(wi) // E cache
			perTuple.AddAxpy(wi)     // E: mean flush
			perTuple.AddDiagQuad(wi) // M flush
		} else {
			perTuple.AddSub(wi) // E cache: PD
			perTuple.AddQuadForm(wi)
			perTuple.AddMatVec(sh.dS, wi) // E cache: CrossS
			perTuple.AddAxpy(wi)          // E: mean flush
			perTuple.AddSub(wi)           // M: PD with new means
			perTuple.AddOuter(wi, wi)     // M: diagonal block
			perTuple.AddOuter(sh.dS, wi)  // M: S-R cross
			for _, wj := range sh.w[i+1:] {
				perTuple.AddOuter(wi, wj) // M: R-R cross, grouped by this tuple
			}
		}
		total.Add(perTuple.Scale(int64(k) * sh.m[i]))
	}
	// Per-match work.
	var perMatch core.Ops // per joined row, per component
	if diagonal {
		perMatch.AddDiagQuad(sh.dS) // E
		perMatch.Adds += int64(sh.q)
		perMatch.AddAxpy(sh.dS)     // E: means
		perMatch.AddDiagQuad(sh.dS) // M
	} else {
		perMatch.AddSub(sh.dS) // E: PD_S
		perMatch.AddQuadForm(sh.dS)
		for range sh.w { // E: FactQuad per-part cross terms
			perMatch.AddDot(sh.dS)
			perMatch.Adds += 3
			perMatch.Mul++
		}
		for i := 0; i < sh.q; i++ { // E: dimension-dimension cross terms
			for j := i + 1; j < sh.q; j++ {
				perMatch.AddBilinear(sh.w[i], sh.w[j])
				perMatch.Adds++
				perMatch.Mul++
			}
		}
		perMatch.AddAxpy(sh.dS)  // E: means
		perMatch.AddSub(sh.dS)   // M: PD_S
		perMatch.AddScale(sh.dS) // M: γ·PD_S
		perMatch.AddOuterUpper(sh.dS)
		for i := 0; i < sh.q; i++ { // M: γ·PD_S into each group's sum
			perMatch.AddSub(sh.dS)
		}
		for i := 0; i < sh.q; i++ { // M: R-R cross group sums
			for _, wj := range sh.w[i+1:] {
				perMatch.AddAxpy(wj)
			}
		}
	}
	total.Add(perMatch.Scale(int64(k) * sh.n))
	return total
}

// nnSizes builds the layer sizes [d, hidden…, 1].
func nnSizes(d int, hidden []int) []int {
	sizes := append([]int{d}, hidden...)
	return append(sizes, 1)
}

// denseNNEpoch prices one dense SGD epoch.
func denseNNEpoch(sh shape, m ModelSpec) core.Ops {
	sizes := nnSizes(sh.d, m.Hidden)
	layers := len(sizes) - 1
	var per core.Ops // per example
	// Forward.
	per.AddMatVec(sizes[1], sizes[0])
	per.Adds += int64(sizes[1])
	for l := 1; l < layers; l++ {
		per.AddMatVec(sizes[l+1], sizes[l])
		per.Adds += int64(sizes[l+1])
	}
	// Backward (upper layers) + input-layer gradient.
	per.Adds++
	for l := layers - 1; l >= 1; l-- {
		per.AddOuterPlain(sizes[l+1], sizes[l])
		per.Adds += int64(sizes[l+1])
		per.AddMatVec(sizes[l], sizes[l+1])
		per.Mul += int64(sizes[l])
	}
	per.AddOuterPlain(sizes[1], sizes[0])
	per.Adds += int64(sizes[1])
	return per.Scale(sh.n)
}

// factNNEpoch prices one factorized SGD epoch (§VI-A1/A3).
func factNNEpoch(sh shape, m ModelSpec, ss *SchemaStats) core.Ops {
	sizes := nnSizes(sh.d, m.Hidden)
	layers := len(sizes) - 1
	nh0 := sizes[1]
	var total core.Ops

	// Dimension cache fills: W₀ᵢ·xᵢ per distinct tuple. R1 tuples fill once
	// per epoch (each belongs to one block); resident relations refill per
	// block under Block-mode updates, once per epoch otherwise.
	refills := int64(1)
	if m.BlockMode {
		refills = ss.numBlocks(m.BlockPages)
	}
	for i, wi := range sh.w {
		var fill core.Ops
		fill.AddMatVec(nh0, wi)
		times := sh.m[i]
		if i > 0 {
			times *= refills
		}
		total.Add(fill.Scale(times))
	}

	// Per-match forward/backward.
	var per core.Ops
	per.AddMatVec(nh0, sh.dS)              // W₀ₛ·xₛ
	per.Adds += int64(sh.q+1) * int64(nh0) // cached part adds + bias
	for l := 1; l < layers; l++ {
		per.AddMatVec(sizes[l+1], sizes[l])
		per.Adds += int64(sizes[l+1])
	}
	per.Adds++
	for l := layers - 1; l >= 1; l-- {
		per.AddOuterPlain(sizes[l+1], sizes[l])
		per.Adds += int64(sizes[l+1])
		per.AddMatVec(sizes[l], sizes[l+1])
		per.Mul += int64(sizes[l])
	}
	per.AddOuterPlain(nh0, sh.dS) // input gradient, fact columns
	per.Adds += int64(nh0)
	if m.GroupedGradient {
		per.Adds += int64(sh.q) * int64(nh0) // Σδ per group
	} else {
		for _, wi := range sh.w {
			per.AddOuterPlain(nh0, wi) // input gradient, dimension columns
		}
	}
	total.Add(per.Scale(sh.n))

	// Grouped-gradient flushes: one outer product per distinct tuple.
	if m.GroupedGradient {
		for i, wi := range sh.w {
			var flush core.Ops
			flush.AddOuterPlain(nh0, wi)
			times := sh.m[i]
			if i > 0 {
				times *= refills
			}
			total.Add(flush.Scale(times))
		}
	}
	return total
}

// ---------------------------------------------------------------------------
// Page-I/O model.
// ---------------------------------------------------------------------------

// numBlocks estimates how many R1 blocks one block-nested-loops pass
// produces (each rescans the fact table once).
func (ss *SchemaStats) numBlocks(blockPages int) int64 {
	if blockPages <= 0 {
		blockPages = join.DefaultBlockPages
	}
	r1p := ss.Dims[0].Stats.Pages
	if r1p <= 0 {
		return 1
	}
	nb := (r1p + int64(blockPages) - 1) / int64(blockPages)
	if nb < 1 {
		nb = 1
	}
	return nb
}

// tPages estimates the page count of the materialized join result T.
func (ss *SchemaStats) tPages() int64 {
	rec := 8 * (1 + ss.JoinedWidth())
	if ss.HasTarget {
		rec += 8
	}
	perPage := storage.PageDataSize / rec
	if perPage < 1 {
		perPage = 1
	}
	n := ss.Fact.Stats.Rows
	return (n + int64(perPage) - 1) / int64(perPage)
}

// estimatePages prices the page accesses (reads + writes) of a run.
func estimatePages(ss *SchemaStats, m ModelSpec, s Strategy) int64 {
	// Passes over the data: EM reads the rows once for initialization and
	// twice per iteration (the E-step, which also sums the means, then the
	// covariances); SGD once per epoch.
	var passes int64
	switch m.Family {
	case FamilyGMM:
		passes = 1 + 2*int64(m.Iters)
	case FamilyNN:
		passes = int64(m.Epochs)
	}
	resident := int64(0)
	for _, r := range ss.Dims[1:] {
		resident += r.Stats.Pages
	}
	joinPass := ss.Dims[0].Stats.Pages + ss.numBlocks(m.BlockPages)*ss.Fact.Stats.Pages
	switch s {
	case Materialized:
		tp := ss.tPages()
		return resident + joinPass + tp + passes*tp
	default: // Streaming, Factorized: identical access path
		return resident + passes*joinPass
	}
}
