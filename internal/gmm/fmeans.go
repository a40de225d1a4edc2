package gmm

import (
	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/linalg"
	"factorml/internal/storage"
)

// factMeans accumulates the means and weights (Eq. 13 / 22) of a factorized
// EM iteration inside its E-step pass, which already holds γ. The fact part
// sums γ·x_S per match. A dimension part's sum Σ_n γ·x_R factors into
// x_R · (Σ_{n∈group} γ): the group weights collect per R1 block tuple
// (flushed at the block's end) and per resident tuple (flushed by finish).
//
// The E-step records each match of a chunk in a meanRows, and absorb runs
// from OnChunkMerged, strictly in chunk order — so every sum sees the
// matches in scan order, exactly as a sequential pass would.
type factMeans struct {
	p     core.Partition
	k     int
	nk    []float64
	parts [][][]float64 // [part][component] Σγx over the part's columns
	full  [][]float64   // [component] the parts assembled
	wBlk  []float64     // Σγ per (R1 block tuple, component)
	wRes  [][]float64   // Σγ per (resident tuple of part 2+j, component)
	block []*storage.Tuple
}

// meanRows is what absorb needs of each match in an E-step chunk: the fact
// features and the positions of the match's dimension partners.
type meanRows struct {
	xs  []float64
	r1  []int
	res []int
}

func (r *meanRows) reset() { r.xs, r.r1, r.res = r.xs[:0], r.r1[:0], r.res[:0] }

func (r *meanRows) add(m join.Match) {
	r.xs = append(r.xs, m.S.Features...)
	r.r1 = append(r.r1, m.R1)
	r.res = append(r.res, m.Res...)
}

// newFactMeans sizes the accumulators for a scan whose resident relations
// are loaded.
func newFactMeans(ps *factor.PartScan, k int) *factMeans {
	p := ps.P
	f := &factMeans{
		p: p, k: k, nk: make([]float64, k),
		parts: make([][][]float64, p.Parts()),
		full:  make([][]float64, k),
		wRes:  make([][]float64, p.Parts()-2),
	}
	for i := range f.parts {
		f.parts[i] = make([][]float64, k)
		for c := range f.parts[i] {
			f.parts[i][c] = make([]float64, p.Dims[i])
		}
	}
	for c := range f.full {
		f.full[c] = make([]float64, p.D)
	}
	for j := range f.wRes {
		f.wRes[j] = make([]float64, len(ps.Resident(j))*k)
	}
	return f
}

// reset zeroes the sums for a new iteration.
func (f *factMeans) reset() {
	linalg.VecZero(f.nk)
	for _, part := range f.parts {
		for _, s := range part {
			linalg.VecZero(s)
		}
	}
	for _, w := range f.wRes {
		linalg.VecZero(w)
	}
}

// startBlock zeroes the group weights of a new R1 block.
func (f *factMeans) startBlock(block []*storage.Tuple) {
	need := len(block) * f.k
	if cap(f.wBlk) < need {
		f.wBlk = make([]float64, need)
	}
	f.wBlk = f.wBlk[:need]
	linalg.VecZero(f.wBlk)
	f.block = block
}

// absorb folds one chunk's matches, with their responsibilities gamma
// (k per match), into the sums.
func (f *factMeans) absorb(rows *meanRows, gamma []float64, ops *core.Ops) {
	k, dS, nr := f.k, f.p.Dims[0], len(f.wRes)
	for i, r1 := range rows.r1 {
		x := rows.xs[i*dS : (i+1)*dS]
		res := rows.res[i*nr : (i+1)*nr]
		g := gamma[i*k : (i+1)*k]
		for c := 0; c < k; c++ {
			f.nk[c] += g[c]
			linalg.Axpy(g[c], x, f.parts[0][c])
			ops.AddAxpy(dS)
			f.wBlk[r1*k+c] += g[c]
			for j, ri := range res {
				f.wRes[j][ri*k+c] += g[c]
			}
		}
	}
}

// endBlock flushes the block's group weights into the R1 part.
func (f *factMeans) endBlock(ops *core.Ops) {
	for i, tp := range f.block {
		for c := 0; c < f.k; c++ {
			linalg.Axpy(f.wBlk[i*f.k+c], tp.Features, f.parts[1][c])
			ops.AddAxpy(f.p.Dims[1])
		}
	}
}

// finish flushes the resident group weights and returns the assembled
// Σγx per component, for applyMeanUpdates with f.nk.
func (f *factMeans) finish(ps *factor.PartScan, ops *core.Ops) [][]float64 {
	for j, w := range f.wRes {
		for t, tp := range ps.Resident(j) {
			for c := 0; c < f.k; c++ {
				linalg.Axpy(w[t*f.k+c], tp.Features, f.parts[2+j][c])
				ops.AddAxpy(f.p.Dims[2+j])
			}
		}
	}
	for c, full := range f.full {
		for i, part := range f.parts {
			copy(full[f.p.Offs[i]:f.p.Offs[i]+f.p.Dims[i]], part[c])
		}
	}
	return f.full
}
