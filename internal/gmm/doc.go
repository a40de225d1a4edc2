// Package gmm implements full-covariance Gaussian Mixture Model training by
// Expectation-Maximization over normalized relations, in the paper's three
// flavours:
//
//   - TrainM (M-GMM): materialize the join result T on disk, then run EM
//     reading T twice per iteration (Algorithm 1 of the paper, with the
//     means folded into the E-step pass).
//   - TrainS (S-GMM): identical EM, but each read of T is replaced by
//     re-executing the block-nested-loops join on the fly.
//   - TrainF (F-GMM): the paper's contribution — the E-step quadratic form
//     and the M-step mean/covariance accumulations are factorized into
//     per-relation blocks (Eq. 7–24), and every quantity that depends only
//     on a dimension tuple is computed once per distinct dimension tuple
//     and reused across all matching fact tuples.
//
// The decomposition is exact, so all three trainers produce identical
// parameters at every iteration (verified by tests to ~1e-9). Binary joins
// and multi-way star joins are both supported; the multi-way factorization
// follows §V-C (diagonal blocks and PD vectors of each dimension relation
// are reused). The covariance pass goes further than §V-C: the cross block
// between two dimension relations is grouped by the tuples of the first
// one as well, Σ_n γ·PD_Ra·PD_Rbᵀ = Σ_{t∈Ra} PD_Ra(t)·(Σ_{n∈group t}
// γ·PD_Rb)ᵀ, so per joined tuple only the fact block (its upper triangle)
// and the group sums grow.
//
// Numerical notes: responsibilities are computed in log space with
// log-sum-exp (this affects all three algorithms identically, so exactness
// of the comparison is preserved), covariances get a small diagonal
// regularizer each M-step, and a component whose responsibility mass
// collapses keeps its previous parameters.
package gmm
