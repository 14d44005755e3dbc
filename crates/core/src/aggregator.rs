//! The one sparse step: local selection, a collective, the rejects
//! policy, averaging — executed for any [`Algorithm`] row of the
//! capability table ([`crate::capability`]).
//!
//! The trainer hands the aggregator the worker's error-feedback
//! [`Residual`] buffer, this iteration's fresh gradient, the live
//! membership, and the selection budget `k`; the aggregator extracts what
//! the row's collective needs, exchanges it across the members, sends the
//! rejects where the row says, and returns the *averaged* global update
//! to apply. The plan-driven collectives run as epoch-stamped plan
//! executions over the member positions, so the same step serves the
//! plain and the fault-tolerant training loops (shrunken memberships
//! included). The overlap engine runs one step per bucket; a run without
//! `--overlap` is its one-bucket case, the step over the whole vector.
//! [`Aggregator::charge_twin`] replays the same collective on the
//! engine's analytic clock.

use crate::capability::{Algorithm, Collective, Rejects, Row};
use crate::gtopk_allreduce::{naive_gtopk_all_reduce, tree_all_reduce};
use crate::sparse_coll::{sparse_sum_recursive_doubling, sparse_zoo_all_reduce_over};
use gtopk_comm::collectives::{self, ring_chunk};
use gtopk_comm::{CollectivePlan, Communicator, CostModel, Result, Topology};
use gtopk_perfmodel::{sparse_sum_wire, PlanClock, ZooSchedule};
use gtopk_sparse::{Residual, SparseVec};

/// The aggregated, already `1/P`-averaged model update.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// Dense update (the S-SGD baseline).
    Dense(Vec<f32>),
    /// Sparse update (all sparsified variants).
    Sparse(SparseVec),
}

impl Update {
    /// Number of non-zero entries the update carries.
    pub fn nnz(&self) -> usize {
        match self {
            Update::Dense(v) => v.len(),
            Update::Sparse(sv) => sv.nnz(),
        }
    }
}

/// One rank's aggregation step for one [`Algorithm`] row: the schedule
/// caches of its collective. Local selection is the residual's one exact
/// kernel, so the step carries no selection state. The residual it works
/// on stays with the caller — one bucket's of the overlap engine, which
/// is the whole vector's when there is one bucket.
#[derive(Debug, Clone)]
pub struct Aggregator {
    algorithm: Algorithm,
    /// Zoo rows: the schedule for the current `(P, k)`.
    sched: Option<ZooSchedule>,
    /// Every other collective: the plans it executes for the current `P`,
    /// for the analytic twin ([`Aggregator::charge_twin`]).
    plans: Vec<CollectivePlan>,
}

impl Aggregator {
    /// The step for `algorithm`. Which configurations a training run may
    /// use it in is
    /// [`TrainConfig::validate`](crate::TrainConfig::validate)'s call.
    pub fn new(algorithm: Algorithm) -> Self {
        Aggregator {
            algorithm,
            sched: None,
            plans: Vec::new(),
        }
    }

    /// Aggregates this iteration's gradient across `members` (the
    /// sorted, alive rank set — the full `0..P` outside the
    /// fault-tolerant loop).
    ///
    /// On entry, `residual` holds the error feedback carried over from
    /// previous iterations and `grad` this iteration's fresh gradient.
    /// The step folds `grad` into the residual (Algorithm 1/4, line 4 —
    /// fused with the exact selection into a single memory pass), extracts
    /// its share, communicates, returns rejected values to `residual` as
    /// the row's [`Rejects`] policy says, and yields the update averaged
    /// over `|members|`. Must be called collectively by every member.
    ///
    /// # Errors
    ///
    /// Propagates transport errors from the communicator.
    pub fn aggregate(
        &mut self,
        comm: &mut Communicator,
        members: &[usize],
        residual: &mut Residual,
        grad: &[f32],
        k: usize,
    ) -> Result<Update> {
        let Row {
            collective,
            rejects,
            caps,
        } = self.algorithm.row();
        debug_assert!(
            caps.member_subset || members.len() == comm.size(),
            "{} runs a fixed full-cluster schedule",
            self.algorithm.name()
        );
        let p = members.len();
        let inv = 1.0 / p as f32;
        // Select and reduce. Besides the global selection, a collective
        // that selects hands back this rank's own selection (the global
        // mask is the global selection's support), and one that truncates
        // hands back what this rank witnessed it truncate — the two things
        // a rejects policy can ask for. The tree computes its merge
        // rejects only for the row that reads them.
        let (mut global, own, witnessed): (_, Option<SparseVec>, Option<SparseVec>) =
            match collective {
                Collective::DenseRing => {
                    // Dense training has no residuals: every gradient is
                    // applied immediately, so the buffer drains whole.
                    residual.accumulate(grad);
                    let mut sum = residual.dense().to_vec();
                    residual.clear();
                    collectives::allreduce_ring(comm, &mut sum)?;
                    sum.iter_mut().for_each(|v| *v *= inv);
                    return Ok(Update::Dense(sum));
                }
                Collective::SparseSum => {
                    let local = residual.accumulate_extract(grad, k);
                    (sparse_sum_recursive_doubling(comm, local)?, None, None)
                }
                Collective::SparseSumThenSelect => {
                    let local = residual.accumulate_extract(grad, k);
                    let (global, _) = naive_gtopk_all_reduce(comm, local.clone(), k)?;
                    (global, Some(local), None)
                }
                Collective::Tree => {
                    let local = residual.accumulate_extract(grad, k);
                    let (global, witnessed) = tree_all_reduce(
                        comm,
                        members,
                        local.clone(),
                        k,
                        rejects == Rejects::PutBackOwnAndWitnessed,
                    )?;
                    (global, Some(local), witnessed)
                }
                Collective::Zoo(kind) => {
                    let sched = zoo_schedule(&mut self.sched, kind, p, k);
                    // The schedule's contribution quota, into a pooled
                    // vector: allocation-free in steady state.
                    let mut local = comm.pool().take_sparse(grad.len());
                    residual.accumulate_extract_into(grad, sched.contrib_slots, &mut local);
                    let (global, witnessed) =
                        sparse_zoo_all_reduce_over(comm, members, local, sched)?;
                    (global, None, Some(witnessed))
                }
            };
        // Rejects: what the collective turned away goes where the row says,
        // each in one walk against the global selection's indices.
        if let (Rejects::PutBackOwn | Rejects::PutBackOwnAndWitnessed, Some(local)) =
            (rejects, &own)
        {
            // Alg. 4 line 10: Gᵍ += G̃ᵍ ⊙ ¬gMask ⊙ Mask.
            residual.put_back_unselected(local, global.indices());
        }
        if let Some(witnessed) = witnessed {
            match rejects {
                Rejects::Witnessed => residual.put_back(&witnessed),
                Rejects::PutBackOwnAndWitnessed => {
                    residual.put_back_selected(&witnessed, global.indices());
                }
                _ => {}
            }
            comm.pool().put_sparse(witnessed);
        }
        global.scale(inv);
        Ok(Update::Sparse(global))
    }

    /// Replays the collective [`Aggregator::aggregate`] runs for `p`
    /// members over a `dim`-element buffer with budget `k` on an analytic
    /// clock — the overlap engine's plan-clock twin. The tree, the ring
    /// and the zoo are charged what execution sends, so the replay is
    /// exact; the two sparse sums at their disjoint-support bound
    /// ([`sparse_sum_wire`]), which overlapping supports undercut.
    pub fn charge_twin(
        &mut self,
        clock: &mut PlanClock,
        net: &CostModel,
        p: usize,
        dim: usize,
        k: usize,
    ) {
        let collective = self.algorithm.row().collective;
        if let Collective::Zoo(kind) = collective {
            return zoo_schedule(&mut self.sched, kind, p, k).charge(clock, net);
        }
        if self.plans.first().is_none_or(|plan| plan.size != p) {
            self.plans = match collective {
                Collective::DenseRing => vec![CollectivePlan::ring_allreduce(p)],
                Collective::Tree => vec![
                    CollectivePlan::reduce(Topology::Binomial, p),
                    CollectivePlan::broadcast(Topology::Binomial, p, 0),
                ],
                _ => vec![CollectivePlan::exchange(p)],
            };
        }
        for plan in &self.plans {
            match collective {
                Collective::DenseRing => {
                    clock.charge(net, plan, |r, src| ring_chunk(dim, p, r, src).len())
                }
                Collective::Tree => clock.charge(net, plan, |_, _| 2 * k),
                _ => clock.charge(net, plan, sparse_sum_wire(p, k)),
            }
        }
    }
}

/// The cached zoo schedule for `(p, k)`, rebuilt when either moved (a
/// density-schedule epoch, a membership change).
fn zoo_schedule(
    cache: &mut Option<ZooSchedule>,
    kind: crate::capability::ZooKind,
    p: usize,
    k: usize,
) -> &ZooSchedule {
    let cached = cache.take().filter(|s| s.p == p && s.k == k);
    cache.insert(cached.unwrap_or_else(|| kind.schedule(p, k)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtopk_comm::{Cluster, CostModel};

    fn worker_grad(r: usize, dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|i| {
                let h = (i as u64 + 3)
                    .wrapping_mul(r as u64 + 17)
                    .wrapping_mul(0x2545_f491_4f6c_dd1d);
                ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    fn run_algorithm(alg: Algorithm, p: usize, dim: usize, k: usize) -> Vec<(Update, Vec<f32>)> {
        Cluster::new(p, CostModel::zero()).run(move |comm| {
            let mut agg = Aggregator::new(alg);
            let members: Vec<usize> = (0..comm.size()).collect();
            let mut residual = Residual::new(dim);
            let update = agg
                .aggregate(
                    comm,
                    &members,
                    &mut residual,
                    &worker_grad(comm.rank(), dim),
                    k,
                )
                .unwrap();
            (update, residual.dense().to_vec())
        })
    }

    #[test]
    fn all_algorithms_agree_across_ranks() {
        for alg in Algorithm::ALL {
            let out = run_algorithm(alg, 4, 32, 3);
            let first = &out[0].0;
            for (u, _) in &out {
                assert_eq!(u, first, "{}", alg.name());
            }
        }
    }

    #[test]
    fn plan_driven_algorithms_agree_at_a_folded_size() {
        // The tree rows over the binomial plan (the one topology) at a
        // folded P.
        for alg in Algorithm::ALL
            .into_iter()
            .filter(|alg| alg.row().collective == Collective::Tree)
        {
            let out = Cluster::new(5, CostModel::zero()).run(move |comm| {
                let mut agg = Aggregator::new(alg);
                let members: Vec<usize> = (0..comm.size()).collect();
                let mut residual = Residual::new(32);
                agg.aggregate(
                    comm,
                    &members,
                    &mut residual,
                    &worker_grad(comm.rank(), 32),
                    3,
                )
                .unwrap()
            });
            for u in &out {
                assert_eq!(u, &out[0], "{}", alg.name());
            }
        }
    }

    #[test]
    fn dense_aggregator_averages_exactly() {
        let p = 4;
        let dim = 16;
        let out = run_algorithm(Algorithm::Dense, p, dim, 0);
        let mut expect = vec![0.0f32; dim];
        for r in 0..p {
            for (e, g) in expect.iter_mut().zip(worker_grad(r, dim)) {
                *e += g / p as f32;
            }
        }
        match &out[0].0 {
            Update::Dense(v) => {
                for (a, b) in v.iter().zip(expect.iter()) {
                    assert!((a - b).abs() < 1e-5);
                }
            }
            other => panic!("expected dense update, got {other:?}"),
        }
        // Dense training leaves no residual.
        assert!(out[0].1.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn topk_update_covers_all_extracted_coordinates() {
        let p = 4;
        let k = 3;
        let out = run_algorithm(Algorithm::TopK, p, 40, k);
        match &out[0].0 {
            Update::Sparse(sv) => {
                // Between k and kP coordinates (the paper's K).
                assert!(sv.nnz() >= k && sv.nnz() <= k * p, "nnz = {}", sv.nnz());
            }
            other => panic!("expected sparse update, got {other:?}"),
        }
    }

    #[test]
    fn gtopk_update_has_at_most_k_coordinates() {
        for alg in [
            Algorithm::GTopK,
            Algorithm::NaiveGTopK,
            Algorithm::GTopKFeedback,
        ] {
            let out = run_algorithm(alg, 8, 64, 5);
            match &out[0].0 {
                Update::Sparse(sv) => assert!(sv.nnz() <= 5, "{}: {}", alg.name(), sv.nnz()),
                other => panic!("expected sparse update, got {other:?}"),
            }
        }
    }

    #[test]
    fn gtopk_put_back_restores_globally_rejected_values() {
        // With k=1 and disjoint supports, only one worker's coordinate
        // survives; the others must find their value back in the residual.
        let p = 4;
        let dim = 16;
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let mut agg = Aggregator::new(Algorithm::GTopK);
            let members: Vec<usize> = (0..comm.size()).collect();
            let mut residual = Residual::new(dim);
            let mut g = vec![0.0f32; dim];
            g[comm.rank()] = 1.0 + comm.rank() as f32; // rank 3 wins
            let update = agg.aggregate(comm, &members, &mut residual, &g, 1).unwrap();
            (update, residual.dense().to_vec())
        });
        for (r, (update, residual)) in out.iter().enumerate() {
            match update {
                Update::Sparse(sv) => {
                    assert_eq!(sv.indices(), &[3]);
                    assert!((sv.get(3) - 4.0 / p as f32).abs() < 1e-6);
                }
                other => panic!("expected sparse, got {other:?}"),
            }
            if r != 3 {
                assert!(
                    (residual[r] - (1.0 + r as f32)).abs() < 1e-6,
                    "rank {r} residual {residual:?}"
                );
            } else {
                assert!(residual.iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn feedback_variant_never_leaves_less_residual_than_plain() {
        // The feedback extension can only add mass back to residuals.
        let p = 8;
        let dim = 64;
        let k = 2;
        let totals = |alg: Algorithm| -> f64 {
            run_algorithm(alg, p, dim, k)
                .iter()
                .map(|(_, res)| res.iter().map(|v| v.abs() as f64).sum::<f64>())
                .sum()
        };
        let plain = totals(Algorithm::GTopK);
        let feedback = totals(Algorithm::GTopKFeedback);
        assert!(
            feedback >= plain - 1e-6,
            "feedback {feedback} < plain {plain}"
        );
    }

    #[test]
    fn feedback_aggregator_conserves_gradient_mass_exactly() {
        // Each rank's gradient has exactly k non-zeros, so extraction
        // takes everything and the residual afterwards holds precisely
        // the put-backs. Conservation: sum of all contributed gradients
        // == P x (averaged update) + sum of all residuals.
        let p = 8usize;
        let dim = 32usize;
        let k = 2usize;
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let mut agg = Aggregator::new(Algorithm::GTopKFeedback);
            let members: Vec<usize> = (0..comm.size()).collect();
            let mut residual = Residual::new(dim);
            let r = comm.rank() as u32;
            let mut g = vec![0.0f32; dim];
            // Overlapping coordinate 0 plus a unique one per rank.
            g[0] = 0.5 + r as f32 * 0.1;
            g[(r + 1) as usize] = 1.0 + r as f32;
            let update = agg.aggregate(comm, &members, &mut residual, &g, k).unwrap();
            (g, update, residual.dense().to_vec())
        });
        let mut contributed = vec![0.0f64; dim];
        let mut recovered = vec![0.0f64; dim];
        for (r, (g, update, res)) in out.iter().enumerate() {
            for (c, &v) in contributed.iter_mut().zip(g.iter()) {
                *c += v as f64;
            }
            for (rec, &v) in recovered.iter_mut().zip(res.iter()) {
                *rec += v as f64;
            }
            if r == 0 {
                match update {
                    Update::Sparse(sv) => {
                        for (i, v) in sv.iter() {
                            recovered[i as usize] += v as f64 * p as f64;
                        }
                    }
                    other => panic!("expected sparse, got {other:?}"),
                }
            }
        }
        for i in 0..dim {
            assert!(
                (contributed[i] - recovered[i]).abs() < 1e-4,
                "coord {i}: contributed {} vs recovered {}",
                contributed[i],
                recovered[i]
            );
        }
    }

    #[test]
    fn plain_gtopk_drops_mass_in_the_loss_corner() {
        // The same accounting applied to the plain aggregator shows the
        // leak (coordinate proposed by two subtrees, truncated in one).
        let p = 4usize;
        let dim = 8usize;
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let mut agg = Aggregator::new(Algorithm::GTopK);
            let members: Vec<usize> = (0..comm.size()).collect();
            let mut residual = Residual::new(dim);
            let mut g = vec![0.0f32; dim];
            match comm.rank() {
                0 => g[1] = 1.0,
                1 => g[2] = 1.1,
                2 => g[1] = 5.0,
                _ => g[3] = 0.2,
            }
            let update = agg.aggregate(comm, &members, &mut residual, &g, 1).unwrap();
            (g, update, residual.dense().to_vec())
        });
        let mut contributed = 0.0f64;
        let mut recovered = 0.0f64;
        for (r, (g, update, res)) in out.iter().enumerate() {
            contributed += g.iter().map(|&v| v as f64).sum::<f64>();
            recovered += res.iter().map(|&v| v as f64).sum::<f64>();
            if r == 0 {
                if let Update::Sparse(sv) = update {
                    recovered += sv.values().iter().map(|&v| v as f64).sum::<f64>() * p as f64;
                }
            }
        }
        // Worker 0's 1.0 on coordinate 1 vanished (truncated at an
        // interior merge while coordinate 1 still won globally).
        assert!(
            (contributed - recovered - 1.0).abs() < 1e-5,
            "expected exactly 1.0 lost: contributed {contributed} recovered {recovered}"
        );
    }

    #[test]
    fn algorithm_metadata() {
        assert_eq!(Algorithm::ALL.len(), 8);
        assert_eq!(Algorithm::GTopK.name(), "gTop-k");
        assert_eq!(Algorithm::OkTopk.name(), "Ok-Topk");
        assert_eq!(Algorithm::SparDl.name(), "SparDL");
        let recovers = |alg: Algorithm| alg.row().caps.recovery;
        assert!(recovers(Algorithm::GTopK));
        assert!(!recovers(Algorithm::Dense));
        assert!(!recovers(Algorithm::NaiveGTopK));
        assert!(!recovers(Algorithm::OkTopk));
        assert!(!recovers(Algorithm::SparDl));
    }

    #[test]
    fn zoo_aggregators_conserve_gradient_mass_exactly() {
        // Same accounting as the feedback aggregator: sum of all
        // contributed gradients == P x (averaged update) + sum of all
        // residuals — here it must hold even though the zoo budgets can
        // drop entries mid-collective, because every drop is witnessed
        // back into the dropping rank's residual.
        for alg in [Algorithm::OkTopk, Algorithm::SparDl] {
            let p = 8usize;
            let dim = 32usize;
            let k = 4usize;
            let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
                let mut agg = Aggregator::new(alg);
                let members: Vec<usize> = (0..comm.size()).collect();
                let mut residual = Residual::new(dim);
                let g = worker_grad(comm.rank(), dim);
                let update = agg.aggregate(comm, &members, &mut residual, &g, k).unwrap();
                (g, update, residual.dense().to_vec())
            });
            let mut contributed = vec![0.0f64; dim];
            let mut recovered = vec![0.0f64; dim];
            for (r, (g, update, res)) in out.iter().enumerate() {
                for (c, &v) in contributed.iter_mut().zip(g.iter()) {
                    *c += v as f64;
                }
                for (rec, &v) in recovered.iter_mut().zip(res.iter()) {
                    *rec += v as f64;
                }
                if r == 0 {
                    match update {
                        Update::Sparse(sv) => {
                            for (i, v) in sv.iter() {
                                recovered[i as usize] += v as f64 * p as f64;
                            }
                        }
                        other => panic!("expected sparse, got {other:?}"),
                    }
                }
            }
            for i in 0..dim {
                assert!(
                    (contributed[i] - recovered[i]).abs() < 1e-4,
                    "{} coord {i}: contributed {} vs recovered {}",
                    alg.name(),
                    contributed[i],
                    recovered[i]
                );
            }
        }
    }

    #[test]
    fn zoo_update_respects_schedule_budget() {
        for (alg, sched_of) in [
            (
                Algorithm::OkTopk,
                ZooSchedule::oktopk as fn(usize, usize) -> ZooSchedule,
            ),
            (Algorithm::SparDl, ZooSchedule::spardl),
        ] {
            let p = 8usize;
            let k = 5usize;
            let sched = sched_of(p, k);
            let cap = sched.region_slots * 8; // p2 regions
            let out = run_algorithm(alg, p, 64, k);
            match &out[0].0 {
                Update::Sparse(sv) => {
                    assert!(sv.nnz() <= cap, "{}: {} > {cap}", alg.name(), sv.nnz());
                }
                other => panic!("expected sparse update, got {other:?}"),
            }
        }
    }
}
