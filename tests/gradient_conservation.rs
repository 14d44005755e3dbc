//! Property test: **no gradient is ever lost** by the feedback variant,
//! even across a shrink-and-continue membership change.
//!
//! For gTop-k with merge feedback, every extracted value either lands in
//! the applied global update or returns to *someone's* residual, so per
//! aggregation round the cluster-wide mass balance holds coordinate-wise:
//!
//! ```text
//! Σ_members (residual_in + gradient)  ==  Σ_members residual_out + global
//! ```
//!
//! where `global` is the unscaled aggregate (each member applies
//! `global / |members|`, so the applied total is exactly `global`). The
//! test checks the balance on the full membership, then removes a rank
//! (as recovery would after a crash), bumps the epoch, and checks it
//! again over the survivors — the shrunken collective must be equally
//! lossless, over the whole vector and bucket by bucket alike.

use gtopk::gtopk_all_reduce_over;
use gtopk_comm::{Cluster, CostModel};
use gtopk_sparse::{Residual, SparseVec};

const DIM: usize = 48;
const K: usize = 5;

/// (mass entering the round, mass left in the residual, unscaled global).
type RoundOut = (Vec<f32>, Vec<f32>, SparseVec);

fn grad(rank: usize, dim: usize, seed: u64) -> Vec<f32> {
    (0..dim)
        .map(|i| {
            let h = (i as u64 + 1)
                .wrapping_mul(rank as u64 * 7 + seed * 13 + 3)
                .wrapping_mul(0x2545_f491_4f6c_dd1d);
            ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

/// One feedback-discipline aggregation round over `members`, one
/// collective per bucket of the `DIM` vector (`residuals.len()` equal
/// buckets, top first, as the overlap engine runs them); returns (mass
/// entering the round, mass left in the residuals, unscaled global).
fn round(
    comm: &mut gtopk_comm::Communicator,
    members: &[usize],
    residuals: &mut [Residual],
    g: &[f32],
) -> (Vec<f32>, Vec<f32>, SparseVec) {
    let n = residuals.len();
    let (mut mass_in, mut mass_out) = (vec![0.0; DIM], vec![0.0; DIM]);
    let mut applied = Vec::new();
    for (b, residual) in residuals.iter_mut().enumerate().rev() {
        let range = b * DIM / n..(b + 1) * DIM / n;
        residual.accumulate(&g[range.clone()]);
        mass_in[range.clone()].copy_from_slice(residual.dense());
        let local = residual.extract_topk(K);
        let (global, gmask, tree_rejects) =
            gtopk_all_reduce_over(comm, members, local.clone(), K).unwrap();
        // The trainer's put-back discipline (see
        // `Rejects::PutBackOwnAndWitnessed`).
        let (_kept, rejected) = local.partition_by(&gmask);
        residual.put_back(&rejected);
        let (lost_but_selected, _owner_covered) = tree_rejects.partition_by(&gmask);
        residual.put_back(&lost_but_selected);
        mass_out[range.clone()].copy_from_slice(residual.dense());
        applied.extend(global.iter().map(|(i, v)| (i + range.start as u32, v)));
    }
    (mass_in, mass_out, SparseVec::from_pairs(DIM, applied))
}

/// Asserts `Σ mass_in == Σ mass_out + global` coordinate-wise.
fn assert_balance(label: &str, ins: &[Vec<f32>], outs: &[Vec<f32>], global: &SparseVec) {
    let applied = global.to_dense();
    for c in 0..DIM {
        let mass_in: f64 = ins.iter().map(|v| v[c] as f64).sum();
        let mass_out: f64 = outs.iter().map(|v| v[c] as f64).sum::<f64>() + applied[c] as f64;
        assert!(
            (mass_in - mass_out).abs() < 1e-4,
            "{label}: coordinate {c} lost mass: {mass_in} != {mass_out}"
        );
    }
}

#[test]
fn feedback_conserves_gradient_mass_across_a_membership_shrink() {
    for buckets in [1usize, 2] {
        feedback_conserves_mass_across_a_shrink(buckets);
    }
}

fn feedback_conserves_mass_across_a_shrink(buckets: usize) {
    const P: usize = 5;
    const DEAD: usize = 2;
    for seed in 0..12u64 {
        let full: Vec<usize> = (0..P).collect();
        let survivors: Vec<usize> = (0..P).filter(|&r| r != DEAD).collect();
        let out: Vec<(RoundOut, Option<RoundOut>)> =
            Cluster::new(P, CostModel::zero()).run(|comm| {
                let rank = comm.rank();
                let mut residuals: Vec<Residual> = (0..buckets)
                    .map(|b| Residual::new((b + 1) * DIM / buckets - b * DIM / buckets))
                    .collect();
                let r1 = round(comm, &full, &mut residuals, &grad(rank, DIM, seed));
                if rank == DEAD {
                    // This rank "dies" between rounds: its residual mass
                    // leaves with it, exactly as a real crash loses it.
                    return (r1, None);
                }
                // Survivors continue shrunken, in the next epoch — the
                // same transition `recover()` performs after a crash.
                comm.set_epoch(1);
                let r2 = round(
                    comm,
                    &survivors,
                    &mut residuals,
                    &grad(rank, DIM, seed + 1000),
                );
                (r1, Some(r2))
            });

        // Round 1: balance over the full membership.
        let ins: Vec<Vec<f32>> = out.iter().map(|(r1, _)| r1.0.clone()).collect();
        let outs: Vec<Vec<f32>> = out.iter().map(|(r1, _)| r1.1.clone()).collect();
        assert_balance(
            &format!("{buckets} buckets, seed {seed}, full P={P}"),
            &ins,
            &outs,
            &out[0].0 .2,
        );

        // Round 2: balance over the survivors only.
        let r2: Vec<&RoundOut> = out.iter().filter_map(|(_, r2)| r2.as_ref()).collect();
        assert_eq!(r2.len(), P - 1);
        let ins: Vec<Vec<f32>> = r2.iter().map(|r| r.0.clone()).collect();
        let outs: Vec<Vec<f32>> = r2.iter().map(|r| r.1.clone()).collect();
        let what = format!("{buckets} buckets, seed {seed}, shrunk");
        assert_balance(&what, &ins, &outs, &r2[0].2);

        // The survivors all applied the same round-2 global.
        for r in &r2 {
            assert_eq!(r.2, r2[0].2, "{what}: survivors disagree on the global");
        }
    }
}
