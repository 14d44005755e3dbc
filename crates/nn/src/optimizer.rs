use crate::Model;
use gtopk_sparse::SparseVec;
use std::iter::repeat;
use std::ops::Range;

/// Coordinates per window of [`MomentumSgd::step_range`]: a window's
/// velocity and delta (32 KiB) stay in cache across its three passes,
/// and its support — at most this many entries — is staged in 16 KiB of
/// stack.
const SPARSE_WINDOW: usize = 4096;

/// Momentum SGD over the model's flat parameter vector:
/// `v ← μ·v + g`, `W ← W − η·v` — the paper trains every model with
/// momentum 0.9 (§IV-A).
///
/// The gradient `g` may be dense (the S-SGD baseline) or sparse (the
/// aggregated gTop-k / Top-k update), over the whole vector or over one
/// contiguous bucket of it; a sparse update runs the dense step's
/// arithmetic with `g = 0.0` off its support, so velocity semantics are
/// identical across algorithms and bucketings.
///
/// The range forms write `−η·v` into a caller's buffer and leave the
/// parameters alone (the overlap engine passes the spent gradient and
/// adds it once per step); the whole-vector forms run them over `0..m`.
#[derive(Debug, Clone)]
pub struct MomentumSgd {
    velocity: Vec<f32>,
    /// `−η·v` of a whole-vector step. Allocated zeroed and written only
    /// by those, so a run of range steps never makes its pages resident.
    scratch: Vec<f32>,
    lr: f32,
    momentum: f32,
}

impl MomentumSgd {
    /// Creates an optimizer for a model of `num_params` parameters.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive-finite or `momentum ∉ [0, 1)`.
    pub fn new(num_params: usize, lr: f32, momentum: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        MomentumSgd {
            velocity: vec![0.0; num_params],
            scratch: vec![0.0; num_params],
            lr,
            momentum,
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// The momentum buffer (for durable checkpoint serialization).
    pub fn velocity(&self) -> &[f32] {
        &self.velocity
    }

    /// Overwrites the momentum buffer from a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `velocity.len()` differs from the parameter count.
    pub fn set_velocity(&mut self, velocity: &[f32]) {
        assert_eq!(
            velocity.len(),
            self.velocity.len(),
            "velocity length mismatch"
        );
        self.velocity.copy_from_slice(velocity);
    }

    /// Replaces the learning rate (for warmup / decay schedules).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive-finite.
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// Applies a dense gradient step.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len()` differs from the model's parameter count.
    pub fn step_dense(&mut self, model: &mut dyn Model, grad: &[f32]) {
        let mut delta = std::mem::take(&mut self.scratch);
        self.step_dense_range(0..self.velocity.len(), grad, &mut delta);
        model.add_to_flat_params(&delta);
        self.scratch = delta;
    }

    /// [`MomentumSgd::step_dense`] of a contiguous sub-range (bucket) of
    /// the parameter vector, without touching the parameters: `grad[i]`
    /// is the gradient of flat parameter `range.start + i`, and `delta[i]`
    /// receives the `−η·v` the dense step would add into it.
    pub fn step_dense_range(&mut self, range: Range<usize>, grad: &[f32], delta: &mut [f32]) {
        assert_eq!(grad.len(), range.len(), "gradient length mismatch");
        self.advance(range, grad.iter().copied(), delta);
    }

    /// Applies a sparse aggregated gradient step (gTop-k / Top-k updates):
    /// [`MomentumSgd::step_range`] over the whole vector.
    pub fn step_sparse(&mut self, model: &mut dyn Model, grad: &SparseVec) {
        let mut delta = std::mem::take(&mut self.scratch);
        self.step_range(0..self.velocity.len(), grad, &mut delta);
        model.add_to_flat_params(&delta);
        self.scratch = delta;
    }

    /// [`MomentumSgd::step_dense_range`] of `grad.to_dense()`, bit for
    /// bit — signed zeros and denormals included — without building that
    /// vector. `grad` is bucket-local (stored index `i` is flat parameter
    /// `range.start + i`), and so is `delta`. Over disjoint buckets
    /// covering the vector, one call per bucket followed by one
    /// `add_to_flat_params` of the deltas is bit for bit one
    /// [`MomentumSgd::step_dense`] of the scattered update — how the
    /// overlap engine applies each step.
    ///
    /// The coordinates are taken in windows of 4096 (`SPARSE_WINDOW`). Per
    /// window, `μ·v[i] + g` is staged on the stack for each support entry
    /// in it, the dense step's `g = 0.0` arithmetic runs as one
    /// vectorisable pass over the whole window, and the support entries'
    /// `v[i]` and `−η·v[i]` are then overwritten with the staged values —
    /// the same floats, `+ 0.0` off the support included, with no call per
    /// gap, no heap buffer, and a window small enough to stay in cache
    /// between the staging reads and the overwrite.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the parameter count or its length
    /// differs from `grad.dim()` or `delta.len()`.
    pub fn step_range(&mut self, range: Range<usize>, grad: &SparseVec, delta: &mut [f32]) {
        assert_eq!(grad.dim(), range.len(), "gradient dim mismatch");
        assert_eq!(delta.len(), range.len(), "delta length mismatch");
        let (mu, lr, base) = (self.momentum, self.lr, range.start);
        let (mut idx, mut vals) = (grad.indices(), grad.values());
        let mut staged = [0.0f32; SPARSE_WINDOW];
        for lo in range.clone().step_by(SPARSE_WINDOW) {
            let hi = (lo + SPARSE_WINDOW).min(range.end);
            // Indices are unique, so at most a window's width fall in it.
            let n =
                idx[..idx.len().min(SPARSE_WINDOW)].partition_point(|&i| base + (i as usize) < hi);
            let (window_idx, rest_idx) = idx.split_at(n);
            let (window_vals, rest_vals) = vals.split_at(n);
            for ((s, &i), &g) in staged.iter_mut().zip(window_idx).zip(window_vals) {
                *s = mu * self.velocity[base + i as usize] + g;
            }
            self.advance(lo..hi, repeat(0.0), &mut delta[lo - base..hi - base]);
            for (&s, &i) in staged.iter().zip(window_idx) {
                self.velocity[base + i as usize] = s;
                delta[i as usize] = -lr * s;
            }
            (idx, vals) = (rest_idx, rest_vals);
        }
    }

    /// `v ← μ·v + g`, `delta ← −η·v` over `range` (`delta` is the range's
    /// slice); `grad` yields the range's per-coordinate gradient.
    fn advance(&mut self, range: Range<usize>, grad: impl Iterator<Item = f32>, delta: &mut [f32]) {
        assert_eq!(delta.len(), range.len(), "delta length mismatch");
        let (mu, lr) = (self.momentum, self.lr);
        for ((v, d), g) in self.velocity[range].iter_mut().zip(delta).zip(grad) {
            *v = mu * *v + g;
            *d = -lr * *v;
        }
    }

    /// Resets accumulated velocity (e.g. between experiment phases).
    pub fn reset(&mut self) {
        self.velocity.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{models, Model};
    use gtopk_sparse::SparseVec;

    fn tiny_model() -> Box<dyn Model> {
        Box::new(models::logistic(0, 2, 2))
    }

    #[test]
    fn dense_step_moves_against_gradient() {
        let mut model = tiny_model();
        let before = model.flat_params();
        let mut opt = MomentumSgd::new(model.num_params(), 0.1, 0.0);
        let grad = vec![1.0; model.num_params()];
        opt.step_dense(model.as_mut(), &grad);
        for (a, b) in model.flat_params().iter().zip(before.iter()) {
            assert!((a - (b - 0.1)).abs() < 1e-6);
        }
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut model = tiny_model();
        let n = model.num_params();
        let before = model.flat_params();
        let mut opt = MomentumSgd::new(n, 1.0, 0.5);
        let grad = vec![1.0; n];
        opt.step_dense(model.as_mut(), &grad); // v=1, W -= 1
        opt.step_dense(model.as_mut(), &grad); // v=1.5, W -= 1.5
        for (a, b) in model.flat_params().iter().zip(before.iter()) {
            assert!((a - (b - 2.5)).abs() < 1e-5);
        }
    }

    #[test]
    fn sparse_step_equals_dense_of_scattered() {
        let mut m1 = tiny_model();
        let mut m2 = tiny_model();
        assert_eq!(m1.flat_params(), m2.flat_params());
        let n = m1.num_params();
        let sv = SparseVec::from_pairs(n, vec![(1, 0.5), (3, -0.25)]);
        let mut o1 = MomentumSgd::new(n, 0.1, 0.9);
        let mut o2 = MomentumSgd::new(n, 0.1, 0.9);
        o1.step_sparse(m1.as_mut(), &sv);
        o2.step_dense(m2.as_mut(), &sv.to_dense());
        assert_eq!(m1.flat_params(), m2.flat_params());
        // A second step reuses the scratch buffer.
        o1.step_sparse(m1.as_mut(), &sv);
        o2.step_dense(m2.as_mut(), &sv.to_dense());
        assert_eq!(m1.flat_params(), m2.flat_params());
    }

    /// Steps disjoint `buckets` (ranges with their bucket-local updates)
    /// the way the overlap engine does: each range's delta into its slice
    /// of one m-vector, then one add into the parameters. A coordinate no
    /// bucket covers holds `−0.0`, the additive identity.
    fn step_buckets(
        opt: &mut MomentumSgd,
        model: &mut dyn Model,
        buckets: &[(Range<usize>, &SparseVec)],
    ) {
        let mut delta = vec![-0.0; model.num_params()];
        for (range, update) in buckets {
            opt.step_range(range.clone(), update, &mut delta[range.clone()]);
        }
        model.add_to_flat_params(&delta);
    }

    /// The bucket-local slice of `sv` over `range`.
    fn local(sv: &SparseVec, range: &Range<usize>) -> SparseVec {
        SparseVec::from_pairs(
            range.len(),
            sv.iter()
                .filter(|&(i, _)| range.contains(&(i as usize)))
                .map(|(i, v)| (i - range.start as u32, v))
                .collect(),
        )
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Parameters and velocity of both replicas agree bit for bit.
    fn assert_same_bits(
        (m1, o1): (&dyn Model, &MomentumSgd),
        (m2, o2): (&dyn Model, &MomentumSgd),
        at: &str,
    ) {
        assert_eq!(bits(o1.velocity()), bits(o2.velocity()), "velocity {at}");
        assert_eq!(
            bits(&m1.flat_params()),
            bits(&m2.flat_params()),
            "params {at}"
        );
    }

    #[test]
    fn sparse_step_is_bitwise_the_dense_step_through_underflow() {
        // One kick of either sign on coordinates the steady update never
        // touches again: their velocities decay μ× per step into the
        // denormals. At μ = 0.9 they stick there (0.9·4 ulp rounds back
        // to 4 ulp); at μ = 0.5 the last product rounds to ∓0.0, which
        // the dense step's `+ 0.0` turns into +0.0.
        for (momentum, ends_at_zero) in [(0.9, false), (0.5, true)] {
            let mut m1: Box<dyn Model> = Box::new(models::logistic(0, 16, 4));
            let mut m2: Box<dyn Model> = Box::new(models::logistic(0, 16, 4));
            let n = m1.num_params();
            let mut o1 = MomentumSgd::new(n, 0.05, momentum);
            let mut o2 = MomentumSgd::new(n, 0.05, momentum);
            let kicked = [0, 1, n / 2, n - 1];
            let kick = SparseVec::from_pairs(
                n,
                kicked
                    .iter()
                    .zip([-1.0e-3, 2.0e-3, -4.0, -1.0e-30])
                    .map(|(&i, g)| (i as u32, g))
                    .collect(),
            );
            let steady = SparseVec::from_pairs(
                n,
                (0..n as u32)
                    .filter(|i| i % 5 == 3)
                    .map(|i| (i, (i as f32 - 20.0) * 1.0e-2))
                    .collect(),
            );
            o1.step_sparse(m1.as_mut(), &kick);
            o2.step_dense(m2.as_mut(), &kick.to_dense());
            let mut saw_denormal = false;
            for step in 0..1600 {
                o1.step_sparse(m1.as_mut(), &steady);
                o2.step_dense(m2.as_mut(), &steady.to_dense());
                let at = format!("momentum {momentum} step {step}");
                assert_same_bits((m1.as_ref(), &o1), (m2.as_ref(), &o2), &at);
                saw_denormal |= o1.velocity()[0] != 0.0 && !o1.velocity()[0].is_normal();
            }
            assert!(saw_denormal, "momentum {momentum}: never went denormal");
            for i in kicked {
                let v = o1.velocity()[i];
                assert!(!v.is_normal(), "momentum {momentum} coord {i}: {v:e}");
                assert_eq!(v.to_bits() == 0, ends_at_zero, "coord {i}: {v:e}");
            }
        }
    }

    #[test]
    fn sparse_step_interleaves_with_range_and_dense_steps() {
        // Replica 1 takes `step_sparse`, replica 2 the dense step of the
        // scattered update; every other call is the same on both. A
        // `step_sparse` whose scratch leaked into a range step, or a range
        // step that wrote outside its own slice, would show here.
        let mut m1: Box<dyn Model> = Box::new(models::logistic(0, 16, 4));
        let mut m2: Box<dyn Model> = Box::new(models::logistic(0, 16, 4));
        let n = m1.num_params();
        let mut o1 = MomentumSgd::new(n, 0.1, 0.9);
        let mut o2 = MomentumSgd::new(n, 0.1, 0.9);
        let mid = n / 3;
        let sparse = |salt: u32| {
            SparseVec::from_pairs(
                n,
                (0..n as u32)
                    .filter(|i| (i + salt).is_multiple_of(4))
                    .map(|i| (i, ((i * 7 + salt) % 13) as f32 - 6.0))
                    .collect(),
            )
        };
        let bucket = SparseVec::from_pairs(n - mid, vec![(0, 0.5), ((n - mid) as u32 - 1, -1.5)]);
        let dense: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
        for (round, op) in [0, 1, 0, 2, 1, 0, 0, 2, 0, 1, 1, 0].into_iter().enumerate() {
            match op {
                0 => {
                    o1.step_sparse(m1.as_mut(), &sparse(round as u32));
                    o2.step_dense(m2.as_mut(), &sparse(round as u32).to_dense());
                }
                1 => {
                    step_buckets(&mut o1, m1.as_mut(), &[(mid..n, &bucket)]);
                    step_buckets(&mut o2, m2.as_mut(), &[(mid..n, &bucket)]);
                }
                _ => {
                    o1.step_dense(m1.as_mut(), &dense);
                    o2.step_dense(m2.as_mut(), &dense);
                }
            }
            assert_same_bits(
                (m1.as_ref(), &o1),
                (m2.as_ref(), &o2),
                &format!("round {round}"),
            );
        }
        // The empty update is a pure decay; the full one touches every
        // coordinate.
        let full = SparseVec::from_pairs(n, (0..n as u32).map(|i| (i, 0.25)).collect());
        for sv in [SparseVec::empty(n), full] {
            o1.step_sparse(m1.as_mut(), &sv);
            o2.step_dense(m2.as_mut(), &sv.to_dense());
            assert_same_bits((m1.as_ref(), &o1), (m2.as_ref(), &o2), "edge update");
        }
    }

    #[test]
    fn windowed_sparse_step_is_bitwise_the_dense_step_across_windows() {
        // 20 000 parameters: five windows, some full, supports touching
        // both ends of the vector, with −0.0, +0.0, denormal and signed
        // gradients, plus the full and the empty update. A third replica
        // steps three buckets whose starts are off the window grid.
        let mut m1: Box<dyn Model> = Box::new(models::logistic(3, 4999, 4));
        let mut m2: Box<dyn Model> = Box::new(models::logistic(3, 4999, 4));
        let mut m3: Box<dyn Model> = Box::new(models::logistic(3, 4999, 4));
        let n = m1.num_params();
        assert!(n > 4 * SPARSE_WINDOW, "needs several windows: {n}");
        let mut o1 = MomentumSgd::new(n, 0.05, 0.9);
        let mut o2 = MomentumSgd::new(n, 0.05, 0.9);
        let mut o3 = MomentumSgd::new(n, 0.05, 0.9);
        let ranges = [2 * n / 3..n, n / 3..2 * n / 3, 0..n / 3];
        let special = [-0.0, 0.0, 1.0e-40, -1.0e-40, 3.5, -2.25];
        let update = |every: u32, salt: u32| {
            SparseVec::from_pairs(
                n,
                (0..n as u32)
                    .filter(|i| *i == 0 || *i == n as u32 - 1 || (i + salt).is_multiple_of(every))
                    .map(|i| (i, special[((i * 7 + salt) % 6) as usize]))
                    .collect(),
            )
        };
        let updates = [
            update(1, 0),
            update(3, 1),
            update(2, 5),
            SparseVec::empty(n),
            update(997, 2),
            update(1, 4),
            update(5, 3),
        ];
        for (step, sv) in updates.iter().enumerate() {
            o1.step_sparse(m1.as_mut(), sv);
            o2.step_dense(m2.as_mut(), &sv.to_dense());
            assert_same_bits(
                (m1.as_ref(), &o1),
                (m2.as_ref(), &o2),
                &format!("step {step}"),
            );
            let locals: Vec<SparseVec> = ranges.iter().map(|r| local(sv, r)).collect();
            let buckets: Vec<_> = ranges.iter().cloned().zip(&locals).collect();
            step_buckets(&mut o3, m3.as_mut(), &buckets);
            assert_same_bits(
                (m3.as_ref(), &o3),
                (m2.as_ref(), &o2),
                &format!("bucketed step {step}"),
            );
        }
    }

    #[test]
    fn lr_can_be_rescheduled() {
        let mut opt = MomentumSgd::new(4, 0.1, 0.9);
        opt.set_lr(0.01);
        assert!((opt.lr() - 0.01).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn invalid_momentum_rejected() {
        let _ = MomentumSgd::new(4, 0.1, 1.0);
    }

    #[test]
    fn per_bucket_steps_equal_one_full_sparse_step() {
        // Split a sparse update into disjoint bucket-local pieces; applying
        // them via step_range (in any bucket order) and adding the deltas
        // once must reproduce
        // step_sparse bit-for-bit — the overlap engine relies on this.
        let mut m1 = tiny_model();
        let mut m2 = tiny_model();
        let n = m1.num_params();
        assert!(n >= 4, "test needs a few params");
        let mid = n / 2;
        let full = SparseVec::from_pairs(n, vec![(0, 0.5), (1, -0.25), (n as u32 - 1, 1.5)]);
        let mut o1 = MomentumSgd::new(n, 0.1, 0.9);
        let mut o2 = MomentumSgd::new(n, 0.1, 0.9);
        for step in 0..3 {
            o1.step_sparse(m1.as_mut(), &full);
            // Bucket-local pieces of the same update.
            let lowb = SparseVec::from_pairs(mid, vec![(0, 0.5), (1, -0.25)]);
            let highb = SparseVec::from_pairs(n - mid, vec![((n - mid) as u32 - 1, 1.5)]);
            // Back-to-front, as the overlap engine applies them.
            step_buckets(&mut o2, m2.as_mut(), &[(mid..n, &highb), (0..mid, &lowb)]);
            assert_eq!(m1.flat_params(), m2.flat_params(), "step {step}");
        }
    }

    #[test]
    fn bucketed_step_range_is_bitwise_the_dense_step() {
        // Replica 1 applies each update bucket by bucket (back to front,
        // as the overlap engine does), replica 2 as one dense step of the
        // scattered update. At μ = 0.5 a kicked velocity decays through
        // the denormals until `μ·v` rounds to ∓0.0, which the dense
        // step's `+ 0.0` turns into +0.0; −0.0 and denormal gradients ride
        // in every update, supports touch coordinates 0 and m − 1, one
        // bucket's slice of the steady update is empty, and a dense step
        // every few rounds writes the full-width scratch buffer.
        let special = [-0.0, 0.0, 1.0e-40, -1.0e-40, 3.5, -2.25];
        for buckets in [1usize, 2, 3] {
            let mut m1: Box<dyn Model> = Box::new(models::logistic(0, 16, 4));
            let mut m2: Box<dyn Model> = Box::new(models::logistic(0, 16, 4));
            let n = m1.num_params();
            let cuts: Vec<usize> = (0..=buckets).map(|b| b * n / buckets).collect();
            let ranges: Vec<Range<usize>> = cuts.windows(2).rev().map(|w| w[0]..w[1]).collect();
            let mut o1 = MomentumSgd::new(n, 0.05, 0.5);
            let mut o2 = MomentumSgd::new(n, 0.05, 0.5);
            let kick = SparseVec::from_pairs(
                n,
                vec![
                    (0, -3.0e-38),
                    (1, 2.0e-38),
                    (n as u32 / 2, -1.0),
                    (n as u32 - 1, -2.0),
                ],
            );
            // Off the middle third, so with three buckets one is empty.
            let steady = |salt: u32| {
                SparseVec::from_pairs(
                    n,
                    (2..n as u32 - 1)
                        .filter(|&i| {
                            (i < n as u32 / 3 || i >= 2 * n as u32 / 3) && i % 4 == salt % 4
                        })
                        .map(|i| (i, special[((i + salt) % 6) as usize]))
                        .collect(),
                )
            };
            let dense: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 1.0e-3).collect();
            let mut went_denormal = false;
            for step in 0..60u32 {
                let sv = if step == 0 {
                    kick.clone()
                } else {
                    steady(step)
                };
                if step % 7 == 3 {
                    o1.step_dense(m1.as_mut(), &dense);
                    o2.step_dense(m2.as_mut(), &dense);
                }
                let locals: Vec<SparseVec> = ranges.iter().map(|r| local(&sv, r)).collect();
                let pieces: Vec<_> = ranges.iter().cloned().zip(&locals).collect();
                step_buckets(&mut o1, m1.as_mut(), &pieces);
                o2.step_dense(m2.as_mut(), &sv.to_dense());
                let at = format!("{buckets} buckets, step {step}");
                assert_same_bits((m1.as_ref(), &o1), (m2.as_ref(), &o2), &at);
                went_denormal |= o1.velocity()[0] != 0.0 && !o1.velocity()[0].is_normal();
            }
            assert!(went_denormal, "{buckets} buckets: never went denormal");
            assert_eq!(o1.velocity()[0].to_bits(), 0, "decayed to +0.0");
        }
    }

    #[test]
    fn step_range_after_dense_step_is_clean() {
        // step_dense leaves a full-width scratch; a following step_range
        // must not leak it into untouched coordinates.
        let mut model = tiny_model();
        let n = model.num_params();
        let mut opt = MomentumSgd::new(n, 1.0, 0.0);
        opt.step_dense(model.as_mut(), &vec![1.0; n]);
        let before = model.flat_params();
        // Empty bucket update on [0, 1): nothing may move anywhere.
        step_buckets(&mut opt, model.as_mut(), &[(0..1, &SparseVec::empty(1))]);
        assert_eq!(model.flat_params(), before);
    }

    #[test]
    fn reset_clears_velocity() {
        let mut model = tiny_model();
        let n = model.num_params();
        let mut opt = MomentumSgd::new(n, 1.0, 0.9);
        opt.step_dense(model.as_mut(), &vec![1.0; n]);
        opt.reset();
        let before = model.flat_params();
        // With zero gradient and zero velocity, nothing moves.
        opt.step_dense(model.as_mut(), &vec![0.0; n]);
        assert_eq!(model.flat_params(), before);
    }
}
