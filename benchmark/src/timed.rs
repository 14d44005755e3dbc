//! Observing the product's training loop from outside: a [`Model`]
//! wrapper that timestamps every training `forward()` (the loop makes
//! exactly one per step) and fingerprints the final parameters.

use gtopk_nn::Model;
use gtopk_tensor::Tensor;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Order-sensitive 64-bit fingerprint of a parameter vector's bits
/// (FNV-1a over 32-bit words): equal exactly when replicas are
/// bit-identical, up to hash collisions.
pub fn fingerprint(params: &[f32]) -> u64 {
    params.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the wrapper of one replica observed.
#[derive(Debug)]
pub struct Replica {
    /// When each training `forward()` began, one per step.
    pub step_starts: Vec<Instant>,
    /// When the loop asked for the final parameters — the end of the
    /// replica's last step.
    pub end: Instant,
    /// Fingerprint of those parameters.
    pub fingerprint: u64,
}

/// Shared sink of one training run's [`Timed`] replicas. The wrappers
/// cannot know their ranks; replicas are kept in completion order.
#[derive(Debug, Default)]
pub struct StepClock {
    done: Mutex<Vec<Replica>>,
}

impl StepClock {
    /// A fresh sink.
    pub fn new() -> Arc<Self> {
        Arc::new(StepClock::default())
    }

    /// Wraps `model`.
    pub fn wrap<M: Model>(self: &Arc<Self>, model: M) -> Timed<M> {
        Timed {
            inner: model,
            clock: Arc::clone(self),
            step_starts: Vec::new(),
        }
    }

    /// Takes the replicas that have finished so far.
    pub fn take(&self) -> Vec<Replica> {
        std::mem::take(&mut self.done.lock().expect("no panic while observing"))
    }
}

/// A [`Model`] that delegates every method to `M` unchanged.
#[derive(Debug)]
pub struct Timed<M> {
    inner: M,
    clock: Arc<StepClock>,
    step_starts: Vec<Instant>,
}

impl<M: Model> Model for Timed<M> {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.step_starts.push(Instant::now());
        }
        self.inner.forward(input, train)
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        self.inner.backward(grad_logits);
    }

    fn zero_grads(&mut self) {
        self.inner.zero_grads();
    }

    fn flat_grads(&self) -> Vec<f32> {
        self.inner.flat_grads()
    }

    /// The training loop reads the parameters back once, when it ends.
    fn flat_params(&self) -> Vec<f32> {
        let end = Instant::now();
        let params = self.inner.flat_params();
        let replica = Replica {
            step_starts: self.step_starts.clone(),
            end,
            fingerprint: fingerprint(&params),
        };
        self.clock
            .done
            .lock()
            .expect("no panic while observing")
            .push(replica);
        params
    }

    fn set_flat_params(&mut self, values: &[f32]) {
        self.inner.set_flat_params(values);
    }

    fn add_to_flat_params(&mut self, delta: &[f32]) {
        self.inner.add_to_flat_params(delta);
    }

    fn param_segments(&self) -> Vec<usize> {
        self.inner.param_segments()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtopk_data::{Dataset, GaussianMixture};
    use gtopk_nn::{models, softmax_cross_entropy, MomentumSgd};

    fn train_20_steps(model: &mut dyn Model) -> u64 {
        let data = GaussianMixture::new(3, 80, 16, 4, 2.5, 0.5);
        let mut opt = MomentumSgd::new(model.num_params(), 0.05, 0.9);
        for step in 0..20 {
            let idx: Vec<usize> = (step * 4..step * 4 + 4).collect();
            let (x, ys) = data.batch(&idx);
            model.zero_grads();
            let logits = model.forward(&x, true);
            let (_, grad) = softmax_cross_entropy(&logits, &ys);
            model.backward(&grad);
            let g = model.flat_grads();
            opt.step_dense(model, &g);
        }
        fingerprint(&model.flat_params())
    }

    #[test]
    fn timed_delegates_every_method_unchanged() {
        let mut bare = models::mlp(7, 16, 32, 4);
        let clock = StepClock::new();
        let mut timed = clock.wrap(models::mlp(7, 16, 32, 4));
        assert_eq!(timed.num_params(), bare.num_params());
        assert_eq!(timed.param_segments(), bare.param_segments());
        assert_eq!(train_20_steps(&mut timed), train_20_steps(&mut bare));

        let seen = clock.take();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].step_starts.len(), 20);
        assert!(seen[0].end >= seen[0].step_starts[19]);
        assert_eq!(seen[0].fingerprint, fingerprint(&bare.flat_params()));

        let values = vec![0.25; bare.num_params()];
        timed.set_flat_params(&values);
        timed.add_to_flat_params(&values);
        assert!(timed.flat_params().iter().all(|&v| v == 0.5));
    }

    #[test]
    fn every_replica_reports_its_training_steps_only() {
        let clock = StepClock::new();
        let mut a = clock.wrap(models::logistic(0, 2, 2));
        let mut b = clock.wrap(models::logistic(0, 2, 2));
        let x = Tensor::zeros(gtopk_tensor::Shape::d2(1, 2));
        b.forward(&x, true);
        a.forward(&x, true);
        a.forward(&x, false); // evaluation passes are not steps
        b.flat_params();
        a.flat_params();
        let steps: Vec<usize> = clock.take().iter().map(|r| r.step_starts.len()).collect();
        assert_eq!(steps, [1, 1]);
        assert!(clock.take().is_empty());
    }
}
