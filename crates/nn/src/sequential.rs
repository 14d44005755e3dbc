use crate::layer::{add_to_params, collect_grads, collect_params, scatter_params};
use crate::Layer;
use gtopk_tensor::Tensor;
use std::borrow::Cow;

/// A trainable network exposed as one flat parameter/gradient vector.
///
/// The paper's algorithms operate on the *whole-model* gradient vector of
/// size `m` (selecting `k = ρ·m` of its entries); this trait is that
/// boundary between the NN substrate and the distributed optimizer.
pub trait Model: Send {
    /// Total number of trainable parameters `m`.
    fn num_params(&self) -> usize;

    /// Forward pass: maps an input batch to logits.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backward pass from the loss gradient w.r.t. the logits;
    /// accumulates parameter gradients. No gradient w.r.t. the input
    /// batch is computed where it can be skipped.
    fn backward(&mut self, grad_logits: &Tensor);

    /// Zeroes accumulated gradients.
    fn zero_grads(&mut self);

    /// The accumulated gradient as one flat vector of length
    /// [`Model::num_params`].
    fn flat_grads(&self) -> Vec<f32>;

    /// Current parameters as one flat vector.
    fn flat_params(&self) -> Vec<f32>;

    /// Overwrites all parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.num_params()`.
    fn set_flat_params(&mut self, values: &[f32]);

    /// Adds `delta` element-wise into the parameters (the optimizer's
    /// update step applies `-lr·velocity` through this).
    ///
    /// # Panics
    ///
    /// Panics if `delta.len() != self.num_params()`.
    fn add_to_flat_params(&mut self, delta: &[f32]);

    /// Sizes of the contiguous per-layer segments of the flat parameter
    /// vector, in flat (forward) order; their sum is
    /// [`Model::num_params`]. Backward produces gradients for the *last*
    /// segment first, which is what lets the overlap engine ship early
    /// buckets while later layers are still computing. Models without
    /// layer structure report one segment covering everything.
    fn param_segments(&self) -> Vec<usize> {
        if self.num_params() == 0 {
            return Vec::new();
        }
        vec![self.num_params()]
    }
}

/// A chain of layers executed in order.
///
/// `Sequential` is itself a [`Layer`], so blocks can nest; it also
/// implements [`Model`].
///
/// # Examples
///
/// ```
/// use gtopk_nn::{Linear, Relu, Sequential, Model};
/// use gtopk_tensor::{Shape, Tensor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Linear::new(&mut rng, 4, 8));
/// net.push(Relu::new());
/// net.push(Linear::new(&mut rng, 8, 2));
/// let y = Model::forward(&mut net, &Tensor::zeros(Shape::d2(1, 4)), true);
/// assert_eq!(y.shape().dims(), &[1, 2]);
/// assert_eq!(net.num_params(), 4 * 8 + 8 + 8 * 2 + 2);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty container.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Appends a boxed layer (for dynamically built networks).
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` if the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer names in execution order (model summary).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

impl Layer for Sequential {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = Cow::Borrowed(input);
        for layer in &mut self.layers {
            x = Cow::Owned(layer.forward(&x, train));
        }
        x.into_owned()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = Cow::Borrowed(grad_out);
        for layer in self.layers.iter_mut().rev() {
            g = Cow::Owned(layer.backward(&g));
        }
        g.into_owned()
    }

    /// Backpropagates through every layer but the first, then runs the
    /// first layer's [`Layer::backward_params`].
    fn backward_params(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = Cow::Borrowed(grad_out);
        for layer in rest.iter_mut().rev() {
            g = Cow::Owned(layer.backward(&g));
        }
        first.backward_params(&g);
    }

    fn for_each_param_buf(&self, f: &mut dyn FnMut(&[f32], &[f32])) {
        for layer in &self.layers {
            layer.for_each_param_buf(f);
        }
    }

    fn for_each_param_buf_mut(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        for layer in &mut self.layers {
            layer.for_each_param_buf_mut(f);
        }
    }
}

impl Model for Sequential {
    fn num_params(&self) -> usize {
        self.param_len()
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        Layer::forward(self, input, train)
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        self.backward_params(grad_logits);
    }

    fn zero_grads(&mut self) {
        Layer::zero_grads(self);
    }

    fn flat_grads(&self) -> Vec<f32> {
        collect_grads(self)
    }

    fn flat_params(&self) -> Vec<f32> {
        collect_params(self)
    }

    fn set_flat_params(&mut self, values: &[f32]) {
        scatter_params(self, values);
    }

    fn add_to_flat_params(&mut self, delta: &[f32]) {
        add_to_params(self, delta);
    }

    fn param_segments(&self) -> Vec<usize> {
        self.layers
            .iter()
            .filter_map(|l| {
                let mut n = 0usize;
                l.for_each_param_buf(&mut |p, _| n += p.len());
                (n > 0).then_some(n)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use crate::{Linear, Relu};
    use gtopk_tensor::Shape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Linear::new(&mut rng, 3, 5));
        net.push(Relu::new());
        net.push(Linear::new(&mut rng, 5, 2));
        net
    }

    #[test]
    fn forward_backward_chain() {
        let mut net = small_net(0);
        let x = Tensor::full(Shape::d2(2, 3), 0.5);
        let y = Layer::forward(&mut net, &x, true);
        assert_eq!(y.shape().dims(), &[2, 2]);
        let dx = Layer::backward(&mut net, &Tensor::full(Shape::d2(2, 2), 1.0));
        assert_eq!(dx.shape().dims(), &[2, 3]);
    }

    #[test]
    fn gradcheck_composite() {
        check_layer_gradients(Box::new(small_net(1)), Shape::d2(2, 3), 2e-2, 66);
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut net = small_net(2);
        let p = net.flat_params();
        assert_eq!(p.len(), net.num_params());
        let doubled: Vec<f32> = p.iter().map(|v| v * 2.0).collect();
        net.set_flat_params(&doubled);
        assert_eq!(net.flat_params(), doubled);
        let delta = vec![1.0; p.len()];
        net.add_to_flat_params(&delta);
        for (after, before) in net.flat_params().iter().zip(doubled.iter()) {
            assert!((after - before - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_flat_params_validates_length() {
        let mut net = small_net(3);
        net.set_flat_params(&[0.0; 3]);
    }

    #[test]
    fn two_replicas_same_seed_are_identical() {
        // The distributed trainers rely on all P workers constructing
        // bit-identical replicas from a shared seed.
        let a = small_net(7);
        let b = small_net(7);
        assert_eq!(a.flat_params(), b.flat_params());
    }

    #[test]
    fn param_segments_cover_flat_vector_per_layer() {
        let net = small_net(5);
        // linear(3→5) = 20, relu = 0 (skipped), linear(5→2) = 12.
        assert_eq!(net.param_segments(), vec![20, 12]);
        assert_eq!(net.param_segments().iter().sum::<usize>(), net.num_params());
    }

    #[test]
    fn layer_names_summary() {
        let net = small_net(4);
        assert_eq!(net.layer_names(), vec!["linear", "relu", "linear"]);
        assert_eq!(net.len(), 3);
        assert!(!net.is_empty());
    }
}
