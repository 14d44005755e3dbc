use crate::Layer;
use gtopk_tensor::{
    kaiming_uniform, matmul_at_flat_acc, matmul_bt_flat, matmul_flat, Shape, Tensor,
};
use rand::Rng;

/// Fully-connected layer: `y = x·Wᵀ + b` with `W: [out, in]`.
///
/// Parameters are stored as one contiguous buffer `[W | b]` so the model's
/// flat gradient vector is a simple concatenation.
///
/// # Examples
///
/// ```
/// use gtopk_nn::{Layer, Linear};
/// use gtopk_tensor::{Shape, Tensor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut fc = Linear::new(&mut rng, 4, 2);
/// let x = Tensor::zeros(Shape::d2(3, 4));
/// let y = fc.forward(&x, true);
/// assert_eq!(y.shape().dims(), &[3, 2]);
/// ```
pub struct Linear {
    in_features: usize,
    out_features: usize,
    /// `[W (out·in) | b (out)]`
    params: Vec<f32>,
    grads: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rng: &mut impl Rng, in_features: usize, out_features: usize) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "dimensions must be positive"
        );
        let mut params = kaiming_uniform(rng, out_features * in_features, in_features);
        params.extend(std::iter::repeat_n(0.0, out_features));
        let n = params.len();
        Linear {
            in_features,
            out_features,
            params,
            grads: vec![0.0; n],
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    fn weight(&self) -> &[f32] {
        &self.params[..self.out_features * self.in_features]
    }

    fn bias(&self) -> &[f32] {
        &self.params[self.out_features * self.in_features..]
    }

    /// Accumulates `dW` and `db` from the cached input, which it consumes
    /// and returns.
    fn backprop_params(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("backward called without forward");
        let batch = input.shape().dim(0);
        assert_eq!(grad_out.len(), batch * self.out_features);
        let (nin, nout) = (self.in_features, self.out_features);
        // dW[o, i] += sum_b dy[b, o] * x[b, i]  ==  dYᵀ · X
        let (wg, bg) = self.grads.split_at_mut(nout * nin);
        matmul_at_flat_acc(grad_out.data(), input.data(), wg, batch, nout, nin);
        for row in grad_out.data().chunks_exact(nout) {
            for (g, &d) in bg.iter_mut().zip(row) {
                *g += d;
            }
        }
        input
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let batch = input.shape().dim(0);
        assert_eq!(
            input.len(),
            batch * self.in_features,
            "linear input shape mismatch"
        );
        let mut out = Tensor::zeros(Shape::d2(batch, self.out_features));
        // y[b, o] = sum_i x[b, i] * W[o, i]  ==  X · Wᵀ
        matmul_bt_flat(
            input.data(),
            self.weight(),
            out.data_mut(),
            batch,
            self.in_features,
            self.out_features,
        );
        for row in out.data_mut().chunks_exact_mut(self.out_features) {
            for (o, &bb) in row.iter_mut().zip(self.bias()) {
                *o += bb;
            }
        }
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.backprop_params(grad_out);
        // dX = dY · W
        let mut grad_in = Tensor::zeros(input.shape().clone());
        matmul_flat(
            grad_out.data(),
            self.weight(),
            grad_in.data_mut(),
            input.shape().dim(0),
            self.out_features,
            self.in_features,
        );
        grad_in
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backprop_params(grad_out);
    }

    fn params(&self) -> &[f32] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    fn grads(&self) -> &[f32] {
        &self.grads
    }

    fn param_grad_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.params, &mut self.grads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut fc = Linear::new(&mut rng, 2, 2);
        // Overwrite with known weights: W = [[1, 2], [3, 4]], b = [10, 20].
        fc.params_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 10.0, 20.0]);
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![1.0, 1.0]).unwrap();
        let y = fc.forward(&x, true);
        assert_eq!(y.data(), &[13.0, 27.0]);
    }

    #[test]
    fn param_layout_is_weight_then_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let fc = Linear::new(&mut rng, 3, 2);
        assert_eq!(fc.param_len(), 3 * 2 + 2);
        // Bias initialized to zero.
        assert_eq!(fc.bias(), &[0.0, 0.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Linear::new(&mut rng, 3, 4);
        check_layer_gradients(Box::new(layer), Shape::d2(2, 3), 1e-2, 42);
    }

    #[test]
    fn gradients_accumulate_across_batches() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut fc = Linear::new(&mut rng, 2, 1);
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![1.0, 2.0]).unwrap();
        let dy = Tensor::from_vec(Shape::d2(1, 1), vec![1.0]).unwrap();
        fc.forward(&x, true);
        fc.backward(&dy);
        let g1 = fc.grads().to_vec();
        fc.forward(&x, true);
        fc.backward(&dy);
        for (a, b) in fc.grads().iter().zip(g1.iter()) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
        fc.zero_grads();
        assert!(fc.grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    #[should_panic(expected = "backward called without forward")]
    fn backward_params_consumes_the_forward_cache() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut fc = Linear::new(&mut rng, 2, 2);
        fc.forward(&Tensor::zeros(Shape::d2(1, 2)), true);
        let dy = Tensor::zeros(Shape::d2(1, 2));
        fc.backward_params(&dy);
        fc.backward_params(&dy);
    }

    #[test]
    #[should_panic(expected = "backward called without forward")]
    fn backward_without_forward_panics() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut fc = Linear::new(&mut rng, 2, 2);
        let dy = Tensor::zeros(Shape::d2(1, 2));
        let _ = fc.backward(&dy);
    }
}
