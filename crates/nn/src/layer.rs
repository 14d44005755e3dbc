use gtopk_tensor::Tensor;

/// A neural-network layer with explicit forward/backward passes and
/// contiguous parameter storage.
///
/// Parameters and their gradients live in flat `Vec<f32>` buffers inside
/// each layer so the whole model can be viewed as one flat vector — the
/// representation the paper's sparsification operates on.
///
/// The contract:
///
/// * `forward` caches whatever it needs for the next `backward`;
/// * `backward` consumes the gradient w.r.t. the layer's *output*,
///   **accumulates** gradients w.r.t. its parameters, and returns the
///   gradient w.r.t. its *input*;
/// * a `backward` must follow the corresponding `forward` (one-shot
///   caches);
/// * [`Layer::backward_params`] is `backward` for a caller that drops the
///   input gradient: the same parameter gradients, bit for bit, the same
///   cache consumed, and no input gradient computed where a layer can
///   skip it;
/// * gradients accumulate across calls until [`Layer::zero_grads`].
///
/// Leaf layers implement [`Layer::params`], [`Layer::params_mut`],
/// [`Layer::grads`] and [`Layer::param_grad_mut`] over their own buffers;
/// *container* layers (e.g. [`crate::ResidualBlock`],
/// [`crate::Sequential`]) instead override the two `for_each_param_buf`
/// visitors to recurse into children, and the flat-vector plumbing in
/// [`crate::Model`] is built on the visitors alone.
pub trait Layer: Send {
    /// Human-readable layer name (for debugging and model summaries).
    fn name(&self) -> &'static str;

    /// Runs the layer on `input`, returning its output. `train` toggles
    /// training-time behaviour (e.g. batch statistics in BatchNorm).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_out` (gradient w.r.t. the forward output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the forward input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called without a preceding `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// [`Layer::backward`] without its result: accumulates exactly the
    /// parameter gradients `backward` would and consumes the same cache,
    /// but need not compute the gradient w.r.t. the input.
    /// [`crate::Model::backward`] calls it on a network's first layer,
    /// whose input is the data. The default runs `backward` and drops
    /// the input gradient.
    ///
    /// # Panics
    ///
    /// Wherever `backward` would.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// Flat view of trainable parameters (leaf layers; empty otherwise).
    fn params(&self) -> &[f32] {
        &[]
    }

    /// Mutable flat view of trainable parameters (leaf layers).
    fn params_mut(&mut self) -> &mut [f32] {
        &mut []
    }

    /// Flat view of accumulated parameter gradients, parallel to
    /// [`Layer::params`] (leaf layers).
    fn grads(&self) -> &[f32] {
        &[]
    }

    /// Simultaneous mutable access to parameters and gradients (leaf
    /// layers store them as separate buffers, so this is borrow-safe).
    fn param_grad_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut [], &mut [])
    }

    /// Visits every `(params, grads)` buffer pair, recursing into nested
    /// layers. The default visits this layer's own buffers only.
    fn for_each_param_buf(&self, f: &mut dyn FnMut(&[f32], &[f32])) {
        f(self.params(), self.grads());
    }

    /// Mutable variant of [`Layer::for_each_param_buf`].
    fn for_each_param_buf_mut(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        let (p, g) = self.param_grad_mut();
        f(p, g);
    }

    /// Number of trainable parameters (including nested layers).
    fn param_len(&self) -> usize {
        let mut n = 0;
        self.for_each_param_buf(&mut |p, _| n += p.len());
        n
    }

    /// Zeroes accumulated gradients (including nested layers).
    fn zero_grads(&mut self) {
        self.for_each_param_buf_mut(&mut |_, g| g.iter_mut().for_each(|x| *x = 0.0));
    }
}

/// Copies all (possibly nested) parameters of a layer into one flat
/// vector, in visitation order.
pub(crate) fn collect_params(layer: &dyn Layer) -> Vec<f32> {
    let mut out = Vec::with_capacity(layer.param_len());
    layer.for_each_param_buf(&mut |p, _| out.extend_from_slice(p));
    out
}

/// Copies all (possibly nested) gradients of a layer into one flat vector.
pub(crate) fn collect_grads(layer: &dyn Layer) -> Vec<f32> {
    let mut out = Vec::with_capacity(layer.param_len());
    layer.for_each_param_buf(&mut |_, g| out.extend_from_slice(g));
    out
}

/// Writes `values` over the layer's flat parameter vector.
///
/// # Panics
///
/// Panics if `values.len() != layer.param_len()`.
pub(crate) fn scatter_params(layer: &mut dyn Layer, values: &[f32]) {
    assert_eq!(
        values.len(),
        layer.param_len(),
        "parameter vector length mismatch"
    );
    let mut pos = 0usize;
    layer.for_each_param_buf_mut(&mut |p, _| {
        p.copy_from_slice(&values[pos..pos + p.len()]);
        pos += p.len();
    });
    assert_eq!(pos, values.len(), "parameter vector length mismatch");
}

/// Adds `delta` into the layer's flat parameter vector.
///
/// # Panics
///
/// Panics if `delta.len() != layer.param_len()`.
pub(crate) fn add_to_params(layer: &mut dyn Layer, delta: &[f32]) {
    assert_eq!(
        delta.len(),
        layer.param_len(),
        "parameter vector length mismatch"
    );
    let mut pos = 0usize;
    layer.for_each_param_buf_mut(&mut |p, _| {
        for v in p.iter_mut() {
            *v += delta[pos];
            pos += 1;
        }
    });
    assert_eq!(pos, delta.len(), "parameter vector length mismatch");
}

/// Sets a single flat-indexed parameter; returns the previous value.
///
/// # Panics
///
/// Panics if `idx >= layer.param_len()`.
pub(crate) fn set_param_at(layer: &mut dyn Layer, idx: usize, value: f32) -> f32 {
    let mut pos = 0usize;
    let mut prev = None;
    layer.for_each_param_buf_mut(&mut |p, _| {
        if prev.is_none() && idx < pos + p.len() {
            prev = Some(p[idx - pos]);
            p[idx - pos] = value;
        }
        pos += p.len();
    });
    prev.unwrap_or_else(|| panic!("parameter index {idx} out of range"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtopk_tensor::Shape;

    /// A minimal stateless layer exercising the default methods.
    struct Identity;
    impl Layer for Identity {
        fn name(&self) -> &'static str {
            "identity"
        }
        fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
            input.clone()
        }
        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
        }
    }

    struct TwoParams {
        params: Vec<f32>,
        grads: Vec<f32>,
    }
    impl Layer for TwoParams {
        fn name(&self) -> &'static str {
            "two-params"
        }
        fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
            input.clone()
        }
        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
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

    #[test]
    fn default_methods_for_stateless_layer() {
        let mut id = Identity;
        assert_eq!(id.param_len(), 0);
        assert!(id.params().is_empty());
        id.zero_grads(); // no-op, must not panic
        let x = Tensor::full(Shape::d1(3), 2.0);
        assert_eq!(id.forward(&x, true), x);
        assert_eq!(id.backward(&x), x);
    }

    #[test]
    fn flat_helpers_roundtrip() {
        let mut l = TwoParams {
            params: vec![1.0, 2.0, 3.0],
            grads: vec![0.1, 0.2, 0.3],
        };
        assert_eq!(collect_params(&l), vec![1.0, 2.0, 3.0]);
        assert_eq!(collect_grads(&l), vec![0.1, 0.2, 0.3]);
        scatter_params(&mut l, &[9.0, 8.0, 7.0]);
        assert_eq!(l.params(), &[9.0, 8.0, 7.0]);
        add_to_params(&mut l, &[1.0, 1.0, 1.0]);
        assert_eq!(l.params(), &[10.0, 9.0, 8.0]);
        let prev = set_param_at(&mut l, 1, 0.5);
        assert_eq!(prev, 9.0);
        assert_eq!(l.params(), &[10.0, 0.5, 8.0]);
        l.zero_grads();
        assert_eq!(l.grads(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_param_out_of_range_panics() {
        let mut l = Identity;
        let _ = set_param_at(&mut l, 0, 1.0);
    }

    #[test]
    fn layer_trait_is_object_safe() {
        let boxed: Box<dyn Layer> = Box::new(Identity);
        assert_eq!(boxed.name(), "identity");
    }
}
