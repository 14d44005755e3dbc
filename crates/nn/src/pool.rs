//! Pooling and reshaping layers.

use crate::Layer;
use gtopk_tensor::{simd, Shape, Tensor};

/// Max pooling over `[N, C, H, W]` with a square window and equal stride.
#[derive(Debug)]
pub struct MaxPool2d {
    k: usize,
    /// The last forward's input shape, until a backward consumes it.
    in_shape: Option<Shape>,
    /// Flat input index of each output's maximum (grow-only).
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a `k×k` max pool with stride `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "pool window must be positive");
        MaxPool2d {
            k,
            in_shape: None,
            argmax: Vec::new(),
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    /// Each output is its window's first strict maximum in `(dy, dx)`
    /// order, from `(-∞, the window's first element)`: a tie keeps the
    /// earlier element and NaN never wins, so a window of only NaN and
    /// `-∞` outputs `-∞` and routes its gradient to its first element.
    ///
    /// The scan is [`simd::max_pool`]: at AVX2, 2×2 windows over planes of
    /// even height and a width that is a multiple of 8 (vgg-lite's first
    /// pool) or is 4 (its second) run four windows at a time — one
    /// `permutevar8x32` deals each load's elements into the windows'
    /// `(dy, dx)` positions, then a compare, a value blend and an index
    /// blend per position; every other shape, and the scalar level, runs
    /// one branch-free loop per window. Both write the same bits.
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let dims = input.shape().dims();
        assert_eq!(dims.len(), 4, "maxpool expects [N, C, H, W]");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let k = self.k;
        assert!(h >= k && w >= k, "input smaller than pool window");
        let mut out = Tensor::zeros(Shape::d4(n, c, h / k, w / k));
        self.argmax.resize(out.len(), 0);
        simd::max_pool(input.data(), (h, w), k, out.data_mut(), &mut self.argmax);
        self.in_shape = Some(input.shape().clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_shape = self
            .in_shape
            .take()
            .expect("backward called without forward");
        assert_eq!(grad_out.len(), self.argmax.len());
        let mut grad_in = Tensor::zeros(in_shape);
        for (&src, &g) in self.argmax.iter().zip(grad_out.data()) {
            grad_in.data_mut()[src] += g;
        }
        grad_in
    }
}

/// Average pooling over `[N, C, H, W]` with a square window and equal
/// stride.
#[derive(Debug)]
pub struct AvgPool2d {
    k: usize,
    cached_shape: Option<Shape>,
}

impl AvgPool2d {
    /// Creates a `k×k` average pool with stride `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "pool window must be positive");
        AvgPool2d {
            k,
            cached_shape: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> &'static str {
        "avgpool2d"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let dims = input.shape().dims();
        assert_eq!(dims.len(), 4, "avgpool expects [N, C, H, W]");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let k = self.k;
        assert!(h >= k && w >= k, "input smaller than pool window");
        let (oh, ow) = (h / k, w / k);
        let inv = 1.0 / (k * k) as f32;
        let mut out = Tensor::zeros(Shape::d4(n, c, oh, ow));
        for s in 0..n {
            for ci in 0..c {
                let plane_off = (s * c + ci) * h * w;
                let out_off = (s * c + ci) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut sum = 0.0f32;
                        for dy in 0..k {
                            for dx in 0..k {
                                sum += input.data()[plane_off + (oy * k + dy) * w + ox * k + dx];
                            }
                        }
                        out.data_mut()[out_off + oy * ow + ox] = sum * inv;
                    }
                }
            }
        }
        self.cached_shape = Some(input.shape().clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_shape = self
            .cached_shape
            .take()
            .expect("backward called without forward");
        let dims = in_shape.dims().to_vec();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let k = self.k;
        let (oh, ow) = (h / k, w / k);
        let inv = 1.0 / (k * k) as f32;
        let mut grad_in = Tensor::zeros(in_shape);
        for s in 0..n {
            for ci in 0..c {
                let plane_off = (s * c + ci) * h * w;
                let out_off = (s * c + ci) * oh * ow;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad_out.data()[out_off + oy * ow + ox] * inv;
                        for dy in 0..k {
                            for dx in 0..k {
                                grad_in.data_mut()[plane_off + (oy * k + dy) * w + ox * k + dx] +=
                                    g;
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }
}

/// Global average pooling: `[N, C, H, W] → [N, C]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    cached_shape: Option<Shape>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { cached_shape: None }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> &'static str {
        "global-avg-pool"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let dims = input.shape().dims();
        assert_eq!(dims.len(), 4, "gap expects [N, C, H, W]");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let hw = h * w;
        assert!(hw > 0, "empty spatial plane");
        let mut out = Tensor::zeros(Shape::d2(n, c));
        for s in 0..n {
            for ci in 0..c {
                let off = (s * c + ci) * hw;
                let sum: f32 = input.data()[off..off + hw].iter().sum();
                out.data_mut()[s * c + ci] = sum / hw as f32;
            }
        }
        self.cached_shape = Some(input.shape().clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_shape = self
            .cached_shape
            .take()
            .expect("backward called without forward");
        let dims = in_shape.dims().to_vec();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let hw = h * w;
        let mut grad_in = Tensor::zeros(in_shape);
        for s in 0..n {
            for ci in 0..c {
                let g = grad_out.data()[s * c + ci] / hw as f32;
                let off = (s * c + ci) * hw;
                for v in &mut grad_in.data_mut()[off..off + hw] {
                    *v = g;
                }
            }
        }
        grad_in
    }
}

/// Flattens `[N, ...] → [N, rest]` (also used to fold `[B, S, H]` into
/// `[B·S, H]` when `fold_time` is set, for per-timestep projections in
/// language models).
#[derive(Debug, Default)]
pub struct Flatten {
    fold_time: bool,
    cached_shape: Option<Shape>,
}

impl Flatten {
    /// `[N, d1, d2, ...] → [N, d1·d2·…]`.
    pub fn new() -> Self {
        Flatten {
            fold_time: false,
            cached_shape: None,
        }
    }

    /// `[B, S, H] → [B·S, H]` — merges batch and time axes instead.
    pub fn fold_time() -> Self {
        Flatten {
            fold_time: true,
            cached_shape: None,
        }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let dims = input.shape().dims().to_vec();
        self.cached_shape = Some(input.shape().clone());
        let out_shape = if self.fold_time {
            assert_eq!(dims.len(), 3, "fold_time expects [B, S, H]");
            Shape::d2(dims[0] * dims[1], dims[2])
        } else {
            let rest: usize = dims[1..].iter().product();
            Shape::d2(dims[0], rest)
        };
        input
            .clone()
            .reshape(out_shape)
            .expect("flatten preserves volume")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_shape = self
            .cached_shape
            .take()
            .expect("backward called without forward");
        grad_out
            .clone()
            .reshape(in_shape)
            .expect("flatten backward preserves volume")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradients, check_layer_gradients_with_input};
    use gtopk_tensor::simd::SimdLevel;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn maxpool_picks_maxima() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            Shape::d4(1, 1, 2, 4),
            vec![1.0, 5.0, 2.0, 0.0, 3.0, -1.0, 7.0, 2.0],
        )
        .unwrap();
        let y = pool.forward(&x, true);
        assert_eq!(y.shape().dims(), &[1, 1, 1, 2]);
        assert_eq!(y.data(), &[5.0, 7.0]);
        let dy = Tensor::from_vec(Shape::d4(1, 1, 1, 2), vec![1.0, 2.0]).unwrap();
        let dx = pool.backward(&dy);
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0]);
    }

    /// Sample 1's bottom-right window (flat indices 26, 27, 30, 31) is all
    /// NaN: it outputs `-∞` and its gradient lands on its own first
    /// element, 26, not on sample 0's pixel 0.
    #[test]
    fn an_all_nan_window_routes_its_gradient_inside_the_window() {
        let nan_window = [26, 27, 30, 31];
        let data: Vec<f32> = (0..32)
            .map(|i| {
                if nan_window.contains(&i) {
                    f32::NAN
                } else {
                    i as f32
                }
            })
            .collect();
        let mut pool = MaxPool2d::new(2);
        let y = pool.forward(
            &Tensor::from_vec(Shape::d4(2, 1, 4, 4), data).unwrap(),
            true,
        );
        assert_eq!(
            y.data(),
            &[5.0, 7.0, 13.0, 15.0, 21.0, 23.0, 29.0, f32::NEG_INFINITY]
        );
        let dy: Vec<f32> = (1..=8).map(|g| g as f32).collect();
        let dx = pool.backward(&Tensor::from_vec(y.shape().clone(), dy).unwrap());
        let mut expect = [0.0f32; 32];
        for (src, g) in [5, 7, 13, 15, 21, 23, 29, 26].into_iter().zip(1..=8) {
            expect[src] = g as f32;
        }
        assert_eq!(dx.data(), &expect);
    }

    /// The branching loop the select replaced: per window, `v > best`
    /// from `(-∞, the window's first index)` in `(dy, dx)` order.
    fn oracle_maxpool(x: &Tensor, k: usize) -> (Vec<f32>, Vec<usize>) {
        let d = x.shape().dims();
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let (oh, ow) = (h / k, w / k);
        let (mut out, mut arg) = (Vec::new(), Vec::new());
        for plane in 0..n * c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let first = plane * h * w + oy * k * w + ox * k;
                    let (mut best, mut best_idx) = (f32::NEG_INFINITY, first);
                    for dy in 0..k {
                        for dx in 0..k {
                            let idx = plane * h * w + (oy * k + dy) * w + ox * k + dx;
                            if x.data()[idx] > best {
                                best = x.data()[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    out.push(best);
                    arg.push(best_idx);
                }
            }
        }
        (out, arg)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The forward outputs the branching loop's maxima bit for bit and
        /// routes the gradient to the same elements, at every SIMD level:
        /// windows of 1–3 over ragged planes, and 2×2 windows over planes
        /// 2–7 high and `w ∈ {2, 4, 6, 8, 10, 16}` wide — the AVX2
        /// row-pair kernels' shapes, an odd last row pair at `w = 4`, and
        /// the odd heights and other widths that fall back to the window
        /// loop. Values are NaN, `±0.0`, `±∞`, ties and finite values,
        /// and whole windows are often all NaN, all `-∞` or one tied
        /// value.
        #[test]
        fn prop_maxpool_is_the_branching_loop(
            (pool2, k, n, c) in (0usize..2, 1usize..=3, 1usize..=3, 1usize..=3),
            (h_extra, w_extra, wide, seed) in (0usize..6, 0usize..5, 0usize..6, 0u64..u64::MAX),
        ) {
            let (k, h, w) = if pool2 == 1 {
                (2, 2 + h_extra, [2, 4, 6, 8, 10, 16][wide])
            } else {
                (k, k + h_extra.min(4), k + w_extra)
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let palette = [f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1.0, -1.0];
            let mut data: Vec<f32> = (0..n * c * h * w)
                .map(|_| match rng.gen_range(0..10usize) {
                    i @ 0..=6 => palette[i],
                    _ => rng.gen_range(-2.0f32..2.0),
                })
                .collect();
            for plane in data.chunks_exact_mut(h * w) {
                for (oy, ox) in (0..h / k).flat_map(|oy| (0..w / k).map(move |ox| (oy, ox))) {
                    let fill = [f32::NAN, f32::NEG_INFINITY, 0.5][rng.gen_range(0..3usize)];
                    if rng.gen_range(0..4u32) == 0 {
                        for dy in 0..k {
                            let row = (oy * k + dy) * w + ox * k;
                            plane[row..row + k].fill(fill);
                        }
                    }
                }
            }
            let x = Tensor::from_vec(Shape::d4(n, c, h, w), data).unwrap();
            let (expect, expect_arg) = oracle_maxpool(&x, k);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            // Small distinct integers: the gradient shows where each output
            // went, and every sum of them is exact.
            let dy: Vec<f32> = (0..expect.len()).map(|i| (i % 20) as f32 + 1.0).collect();
            let mut expect_dx = vec![0.0f32; x.len()];
            for (&src, &g) in expect_arg.iter().zip(&dy) {
                expect_dx[src] += g;
            }
            for level in SimdLevel::ALL.into_iter().filter(|l| l.available()) {
                simd::with_simd_level(level, || {
                    let mut pool = MaxPool2d::new(k);
                    let y = pool.forward(&x, true);
                    assert_eq!(bits(y.data()), bits(&expect), "{level} {h}x{w} k={k}");
                    let dx = pool.backward(&Tensor::from_vec(y.shape().clone(), dy.clone()).unwrap());
                    assert_eq!(bits(dx.data()), bits(&expect_dx), "{level} {h}x{w} k={k}");
                });
            }
        }
    }

    #[test]
    fn maxpool_gradcheck() {
        // Max-pool is non-differentiable where two window elements tie, so a
        // random input can land within the finite-difference ε of a tie and
        // flip the argmax mid-probe. Use a fixed permutation input instead:
        // all 64 values are distinct with a minimum gap of 0.05, 50x the
        // gradcheck ε of 1e-3.
        let shape = Shape::d4(2, 2, 4, 4);
        let data: Vec<f32> = (0..shape.volume())
            .map(|i| ((i * 37) % 64) as f32 * 0.05 - 1.61)
            .collect();
        let x = Tensor::from_vec(shape, data).unwrap();
        check_layer_gradients_with_input(Box::new(MaxPool2d::new(2)), x, 2e-2, 21);
    }

    #[test]
    fn avgpool_averages_windows() {
        let mut pool = AvgPool2d::new(2);
        let x = Tensor::from_vec(
            Shape::d4(1, 1, 2, 4),
            vec![1.0, 3.0, 2.0, 0.0, 5.0, 7.0, 6.0, 8.0],
        )
        .unwrap();
        let y = pool.forward(&x, true);
        assert_eq!(y.data(), &[4.0, 4.0]);
        let dy = Tensor::from_vec(Shape::d4(1, 1, 1, 2), vec![4.0, 8.0]).unwrap();
        let dx = pool.backward(&dy);
        assert_eq!(dx.data(), &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn avgpool_gradcheck() {
        check_layer_gradients(Box::new(AvgPool2d::new(2)), Shape::d4(2, 2, 4, 4), 1e-2, 23);
    }

    #[test]
    fn gap_averages_planes() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::from_vec(Shape::d4(1, 2, 1, 2), vec![1.0, 3.0, 10.0, 20.0]).unwrap();
        let y = gap.forward(&x, true);
        assert_eq!(y.data(), &[2.0, 15.0]);
        let dy = Tensor::from_vec(Shape::d2(1, 2), vec![2.0, 4.0]).unwrap();
        let dx = gap.backward(&dy);
        assert_eq!(dx.data(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn gap_gradcheck() {
        check_layer_gradients(
            Box::new(GlobalAvgPool::new()),
            Shape::d4(2, 3, 3, 3),
            1e-2,
            22,
        );
    }

    #[test]
    fn flatten_and_fold_time_shapes() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(Shape::d4(2, 3, 4, 5));
        assert_eq!(f.forward(&x, true).shape().dims(), &[2, 60]);
        assert_eq!(
            f.backward(&Tensor::zeros(Shape::d2(2, 60))).shape().dims(),
            &[2, 3, 4, 5]
        );

        let mut ft = Flatten::fold_time();
        let x = Tensor::zeros(Shape::d3(2, 5, 7));
        assert_eq!(ft.forward(&x, true).shape().dims(), &[10, 7]);
        assert_eq!(
            ft.backward(&Tensor::zeros(Shape::d2(10, 7))).shape().dims(),
            &[2, 5, 7]
        );
    }

    #[test]
    fn pools_are_parameter_free() {
        assert_eq!(MaxPool2d::new(2).param_len(), 0);
        assert_eq!(GlobalAvgPool::new().param_len(), 0);
        assert_eq!(Flatten::new().param_len(), 0);
    }
}
