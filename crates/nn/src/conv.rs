//! 2-D convolution as im2col + GEMM over chunks of whole samples.
//!
//! # Chunked layout
//!
//! A batch is cut into chunks of `⌈MIN_COLS / (oh·ow)⌉` whole samples (the
//! last chunk may be partial), so every GEMM has at least `MIN_COLS` output
//! columns even where a layer's output plane is small. For a chunk of `ns`
//! samples the columns are laid out sample-major, `[ckk, ns·l]` with
//! `ckk = in_c·k·k` and `l = oh·ow`: sample `s`'s `l` columns sit at offset
//! `s·l` of every row. The chunk's im2col buffer (which backward reuses for
//! `dcols`) and `dY` buffer are allocated once per call and reused by every
//! chunk; nothing is cached from forward to backward (backward recomputes
//! im2col, as the per-sample code did), so memory stays flat in the batch
//! size.
//!
//! # Bitwise identity with the per-sample code
//!
//! Chunking only widens the GEMMs; every output element keeps the exact
//! sequence of roundings the one-sample-at-a-time loop performed:
//!
//! * **Forward.** `Y[oc, col] = Σ_p W[oc, p]·cols[p, col]` runs through
//!   [`matmul_flat`], which sums in ascending `p` from `+0.0` and skips
//!   `W[oc, p] == 0.0` — per column, independently of how many columns
//!   there are. The bias is added afterwards.
//! * **Input gradient.** `dcols = Wᵀ·dY` runs through
//!   [`matmul_at_flat_acc`] over the chunk, ascending `oc` with the same
//!   skip, again per column; col2im then scatters each sample in the
//!   `(ci, ky, kx, oy, ox)` order it always used.
//! * **Weight gradient.** Each sample's `dW_s[oc, p] = Σ_pos dY[oc, pos]·
//!   cols[p, pos]` stays one sequential chain from `+0.0` in ascending
//!   `pos`, and `grads += dW_s` sample by sample. To run that chain on SIMD
//!   lanes across `p`, the sample's cols block is transposed to `[l, ckk]`
//!   and `dW_s = dY_s·cols_t` is one [`simd::gemm_acc`] call from a zeroed
//!   `dW_s` that skips no product (the dot product it replaces skips
//!   none): the kernel holds a tile of `dW_s[oc, ·]` in registers while
//!   it walks `pos`, so each element's chain is untouched. One GEMM over the
//!   whole chunk would reassociate these sums across samples, so the
//!   weight gradient is the one product that stays per sample.

use crate::Layer;
use gtopk_tensor::{kaiming_uniform, matmul_at_flat_acc, matmul_flat, simd, Shape, Tensor};
use rand::Rng;

/// Minimum output columns per GEMM: a chunk holds `⌈MIN_COLS / l⌉`
/// samples.
const MIN_COLS: usize = 64;

/// 2-D convolution over `[N, C, H, W]` tensors via im2col + GEMM.
///
/// Weights are stored `[out_c, in_c·kh·kw]` followed by a bias of `out_c`,
/// as one contiguous parameter buffer. Forward and backward run their
/// GEMMs over chunks of whole samples, bitwise identical to a
/// one-sample-at-a-time loop (see the module docs).
///
/// # Examples
///
/// ```
/// use gtopk_nn::{Conv2d, Layer};
/// use gtopk_tensor::{Shape, Tensor};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(&mut rng, 3, 8, 3, 1, 1); // 3→8 channels, 3×3, stride 1, pad 1
/// let x = Tensor::zeros(Shape::d4(2, 3, 8, 8));
/// let y = conv.forward(&x, true);
/// assert_eq!(y.shape().dims(), &[2, 8, 8, 8]);
/// ```
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// `[W (out_c · in_c·k·k) | b (out_c)]`
    params: Vec<f32>,
    grads: Vec<f32>,
    cached_input: Option<Tensor>,
}

/// Shape of one forward/backward call: input `[n, c, h, w]` (`chw`
/// elements a sample), output planes `oh × ow` (`l` positions), `ckk`
/// im2col rows, and `chunk` samples per GEMM.
struct Geometry {
    n: usize,
    chw: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    l: usize,
    ckk: usize,
    chunk: usize,
}

impl Conv2d {
    /// Creates a square-kernel convolution.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_c`, `out_c`, `k`, `stride` is zero.
    pub fn new(
        rng: &mut impl Rng,
        in_c: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert!(
            in_c > 0 && out_c > 0 && k > 0 && stride > 0,
            "conv dims must be positive"
        );
        let fan_in = in_c * k * k;
        let mut params = kaiming_uniform(rng, out_c * fan_in, fan_in);
        params.extend(std::iter::repeat_n(0.0, out_c));
        let n = params.len();
        Conv2d {
            in_c,
            out_c,
            k,
            stride,
            pad,
            params,
            grads: vec![0.0; n],
            cached_input: None,
        }
    }

    /// Output spatial size for an input of spatial size `h`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the padded input.
    pub fn out_size(&self, h: usize) -> usize {
        let padded = h + 2 * self.pad;
        assert!(padded >= self.k, "kernel larger than padded input");
        (padded - self.k) / self.stride + 1
    }

    fn weight(&self) -> &[f32] {
        &self.params[..self.out_c * self.in_c * self.k * self.k]
    }

    fn geometry(&self, dims: &[usize]) -> Geometry {
        assert_eq!(dims.len(), 4, "conv2d expects [N, C, H, W]");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        assert_eq!(c, self.in_c, "channel mismatch");
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let l = oh * ow;
        Geometry {
            n,
            chw: c * h * w,
            h,
            w,
            oh,
            ow,
            l,
            ckk: self.in_c * self.k * self.k,
            chunk: MIN_COLS.div_ceil(l).min(n).max(1),
        }
    }

    /// im2col for one sample into columns `off..off + oh·ow` of the
    /// `[in_c·k·k, ld]` matrix `cols`. Entries the kernel reads from the
    /// padding are left untouched, so `cols` must arrive zeroed.
    fn im2col(&self, x: &[f32], g: &Geometry, cols: &mut [f32], ld: usize, off: usize) {
        let (c, k, s, p) = (self.in_c, self.k, self.stride, self.pad);
        let (h, w, oh, ow) = (g.h, g.w, g.oh, g.ow);
        for ci in 0..c {
            let plane = &x[ci * h * w..(ci + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ci * k * k + ky * k + kx) * ld + off;
                    for oy in 0..oh {
                        let iy = (oy * s + ky) as isize - p as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * s + kx) as isize - p as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            cols[row + oy * ow + ox] = plane[iy as usize * w + ix as usize];
                        }
                    }
                }
            }
        }
    }

    /// Scatter-add of one sample's columns `off..off + oh·ow` of the
    /// `[in_c·k·k, ld]` matrix `cols` back to its image (inverse of
    /// [`Self::im2col`]), in `(ci, ky, kx, oy, ox)` order.
    fn col2im(&self, cols: &[f32], ld: usize, off: usize, dx: &mut [f32], g: &Geometry) {
        let (c, k, s, p) = (self.in_c, self.k, self.stride, self.pad);
        let (h, w, oh, ow) = (g.h, g.w, g.oh, g.ow);
        for ci in 0..c {
            let plane = &mut dx[ci * h * w..(ci + 1) * h * w];
            for ky in 0..k {
                for kx in 0..k {
                    let row = (ci * k * k + ky * k + kx) * ld + off;
                    for oy in 0..oh {
                        let iy = (oy * s + ky) as isize - p as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for ox in 0..ow {
                            let ix = (ox * s + kx) as isize - p as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            plane[iy as usize * w + ix as usize] += cols[row + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }

    /// im2col of samples `s0..s0 + ns` of `x` into the zeroed-here
    /// `[ckk, ns·l]` prefix of `cols`; returns that prefix.
    fn im2col_chunk<'a>(
        &self,
        x: &[f32],
        g: &Geometry,
        s0: usize,
        ns: usize,
        cols: &'a mut [f32],
    ) -> &'a mut [f32] {
        let (chw, cb) = (g.chw, ns * g.l);
        let cols = &mut cols[..g.ckk * cb];
        cols.fill(0.0);
        for si in 0..ns {
            let xs = &x[(s0 + si) * chw..(s0 + si + 1) * chw];
            self.im2col(xs, g, cols, cb, si * g.l);
        }
        cols
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let g = self.geometry(input.shape().dims());
        let (oc_n, l, ckk) = (self.out_c, g.l, g.ckk);
        let mut out = Tensor::zeros(Shape::d4(g.n, oc_n, g.oh, g.ow));
        let mut cols = vec![0.0f32; ckk * g.chunk * l];
        let mut y = vec![0.0f32; oc_n * g.chunk * l];
        let bias = &self.params[oc_n * ckk..];
        for s0 in (0..g.n).step_by(g.chunk) {
            let ns = g.chunk.min(g.n - s0);
            let cb = ns * l;
            let cols = self.im2col_chunk(input.data(), &g, s0, ns, &mut cols);
            // Y [oc, ns·l] = W [oc, ckk] · cols [ckk, ns·l]
            let y = &mut y[..oc_n * cb];
            matmul_flat(self.weight(), cols, y, oc_n, ckk, cb);
            // Back to [n, oc, l], adding the bias per output channel.
            for si in 0..ns {
                for (oc, &b) in bias.iter().enumerate() {
                    let dst = ((s0 + si) * oc_n + oc) * l;
                    let src = &y[oc * cb + si * l..oc * cb + (si + 1) * l];
                    for (o, &v) in out.data_mut()[dst..dst + l].iter_mut().zip(src) {
                        *o = v + b;
                    }
                }
            }
        }
        self.cached_input = Some(input.clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("backward called without forward");
        let g = self.geometry(input.shape().dims());
        let (oc_n, l, ckk, chw) = (self.out_c, g.l, g.ckk, g.chw);
        assert_eq!(grad_out.len(), g.n * oc_n * l);

        let mut grad_in = Tensor::zeros(input.shape().clone());
        let mut cols = vec![0.0f32; ckk * g.chunk * l];
        let mut dy = vec![0.0f32; oc_n * g.chunk * l];
        let mut cols_t = vec![0.0f32; l * ckk];
        let mut dw = vec![0.0f32; oc_n * ckk];
        for s0 in (0..g.n).step_by(g.chunk) {
            let ns = g.chunk.min(g.n - s0);
            let cb = ns * l;
            let cols = self.im2col_chunk(input.data(), &g, s0, ns, &mut cols);
            let dy = &mut dy[..oc_n * cb];
            for si in 0..ns {
                let dys = &grad_out.data()[(s0 + si) * oc_n * l..(s0 + si + 1) * oc_n * l];
                // dY of the chunk as [oc, ns·l], for the input gradient.
                for oc in 0..oc_n {
                    dy[oc * cb + si * l..oc * cb + (si + 1) * l]
                        .copy_from_slice(&dys[oc * l..(oc + 1) * l]);
                }
                // dW_s [oc, ckk] = dY_s [oc, l] · cols_sᵀ: per (oc, p) one
                // chain over ascending pos from +0.0, run across p.
                for p in 0..ckk {
                    let row = &cols[p * cb + si * l..p * cb + (si + 1) * l];
                    for (pos, &v) in row.iter().enumerate() {
                        cols_t[pos * ckk + p] = v;
                    }
                }
                dw.fill(0.0);
                simd::gemm_acc(dys, &cols_t, &mut dw, oc_n, l, ckk, false);
                let (wg, bg) = self.grads.split_at_mut(oc_n * ckk);
                simd::axpy(wg, &dw);
                // db += per-channel sum of dY.
                for (oc, gb) in bg.iter_mut().enumerate() {
                    *gb += dys[oc * l..(oc + 1) * l].iter().sum::<f32>();
                }
            }
            // dcols [ckk, ns·l] = Wᵀ [ckk, oc] · dY [oc, ns·l], into the
            // chunk's cols buffer: the weight gradient is done with it.
            let dcols = cols;
            dcols.fill(0.0);
            matmul_at_flat_acc(self.weight(), dy, dcols, oc_n, ckk, cb);
            for si in 0..ns {
                let dxs = &mut grad_in.data_mut()[(s0 + si) * chw..(s0 + si + 1) * chw];
                self.col2im(dcols, cb, si * l, dxs, &g);
            }
        }
        grad_in
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
    use gtopk_tensor::parallel;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The one-sample-at-a-time forward the chunked path replaced: im2col
    /// and one GEMM per sample, then the bias.
    fn oracle_forward(conv: &Conv2d, input: &Tensor) -> Tensor {
        let g = conv.geometry(input.shape().dims());
        let (n, chw, l, ckk) = (g.n, g.chw, g.l, g.ckk);
        let mut out = Tensor::zeros(Shape::d4(n, conv.out_c, g.oh, g.ow));
        for s in 0..n {
            let xin = &input.data()[s * chw..(s + 1) * chw];
            let mut cols = vec![0.0f32; ckk * l];
            conv.im2col(xin, &g, &mut cols, l, 0);
            let yout = &mut out.data_mut()[s * conv.out_c * l..(s + 1) * conv.out_c * l];
            matmul_flat(conv.weight(), &cols, yout, conv.out_c, ckk, l);
        }
        let bias = conv.params[conv.out_c * ckk..].to_vec();
        for s in 0..n {
            for (oc, &b) in bias.iter().enumerate() {
                let off = (s * conv.out_c + oc) * l;
                for v in &mut out.data_mut()[off..off + l] {
                    *v += b;
                }
            }
        }
        out
    }

    /// The one-sample-at-a-time backward the chunked path replaced:
    /// `dW` by scalar dot products (one accumulator from `+0.0` in
    /// ascending `pos`, the chain `matmul_bt_flat` ran before it went
    /// through the tiled GEMM), `dcols` by one `matmul_at_flat_acc` and
    /// one col2im per sample. Accumulates into `grads` and returns the
    /// input gradient.
    fn oracle_backward(
        conv: &Conv2d,
        input: &Tensor,
        grad_out: &Tensor,
        grads: &mut [f32],
    ) -> Tensor {
        let g = conv.geometry(input.shape().dims());
        let (chw, l, ckk, oc_n) = (g.chw, g.l, g.ckk, conv.out_c);
        let mut grad_in = Tensor::zeros(input.shape().clone());
        let mut dw_tmp = vec![0.0f32; oc_n * ckk];
        for s in 0..g.n {
            let xin = &input.data()[s * chw..(s + 1) * chw];
            let mut cols = vec![0.0f32; ckk * l];
            conv.im2col(xin, &g, &mut cols, l, 0);
            let dy = &grad_out.data()[s * oc_n * l..(s + 1) * oc_n * l];
            for (oc, dw_row) in dw_tmp.chunks_exact_mut(ckk).enumerate() {
                for (p, d) in dw_row.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for pos in 0..l {
                        acc += dy[oc * l + pos] * cols[p * l + pos];
                    }
                    *d = acc;
                }
            }
            let (wg, bg) = grads.split_at_mut(oc_n * ckk);
            for (g, d) in wg.iter_mut().zip(dw_tmp.iter()) {
                *g += d;
            }
            for oc in 0..oc_n {
                bg[oc] += dy[oc * l..(oc + 1) * l].iter().sum::<f32>();
            }
            let mut dcols = vec![0.0f32; ckk * l];
            matmul_at_flat_acc(conv.weight(), dy, &mut dcols, oc_n, ckk, l);
            let dxs = &mut grad_in.data_mut()[s * chw..(s + 1) * chw];
            conv.col2im(&dcols, l, 0, dxs, &g);
        }
        grad_in
    }

    /// Uniform values with `−0.0` and exact zeros mixed in, and `specials`
    /// of `±∞` or NaN at random positions — few, so that most outputs stay
    /// finite and a reordered sum shows in their bits.
    fn awkward(rng: &mut StdRng, len: usize, specials: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..len)
            .map(|_| match rng.gen_range(0u32..10) {
                0 => -0.0,
                1 => 0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect();
        for _ in 0..specials {
            let special = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][rng.gen_range(0..3)];
            v[rng.gen_range(0..len)] = special;
        }
        v
    }

    /// Bit patterns, with every NaN as `f32::NAN`'s: Rust leaves the sign
    /// and payload of a NaN result unspecified (the compiler may commute
    /// an add, and a kernel's vector body and scalar tail may differ), so
    /// a NaN matches any NaN and every other value matches bit for bit.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The chunked forward and backward reproduce the per-sample
        /// oracle bit for bit — output, input gradient, and weight and
        /// bias gradients accumulated over two backward calls — across
        /// kernel sizes, strides, paddings, batch sizes 1–9 and output
        /// planes below, at and above `MIN_COLS` (full and partial
        /// chunks), on one thread and on four.
        #[test]
        fn prop_chunked_conv_is_bitwise_the_per_sample_oracle(
            (k, stride, pad) in (1usize..=3, 1usize..=2, 0usize..=1),
            (in_c, out_c, n) in (1usize..=3, 1usize..=4, 1usize..=9),
            (plane, a, b, slack) in (0usize..6, 1usize..=7, 1usize..=7, 0usize..2),
            (specials, seed) in (0usize..3, 0u64..u64::MAX),
        ) {
            let (oh, ow) = [(a, b), (8, 8), (4, 16), (16, 4), (9, 8), (10, 10)][plane];
            // The input size whose output is `o` wide (with the stride's
            // remainder sometimes left over).
            let size = |o: usize| {
                ((o - 1) * stride + k + slack % stride)
                    .checked_sub(2 * pad)
                    .filter(|&s| s > 0)
            };
            prop_assume!(size(oh).is_some() && size(ow).is_some());
            let (h, w) = (size(oh).unwrap(), size(ow).unwrap());
            let mut rng = StdRng::seed_from_u64(seed);
            let mut conv = Conv2d::new(&mut rng, in_c, out_c, k, stride, pad);
            prop_assert_eq!((conv.out_size(h), conv.out_size(w)), (oh, ow));
            let weights = awkward(&mut rng, conv.params.len(), specials);
            conv.params.copy_from_slice(&weights);
            let x = Tensor::from_vec(Shape::d4(n, in_c, h, w), awkward(&mut rng, n * in_c * h * w, specials))
                .unwrap();
            let dys: Vec<Tensor> = (0..2)
                .map(|_| {
                    let len = n * out_c * oh * ow;
                    Tensor::from_vec(Shape::d4(n, out_c, oh, ow), awkward(&mut rng, len, specials)).unwrap()
                })
                .collect();

            let mut grads = vec![0.0f32; conv.params.len()];
            let expect_y = oracle_forward(&conv, &x);
            let expect_dx: Vec<Tensor> =
                dys.iter().map(|dy| oracle_backward(&conv, &x, dy, &mut grads)).collect();
            for threads in [1, 4] {
                let run = || {
                    conv.grads.fill(0.0);
                    let y = conv.forward(&x, true);
                    let dxs: Vec<Tensor> = dys
                        .iter()
                        .map(|dy| {
                            conv.forward(&x, true);
                            conv.backward(dy)
                        })
                        .collect();
                    (y, dxs)
                };
                // A minimum chunk of one row makes the four-thread run
                // split even these small GEMMs.
                let (y, dxs) = parallel::with_thread_limit(threads, || {
                    parallel::with_min_chunk(1, run)
                });
                prop_assert_eq!(bits(y.data()), bits(expect_y.data()), "forward, {} threads", threads);
                for (dx, expect) in dxs.iter().zip(&expect_dx) {
                    prop_assert_eq!(bits(dx.data()), bits(expect.data()), "grad_in, {} threads", threads);
                }
                prop_assert_eq!(bits(&conv.grads), bits(&grads), "param grads, {} threads", threads);
            }
        }
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 1, 1, 1, 1, 0);
        conv.params_mut().copy_from_slice(&[1.0, 0.0]); // 1x1 kernel = 1, bias 0
        let x = Tensor::from_vec(Shape::d4(1, 1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = conv.forward(&x, true);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(&mut rng, 1, 1, 3, 1, 1);
        // Sum kernel, bias 0: each output = sum of the 3x3 neighbourhood.
        let mut p = vec![1.0f32; 9];
        p.push(0.0);
        conv.params_mut().copy_from_slice(&p);
        let x = Tensor::full(Shape::d4(1, 1, 3, 3), 1.0);
        let y = conv.forward(&x, true);
        // Center sees 9 ones, corners see 4, edges see 6.
        assert_eq!(y.get(&[0, 0, 1, 1]), 9.0);
        assert_eq!(y.get(&[0, 0, 0, 0]), 4.0);
        assert_eq!(y.get(&[0, 0, 0, 1]), 6.0);
    }

    #[test]
    fn stride_two_halves_resolution() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(&mut rng, 2, 3, 3, 2, 1);
        let x = Tensor::zeros(Shape::d4(1, 2, 8, 8));
        let y = conv.forward(&x, true);
        assert_eq!(y.shape().dims(), &[1, 3, 4, 4]);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(&mut rng, 1, 2, 1, 1, 0);
        conv.params_mut().copy_from_slice(&[0.0, 0.0, 5.0, -3.0]); // zero kernels, biases 5 / -3
        let x = Tensor::full(Shape::d4(1, 1, 2, 2), 7.0);
        let y = conv.forward(&x, true);
        assert!(y.data()[..4].iter().all(|&v| v == 5.0));
        assert!(y.data()[4..].iter().all(|&v| v == -3.0));
    }

    #[test]
    fn gradcheck_padded() {
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Conv2d::new(&mut rng, 2, 3, 3, 1, 1);
        check_layer_gradients(Box::new(conv), Shape::d4(2, 2, 5, 5), 2e-2, 7);
    }

    #[test]
    fn gradcheck_strided_unpadded() {
        let mut rng = StdRng::seed_from_u64(4);
        let conv = Conv2d::new(&mut rng, 1, 2, 2, 2, 0);
        check_layer_gradients(Box::new(conv), Shape::d4(2, 1, 6, 6), 2e-2, 8);
    }
}
