//! 2-D convolution as im2col + GEMM over chunks of whole samples.
//!
//! # Chunked layout
//!
//! A batch is cut into chunks of `⌈MIN_COLS / (oh·ow)⌉` whole samples (the
//! last chunk may be partial), so every GEMM has at least `MIN_COLS` output
//! columns even where a layer's output plane is small. For a chunk of `ns`
//! samples the columns are laid out sample-major, `[ckk, ns·l]` with
//! `ckk = in_c·k·k` and `l = oh·ow`: sample `s`'s `l` columns sit at offset
//! `s·l` of every row.
//!
//! # Data movement
//!
//! * **Index tables, not row runs.** Where every im2col entry comes from
//!   depends only on the input's plane size, so the layer builds it once
//!   per `(h, w)` and keeps it: `gather` (`[ckk, l]`) names, for each
//!   column entry, the element of the sample's padded copy `[x | 0.0]` it
//!   reads, with every padding entry pointing at the trailing zero. im2col
//!   is then one gather per entry — no padding test, no per-run setup and
//!   no zeroing of the columns first; conv2's 4×4 planes used to cost
//!   9 216 runs of at most four elements a step. col2im is a gather-sum
//!   over the table inverted (`starts`/`sources`: each input element's
//!   readers).
//! * **Forward keeps its input, not its columns.** Forward copies the
//!   batch into padded samples (a grow-only buffer) and builds one chunk
//!   of columns at a time. Backward gathers each sample's weight-gradient
//!   operand straight into its `[l, ckk]` layout through the transposed
//!   table (`gather_t`) — no transpose — into the chunk buffer, which then
//!   takes `dcols`. Every other per-call buffer (`Y`, the chunk's `dY`,
//!   `dW_s`, `Wᵀ`) is grow-only too, so a steady-state call allocates only
//!   the tensor it returns. The one-shot contract is unchanged (backward
//!   without a forward panics).
//! * **No input gradient for a first layer.** [`Layer::backward_params`]
//!   runs the weight and bias gradients only: no `dcols` GEMM and no
//!   col2im. [`crate::Model::backward`] calls it on a network's first
//!   layer, whose input gradient nobody reads.
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
//! * **Input gradient.** `dcols = Wᵀ·dY` runs through [`matmul_flat`]
//!   over the chunk, from a `Wᵀ` transposed once per call: the product
//!   [`gtopk_tensor::matmul_at_flat_acc`] runs, ascending `oc` with the
//!   same skip, again per column. col2im then sums each input element's
//!   readers from `+0.0` in ascending `(ky, kx)`: the order the
//!   `(ci, ky, kx, oy, ox)` scatter into a zeroed gradient gave it (each
//!   `(ky, kx)` reads an element at most once).
//! * **Weight gradient.** Each sample's `dW_s[oc, p] = Σ_pos dY[oc, pos]·
//!   cols[p, pos]` stays one sequential chain from `+0.0` in ascending
//!   `pos`, and `grads += dW_s` sample by sample. To run that chain on SIMD
//!   lanes across `p`, the sample's columns are gathered as `[l, ckk]`
//!   and `dW_s = dY_s·cols_t` is one
//!   [`simd::gemm_acc`] call from a zeroed `dW_s` that skips no product
//!   (the dot product it replaces skips none): the kernel holds a tile of
//!   `dW_s[oc, ·]` in registers while it walks `pos`, so each element's
//!   chain is untouched. One GEMM over the whole chunk would reassociate
//!   these sums across samples, so the weight gradient is the one product
//!   that stays per sample.

use crate::Layer;
use gtopk_tensor::{kaiming_uniform, matmul_flat, simd, transpose_into, Shape, Tensor};
use rand::Rng;
use std::ops::Range;

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
    /// Shape of the last forward's input, until a backward consumes it.
    input_shape: Option<Shape>,
    /// im2col/col2im index tables of the last input plane size.
    tables: Tables,
    /// Grow-only buffers, reused by every call.
    scratch: Scratch,
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

impl Geometry {
    /// `(s0, ns)` of every chunk: samples `s0..s0 + ns`.
    fn chunks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n)
            .step_by(self.chunk)
            .map(|s0| (s0, self.chunk.min(self.n - s0)))
    }

    /// Sample `s`'s `chw` inputs and its trailing zero in the padded copy.
    fn padded(&self, s: usize) -> Range<usize> {
        s * (self.chw + 1)..(s + 1) * (self.chw + 1)
    }
}

/// Where every im2col entry comes from, for one input plane size. A
/// sample is read from its padded copy `[x | 0.0]`, so an entry the
/// kernel reads from the padding points at the trailing zero (`chw`).
#[derive(Default)]
struct Tables {
    /// `(h, w)` the tables were built for.
    plane: (usize, usize),
    /// `[ckk, l]`: the padded-sample index of each column entry.
    gather: Vec<u32>,
    /// `[l, ckk]`: `gather` transposed, the weight gradient's operand.
    gather_t: Vec<u32>,
    /// Input element `e` is read by the column entries
    /// `sources[starts[e]..starts[e + 1]]`, as `(row, pos)` in ascending
    /// `(ky, kx)`.
    starts: Vec<u32>,
    sources: Vec<(u32, u32)>,
}

impl Tables {
    fn new(conv: &Conv2d, g: &Geometry) -> Self {
        let (k, s, p) = (conv.k, conv.stride, conv.pad);
        let (h, w, ow, l, chw) = (g.h, g.w, g.ow, g.l, g.chw);
        let pad = u32::try_from(chw).expect("a sample's index fits u32");
        // The input coordinate output `o` reads at kernel offset `kd`, if
        // it lies inside `0..n_in`.
        let at =
            |kd: usize, o: usize, n_in: usize| (o * s + kd).checked_sub(p).filter(|&i| i < n_in);
        let mut gather = vec![pad; g.ckk * l];
        // (element, row, pos) of every entry that reads the image, in
        // (ci, ky, kx, oy, ox) order.
        let mut reads = Vec::with_capacity(g.ckk * l);
        for (row, idx) in gather.chunks_exact_mut(l).enumerate() {
            let (ci, ky, kx) = (row / (k * k), row / k % k, row % k);
            for (pos, i) in idx.iter_mut().enumerate() {
                if let (Some(iy), Some(ix)) = (at(ky, pos / ow, h), at(kx, pos % ow, w)) {
                    let e = ci * h * w + iy * w + ix;
                    *i = e as u32;
                    reads.push((e, row as u32, pos as u32));
                }
            }
        }
        // Stable: each element keeps its readers in ascending (ky, kx).
        reads.sort_by_key(|&(e, ..)| e);
        let mut starts = vec![0u32; chw + 1];
        for &(e, ..) in &reads {
            starts[e + 1] += 1;
        }
        for e in 0..chw {
            starts[e + 1] += starts[e];
        }
        let mut gather_t = vec![0u32; l * g.ckk];
        for (row, idx) in gather.chunks_exact(l).enumerate() {
            for (pos, &i) in idx.iter().enumerate() {
                gather_t[pos * g.ckk + row] = i;
            }
        }
        Tables {
            plane: (h, w),
            gather,
            gather_t,
            starts,
            sources: reads.into_iter().map(|(_, row, pos)| (row, pos)).collect(),
        }
    }
}

/// Grow-only buffers for one forward/backward pair.
#[derive(Default)]
struct Scratch {
    /// The last forward's input, each sample followed by one `0.0`.
    xpad: Vec<f32>,
    /// One chunk's columns `[ckk, ns·l]`: im2col in forward; in backward
    /// each sample's weight-gradient operand `[l, ckk]`, then `dcols`.
    cols: Vec<f32>,
    /// One chunk's `[oc, ns·l]`: forward's `Y`, backward's `dY`.
    y: Vec<f32>,
    /// One sample's weight gradient `[oc, ckk]`.
    dw: Vec<f32>,
    /// `Wᵀ` `[ckk, oc]`.
    wt: Vec<f32>,
}

/// `buf`'s first `len` elements, growing it if it is shorter.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
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
            input_shape: None,
            tables: Tables::default(),
            scratch: Scratch::default(),
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

    /// Backward from the padded input forward kept: accumulates the
    /// weight and bias gradients and, given `grad_in`, writes the input
    /// gradient into it.
    fn backprop(&mut self, shape: &Shape, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        let g = self.geometry(shape.dims());
        let (oc_n, l, ckk, chw) = (self.out_c, g.l, g.ckk, g.chw);
        assert_eq!(grad_out.len(), g.n * oc_n * l);
        let Scratch {
            xpad,
            cols,
            y: dy,
            dw,
            wt,
        } = &mut self.scratch;
        let t = &self.tables;
        let dw = grown(dw, oc_n * ckk);
        let (wg, bg) = self.grads.split_at_mut(oc_n * ckk);
        for (s, dys) in grad_out.data().chunks_exact(oc_n * l).enumerate() {
            // dW_s [oc, ckk] = dY_s [oc, l] · cols_sᵀ: per (oc, p) one
            // chain over ascending pos from +0.0, run across p.
            let xs = &xpad[g.padded(s)];
            let cols_t = grown(cols, l * ckk);
            for (d, &i) in cols_t.iter_mut().zip(&t.gather_t) {
                *d = xs[i as usize];
            }
            dw.fill(0.0);
            simd::gemm_acc(dys, cols_t, dw, oc_n, l, ckk, false);
            simd::axpy(wg, dw);
            // db += per-channel sum of dY.
            for (gb, dyc) in bg.iter_mut().zip(dys.chunks_exact(l)) {
                *gb += dyc.iter().sum::<f32>();
            }
        }
        let Some(grad_in) = grad_in else {
            return;
        };
        // Wᵀ [ckk, oc] for the input gradient, once per call.
        let wt = grown(wt, ckk * oc_n);
        transpose_into(&self.params[..oc_n * ckk], ckk, oc_n, ckk, wt);
        for (s0, ns) in g.chunks() {
            let cb = ns * l;
            // dY of the chunk as [oc, ns·l].
            let dy = grown(dy, oc_n * cb);
            let dy_chunk = &grad_out.data()[s0 * oc_n * l..(s0 + ns) * oc_n * l];
            for (si, dys) in dy_chunk.chunks_exact(oc_n * l).enumerate() {
                for (oc, dyc) in dys.chunks_exact(l).enumerate() {
                    dy[oc * cb + si * l..oc * cb + (si + 1) * l].copy_from_slice(dyc);
                }
            }
            // dcols [ckk, ns·l] = Wᵀ [ckk, oc] · dY [oc, ns·l].
            let dcols = grown(cols, ckk * cb);
            matmul_flat(wt, dy, dcols, ckk, oc_n, cb);
            // col2im: each input element sums its readers from +0.0.
            let dx = &mut grad_in.data_mut()[s0 * chw..(s0 + ns) * chw];
            for (si, dxs) in dx.chunks_exact_mut(chw).enumerate() {
                let dcols = &dcols[si * l..];
                for (d, span) in dxs.iter_mut().zip(t.starts.windows(2)) {
                    *d = t.sources[span[0] as usize..span[1] as usize]
                        .iter()
                        .fold(0.0f32, |acc, &(row, pos)| {
                            acc + dcols[row as usize * cb + pos as usize]
                        });
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let g = self.geometry(input.shape().dims());
        let (oc_n, l, ckk, chw) = (self.out_c, g.l, g.ckk, g.chw);
        if self.tables.plane != (g.h, g.w) || self.tables.gather.is_empty() {
            self.tables = Tables::new(self, &g);
        }
        let mut out = Tensor::zeros(Shape::d4(g.n, oc_n, g.oh, g.ow));
        let Scratch { xpad, cols, y, .. } = &mut self.scratch;
        let xpad = grown(xpad, g.n * (chw + 1));
        for (dst, src) in xpad
            .chunks_exact_mut(chw + 1)
            .zip(input.data().chunks_exact(chw))
        {
            dst[..chw].copy_from_slice(src);
            dst[chw] = 0.0;
        }
        let (gather, weight) = (&self.tables.gather, &self.params[..oc_n * ckk]);
        let bias = &self.params[oc_n * ckk..];
        for (s0, ns) in g.chunks() {
            let cb = ns * l;
            let cols = grown(cols, ckk * cb);
            for si in 0..ns {
                let xs = &xpad[g.padded(s0 + si)];
                for (row, idx) in gather.chunks_exact(l).enumerate() {
                    for (d, &i) in cols[row * cb + si * l..][..l].iter_mut().zip(idx) {
                        *d = xs[i as usize];
                    }
                }
            }
            // Y [oc, ns·l] = W [oc, ckk] · cols [ckk, ns·l]
            let y = grown(y, oc_n * cb);
            matmul_flat(weight, cols, y, oc_n, ckk, cb);
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
        self.input_shape = Some(input.shape().clone());
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .input_shape
            .take()
            .expect("backward called without forward");
        let mut grad_in = Tensor::zeros(shape.clone());
        self.backprop(&shape, grad_out, Some(&mut grad_in));
        grad_in
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let shape = self
            .input_shape
            .take()
            .expect("backward called without forward");
        self.backprop(&shape, grad_out, None);
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
    use gtopk_tensor::matmul_at_flat_acc;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn weight(conv: &Conv2d) -> &[f32] {
        &conv.params[..conv.out_c * conv.in_c * conv.k * conv.k]
    }

    /// The per-element im2col the index tables replaced: one bounds test and
    /// one copy per element, for one sample into columns `off..off + l` of
    /// the `[ckk, ld]` matrix `cols`. Padding entries are left untouched,
    /// so `cols` must arrive zeroed.
    fn oracle_im2col(
        conv: &Conv2d,
        x: &[f32],
        g: &Geometry,
        cols: &mut [f32],
        ld: usize,
        off: usize,
    ) {
        let (c, k, s, p) = (conv.in_c, conv.k, conv.stride, conv.pad);
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

    /// The per-element col2im the gather-sum replaced: a scatter-add in
    /// `(ci, ky, kx, oy, ox)` order with one bounds test per element.
    fn oracle_col2im(
        conv: &Conv2d,
        cols: &[f32],
        ld: usize,
        off: usize,
        dx: &mut [f32],
        g: &Geometry,
    ) {
        let (c, k, s, p) = (conv.in_c, conv.k, conv.stride, conv.pad);
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

    /// The one-sample-at-a-time forward the chunked path replaced: the
    /// per-element im2col and one GEMM per sample, then the bias.
    fn oracle_forward(conv: &Conv2d, input: &Tensor) -> Tensor {
        let g = conv.geometry(input.shape().dims());
        let (n, chw, l, ckk) = (g.n, g.chw, g.l, g.ckk);
        let mut out = Tensor::zeros(Shape::d4(n, conv.out_c, g.oh, g.ow));
        for s in 0..n {
            let xin = &input.data()[s * chw..(s + 1) * chw];
            let mut cols = vec![0.0f32; ckk * l];
            oracle_im2col(conv, xin, &g, &mut cols, l, 0);
            let yout = &mut out.data_mut()[s * conv.out_c * l..(s + 1) * conv.out_c * l];
            matmul_flat(weight(conv), &cols, yout, conv.out_c, ckk, l);
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
    /// one per-element col2im per sample. Accumulates into `grads` and returns the
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
            oracle_im2col(conv, xin, &g, &mut cols, l, 0);
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
            matmul_at_flat_acc(weight(conv), dy, &mut dcols, oc_n, ckk, l);
            let dxs = &mut grad_in.data_mut()[s * chw..(s + 1) * chw];
            oracle_col2im(conv, &dcols, l, 0, dxs, &g);
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

        /// The chunked forward and backward reproduce the per-sample,
        /// per-element oracle bit for bit — output, input gradient, and
        /// weight and bias gradients accumulated over two backward calls,
        /// by `backward` and by `backward_params` — across kernel sizes,
        /// strides and paddings whose windows read the padding partly,
        /// wholly or not at all (a padding wider than the kernel's reach
        /// included), batch sizes
        /// 1–9 and output planes below, at and above `MIN_COLS` (full and
        /// partial chunks).
        #[test]
        fn prop_chunked_conv_is_bitwise_the_per_sample_oracle(
            (k, stride, pad) in (1usize..=4, 1usize..=3, 0usize..=2),
            (in_c, out_c, n) in (1usize..=3, 1usize..=4, 1usize..=9),
            (plane, a, b, slack) in (0usize..6, 1usize..=7, 1usize..=7, 0usize..3),
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
            conv.grads.fill(0.0);
            let y = conv.forward(&x, true);
            prop_assert_eq!(bits(y.data()), bits(expect_y.data()), "forward");
            for (dy, expect) in dys.iter().zip(&expect_dx) {
                conv.forward(&x, true);
                let dx = conv.backward(dy);
                prop_assert_eq!(bits(dx.data()), bits(expect.data()), "grad_in");
            }
            prop_assert_eq!(bits(&conv.grads), bits(&grads), "param grads");
            conv.grads.fill(0.0);
            for dy in &dys {
                conv.forward(&x, true);
                conv.backward_params(dy);
            }
            prop_assert_eq!(bits(&conv.grads), bits(&grads), "backward_params");
        }
    }

    /// A forward over a smaller batch than the one before it reads its own
    /// input from the grow-only buffers, not the larger batch's.
    #[test]
    fn a_smaller_batch_after_a_larger_one_uses_its_own_columns() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut conv = Conv2d::new(&mut rng, 2, 3, 3, 1, 1);
        let big = Tensor::from_vec(Shape::d4(6, 2, 3, 3), awkward(&mut rng, 108, 0)).unwrap();
        let small = Tensor::from_vec(Shape::d4(2, 2, 3, 3), awkward(&mut rng, 36, 0)).unwrap();
        let dy = Tensor::from_vec(Shape::d4(2, 3, 3, 3), awkward(&mut rng, 54, 0)).unwrap();
        let mut grads = vec![0.0f32; conv.params.len()];
        let expect_dx = oracle_backward(&conv, &small, &dy, &mut grads);
        conv.forward(&big, true);
        let y = conv.forward(&small, true);
        assert_eq!(bits(y.data()), bits(oracle_forward(&conv, &small).data()));
        assert_eq!(bits(conv.backward(&dy).data()), bits(expect_dx.data()));
        assert_eq!(bits(&conv.grads), bits(&grads));
    }

    /// A forward over another plane size rebuilds the index tables, and
    /// going back rebuilds them again: every pass matches the oracle.
    #[test]
    fn a_new_plane_size_rebuilds_the_tables() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(&mut rng, 2, 3, 3, 2, 1);
        for (h, w) in [(6, 6), (5, 7), (6, 6), (1, 4)] {
            let x =
                Tensor::from_vec(Shape::d4(3, 2, h, w), awkward(&mut rng, 6 * h * w, 0)).unwrap();
            let (oh, ow) = (conv.out_size(h), conv.out_size(w));
            let dy = Tensor::from_vec(Shape::d4(3, 3, oh, ow), awkward(&mut rng, 9 * oh * ow, 0))
                .unwrap();
            let mut grads = vec![0.0f32; conv.params.len()];
            let expect_dx = oracle_backward(&conv, &x, &dy, &mut grads);
            conv.grads.fill(0.0);
            let y = conv.forward(&x, true);
            assert_eq!(
                bits(y.data()),
                bits(oracle_forward(&conv, &x).data()),
                "{h}x{w}"
            );
            assert_eq!(
                bits(conv.backward(&dy).data()),
                bits(expect_dx.data()),
                "{h}x{w}"
            );
            assert_eq!(bits(&conv.grads), bits(&grads), "{h}x{w}");
        }
    }

    #[test]
    #[should_panic(expected = "backward called without forward")]
    fn backward_params_consumes_the_forward_cache() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new(&mut rng, 1, 2, 3, 1, 1);
        conv.forward(&Tensor::zeros(Shape::d4(2, 1, 4, 4)), true);
        let dy = Tensor::zeros(Shape::d4(2, 2, 4, 4));
        conv.backward_params(&dy);
        conv.backward_params(&dy);
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
