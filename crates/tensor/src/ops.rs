//! Element-wise kernels and their derivatives, plus numerically stable
//! row-wise softmax / log-softmax used by the cross-entropy loss.

/// ReLU forward: `out[i] = max(0, x[i])`.
///
/// # Panics
///
/// Panics if `x` and `out` have different lengths.
pub fn relu(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len());
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = v.max(0.0);
    }
}

/// ReLU backward: `dx[i] = dy[i]` where `x[i] > 0`, else `+0.0` (NaN
/// included).
///
/// A zipped select rather than an indexed loop with a branch, so it
/// vectorises.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn relu_backward(x: &[f32], dy: &[f32], dx: &mut [f32]) {
    assert_eq!(x.len(), dy.len());
    assert_eq!(x.len(), dx.len());
    for ((d, &v), &g) in dx.iter_mut().zip(x).zip(dy) {
        *d = if v > 0.0 { g } else { 0.0 };
    }
}

/// Logistic sigmoid forward.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn sigmoid(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len());
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = 1.0 / (1.0 + (-v).exp());
    }
}

/// Sigmoid backward given the *forward output* `y`: `dx = dy * y * (1-y)`.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn sigmoid_backward(y: &[f32], dy: &[f32], dx: &mut [f32]) {
    assert_eq!(y.len(), dy.len());
    assert_eq!(y.len(), dx.len());
    for i in 0..y.len() {
        dx[i] = dy[i] * y[i] * (1.0 - y[i]);
    }
}

/// Hyperbolic tangent forward.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn tanh_forward(x: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len());
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = v.tanh();
    }
}

/// Tanh backward given the forward output `y`: `dx = dy * (1 - y²)`.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn tanh_backward(y: &[f32], dy: &[f32], dx: &mut [f32]) {
    assert_eq!(y.len(), dy.len());
    assert_eq!(y.len(), dx.len());
    for i in 0..y.len() {
        dx[i] = dy[i] * (1.0 - y[i] * y[i]);
    }
}

/// Row-wise softmax over a `[rows, cols]` row-major matrix, written into
/// `out` (max-subtracted for numerical stability).
///
/// # Panics
///
/// Panics if `x.len() != rows * cols` or `out.len() != x.len()`, or if
/// `cols == 0`.
pub fn softmax_rows(x: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    assert!(cols > 0, "softmax over zero columns");
    assert_eq!(x.len(), rows * cols);
    assert_eq!(out.len(), x.len());
    for r in 0..rows {
        let row = &x[r * cols..(r + 1) * cols];
        let orow = &mut out[r * cols..(r + 1) * cols];
        let mx = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let mut z = 0.0f32;
        for (o, &v) in orow.iter_mut().zip(row.iter()) {
            let e = (v - mx).exp();
            *o = e;
            z += e;
        }
        let inv = 1.0 / z;
        for o in orow.iter_mut() {
            *o *= inv;
        }
    }
}

/// Row-wise log-softmax over a `[rows, cols]` row-major matrix.
///
/// # Panics
///
/// Same conditions as [`softmax_rows`].
pub fn log_softmax_rows(x: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    assert!(cols > 0, "log-softmax over zero columns");
    assert_eq!(x.len(), rows * cols);
    assert_eq!(out.len(), x.len());
    for r in 0..rows {
        let row = &x[r * cols..(r + 1) * cols];
        let orow = &mut out[r * cols..(r + 1) * cols];
        let mx = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let lse = row.iter().map(|&v| (v - mx).exp()).sum::<f32>().ln() + mx;
        for (o, &v) in orow.iter_mut().zip(row.iter()) {
            *o = v - lse;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let x = [-1.0, 0.0, 2.0];
        let mut y = [0.0; 3];
        relu(&x, &mut y);
        assert_eq!(y, [0.0, 0.0, 2.0]);
        let dy = [1.0, 1.0, 1.0];
        let mut dx = [0.0; 3];
        relu_backward(&x, &dy, &mut dx);
        assert_eq!(dx, [0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_range_and_grad() {
        let x = [-10.0, 0.0, 10.0];
        let mut y = [0.0; 3];
        sigmoid(&x, &mut y);
        assert!(y[0] < 1e-4 && (y[1] - 0.5).abs() < 1e-6 && y[2] > 0.9999);
        let dy = [1.0; 3];
        let mut dx = [0.0; 3];
        sigmoid_backward(&y, &dy, &mut dx);
        // max derivative at 0 is 0.25
        assert!((dx[1] - 0.25).abs() < 1e-6);
        assert!(dx[0] < dx[1] && dx[2] < dx[1]);
    }

    #[test]
    fn tanh_grad_at_zero_is_one() {
        let x = [0.0f32];
        let mut y = [0.0f32];
        tanh_forward(&x, &mut y);
        let mut dx = [0.0f32];
        tanh_backward(&y, &[1.0], &mut dx);
        assert!((dx[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = [1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        let mut y = [0.0; 6];
        softmax_rows(&x, &mut y, 2, 3);
        for r in 0..2 {
            let s: f32 = y[r * 3..(r + 1) * 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // monotone in logits
        assert!(y[0] < y[1] && y[1] < y[2]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let x1 = [1.0, 2.0, 3.0];
        let x2 = [1001.0, 1002.0, 1003.0];
        let mut y1 = [0.0; 3];
        let mut y2 = [0.0; 3];
        softmax_rows(&x1, &mut y1, 1, 3);
        softmax_rows(&x2, &mut y2, 1, 3);
        for (a, b) in y1.iter().zip(y2.iter()) {
            assert!((a - b).abs() < 1e-6);
            assert!(a.is_finite());
        }
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let x = [0.3, -0.7, 1.2, 0.0];
        let mut ls = [0.0; 4];
        let mut s = [0.0; 4];
        log_softmax_rows(&x, &mut ls, 1, 4);
        softmax_rows(&x, &mut s, 1, 4);
        for (l, p) in ls.iter().zip(s.iter()) {
            assert!((l.exp() - p).abs() < 1e-6);
        }
    }
}
