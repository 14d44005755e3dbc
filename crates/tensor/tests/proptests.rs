//! Property-based tests for the dense tensor substrate.

use gtopk_tensor::{log_softmax_rows, matmul_flat, softmax_rows, Shape, Tensor};
use proptest::prelude::*;

fn tensor_strategy(n: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-100.0f32..100.0, n)
        .prop_map(move |v| Tensor::from_vec(Shape::d1(n), v).expect("length matches"))
}

proptest! {
    /// (A·B)·C == A·(B·C) within f32 tolerance, for random small shapes.
    #[test]
    fn prop_matmul_associative(
        m in 1usize..5, k in 1usize..5, n in 1usize..5, q in 1usize..5,
        seed in 0u64..50,
    ) {
        let fill = |len: usize, salt: u64| -> Vec<f32> {
            (0..len)
                .map(|i| {
                    let h = (i as u64 + 1).wrapping_mul(seed + salt + 1)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    ((h >> 40) as f32 / (1u64 << 23) as f32) - 0.5
                })
                .collect()
        };
        let a = Tensor::from_vec(Shape::d2(m, k), fill(m * k, 1)).unwrap();
        let b = Tensor::from_vec(Shape::d2(k, n), fill(k * n, 2)).unwrap();
        let c = Tensor::from_vec(Shape::d2(n, q), fill(n * q, 3)).unwrap();
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// Transposing twice is the identity.
    #[test]
    fn prop_transpose_involution(m in 1usize..8, n in 1usize..8, seed in 0u64..20) {
        let data: Vec<f32> = (0..m * n).map(|i| (i as f32 + seed as f32).sin()).collect();
        let a = Tensor::from_vec(Shape::d2(m, n), data).unwrap();
        prop_assert_eq!(a.transpose2().unwrap().transpose2().unwrap(), a);
    }

    /// matmul distributes over addition: A·(B + C) == A·B + A·C.
    #[test]
    fn prop_matmul_distributive(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..20) {
        let fill = |len: usize, salt: u64| -> Vec<f32> {
            (0..len).map(|i| ((i as u64 + salt + seed) % 13) as f32 - 6.0).collect()
        };
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let c = fill(k * n, 3);
        let bc: Vec<f32> = b.iter().zip(&c).map(|(x, y)| x + y).collect();
        let mut lhs = vec![0.0; m * n];
        matmul_flat(&a, &bc, &mut lhs, m, k, n);
        let mut ab = vec![0.0; m * n];
        let mut ac = vec![0.0; m * n];
        matmul_flat(&a, &b, &mut ab, m, k, n);
        matmul_flat(&a, &c, &mut ac, m, k, n);
        for i in 0..m * n {
            prop_assert!((lhs[i] - (ab[i] + ac[i])).abs() < 1e-3);
        }
    }

    /// axpy is linear: x.axpy(a, y) == x + a*y element-wise.
    #[test]
    fn prop_axpy_linearity(n in 1usize..40, alpha in -5.0f32..5.0, seed in 0u64..20) {
        let x: Vec<f32> = (0..n).map(|i| ((i as u64 + seed) % 7) as f32).collect();
        let y: Vec<f32> = (0..n).map(|i| ((i as u64 * 3 + seed) % 5) as f32 - 2.0).collect();
        let mut t = Tensor::from_vec(Shape::d1(n), x.clone()).unwrap();
        let ty = Tensor::from_vec(Shape::d1(n), y.clone()).unwrap();
        t.axpy(alpha, &ty).unwrap();
        for i in 0..n {
            prop_assert!((t.data()[i] - (x[i] + alpha * y[i])).abs() < 1e-4);
        }
    }

    /// Softmax rows are probability distributions and order-preserving.
    #[test]
    fn prop_softmax_is_distribution(rows in 1usize..5, cols in 1usize..8, seed in 0u64..30) {
        let x: Vec<f32> = (0..rows * cols)
            .map(|i| (((i as u64 + 1) * (seed + 1)) % 97) as f32 / 10.0 - 4.0)
            .collect();
        let mut s = vec![0.0; x.len()];
        softmax_rows(&x, &mut s, rows, cols);
        for r in 0..rows {
            let row = &s[r * cols..(r + 1) * cols];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
            // order preservation
            let xr = &x[r * cols..(r + 1) * cols];
            for i in 0..cols {
                for j in 0..cols {
                    if xr[i] < xr[j] {
                        prop_assert!(row[i] <= row[j] + 1e-6);
                    }
                }
            }
        }
    }

    /// log-softmax equals ln(softmax) where softmax is not tiny.
    #[test]
    fn prop_log_softmax_consistent(cols in 1usize..10, seed in 0u64..30) {
        let x: Vec<f32> = (0..cols).map(|i| ((i as u64 + seed) % 11) as f32 - 5.0).collect();
        let mut s = vec![0.0; cols];
        let mut ls = vec![0.0; cols];
        softmax_rows(&x, &mut s, 1, cols);
        log_softmax_rows(&x, &mut ls, 1, cols);
        for i in 0..cols {
            if s[i] > 1e-4 {
                prop_assert!((ls[i] - s[i].ln()).abs() < 1e-4);
            }
        }
    }

    /// norm2 satisfies the triangle inequality under add_assign.
    #[test]
    fn prop_norm_triangle(a in tensor_strategy(16), b in tensor_strategy(16)) {
        let mut sum = a.clone();
        sum.add_assign(&b).unwrap();
        prop_assert!(sum.norm2() <= a.norm2() + b.norm2() + 1e-3);
    }
}
