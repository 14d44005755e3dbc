//! The selection names the benchmark's traced replica still imports.

use gtopk_sparse::{Residual, SparseVec};

/// The local top-k selection kernel: there is one.
///
/// Local top-k selection is one exact, RNG-free kernel
/// ([`Residual::accumulate_extract_into`]), which the aggregator calls
/// directly; no product code path reads this type,
/// [`TrainConfig::selector`](crate::TrainConfig::selector) or
/// [`SelectorState`]. They remain only because `benchmark/src/traced.rs`
/// names them; ROADMAP item 1's `[benchmark]` change deletes them together
/// with that file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selector {
    /// Exact top-k via one streaming threshold pass plus a select over the
    /// band — a pure function of the buffer.
    #[default]
    Exact,
}

/// A stateless forwarder to [`Residual::accumulate_extract`].
#[derive(Debug, Clone)]
pub struct SelectorState;

impl SelectorState {
    /// The forwarder; both arguments are ignored.
    pub fn new(_selector: Selector, _rank: usize) -> Self {
        SelectorState
    }

    /// [`Residual::accumulate_extract`]: folds `grad` into the residual
    /// and extracts its exact top-`k`, in one pass.
    pub fn accumulate_extract(
        &mut self,
        residual: &mut Residual,
        grad: &[f32],
        k: usize,
    ) -> SparseVec {
        residual.accumulate_extract(grad, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_extract_matches_accumulate_then_extract() {
        // The forwarder reproduces the two-call form bitwise, at a size
        // where the kernel's sampler engages.
        let n = 3 * 4096;
        let grads: Vec<Vec<f32>> = (0..3)
            .map(|s: usize| {
                (0..n)
                    .map(|i| ((i * 37 + s * 11) % 101) as f32 - 50.0 + (i as f32 * 0.11).sin())
                    .collect()
            })
            .collect();
        let mut r1 = Residual::new(n);
        let mut r2 = Residual::new(n);
        let mut state = SelectorState::new(Selector::Exact, 2);
        for g in &grads {
            let fused = state.accumulate_extract(&mut r1, g, 16);
            r2.accumulate(g);
            let unfused = r2.extract_topk(16);
            assert_eq!(fused, unfused);
            assert_eq!(r1.dense(), r2.dense(), "residual state");
        }
    }

    #[test]
    fn default_is_exact() {
        assert_eq!(Selector::default(), Selector::Exact);
    }
}
