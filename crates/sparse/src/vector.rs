use std::fmt;

/// A sparse gradient vector: sorted unique indices with their values.
///
/// This is the `[V, I]` pair the paper transmits for every sparsified
/// gradient. Indices are `u32` (models up to 2³²−1 parameters, far beyond
/// the paper's 25M-parameter ResNet-50), sorted ascending and unique, which
/// makes merge-adds a linear two-pointer walk.
///
/// # Examples
///
/// ```
/// use gtopk_sparse::SparseVec;
/// let v = SparseVec::from_pairs(8, vec![(5, 1.0), (2, -3.0)]);
/// assert_eq!(v.indices(), &[2, 5]);
/// assert_eq!(v.get(2), -3.0);
/// assert_eq!(v.get(0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVec {
    // Crate-internal kernels (top-k selection, the ⊤ merge) write these
    // buffers directly to reuse their allocations across steps. Invariant
    // every writer must uphold: `indices` strictly ascending, parallel to
    // `values`, all `< dim`.
    pub(crate) dim: usize,
    pub(crate) indices: Vec<u32>,
    pub(crate) values: Vec<f32>,
}

impl SparseVec {
    /// An empty sparse vector of logical dimension `dim`.
    pub fn empty(dim: usize) -> Self {
        SparseVec {
            dim,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds from `(index, value)` pairs, sorting and summing duplicates.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= dim`.
    pub fn from_pairs(dim: usize, mut pairs: Vec<(u32, f32)>) -> Self {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            assert!((i as usize) < dim, "index {i} out of bounds for dim {dim}");
            if indices.last() == Some(&i) {
                *values.last_mut().expect("values parallel to indices") += v;
            } else {
                indices.push(i);
                values.push(v);
            }
        }
        SparseVec {
            dim,
            indices,
            values,
        }
    }

    /// An empty sparse vector that reuses the given buffers' capacity.
    ///
    /// The buffers are cleared, not reallocated — this is how pooled
    /// (recycled) index/value vectors re-enter service without touching
    /// the heap.
    pub fn empty_with_buffers(dim: usize, mut indices: Vec<u32>, mut values: Vec<f32>) -> Self {
        indices.clear();
        values.clear();
        SparseVec {
            dim,
            indices,
            values,
        }
    }

    /// Removes all entries, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.indices.clear();
        self.values.clear();
    }

    /// Overwrites this vector with a copy of `other`, reusing this
    /// vector's buffers (no allocation once capacity suffices).
    pub fn copy_from(&mut self, other: &SparseVec) {
        self.dim = other.dim;
        self.indices.clear();
        self.indices.extend_from_slice(&other.indices);
        self.values.clear();
        self.values.extend_from_slice(&other.values);
    }

    /// Builds from already-sorted unique indices and parallel values.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ, indices are not strictly ascending, or any
    /// index is `>= dim`.
    pub fn from_sorted(dim: usize, indices: Vec<u32>, values: Vec<f32>) -> Self {
        assert_eq!(
            indices.len(),
            values.len(),
            "indices/values length mismatch"
        );
        for w in indices.windows(2) {
            assert!(w[0] < w[1], "indices must be strictly ascending");
        }
        if let Some(&last) = indices.last() {
            assert!(
                (last as usize) < dim,
                "index {last} out of bounds for dim {dim}"
            );
        }
        SparseVec {
            dim,
            indices,
            values,
        }
    }

    /// Densifies into a `Vec<f32>` of length `dim`.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.dim];
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            out[i as usize] = v;
        }
        out
    }

    /// Adds this sparse vector into an existing dense buffer.
    ///
    /// # Panics
    ///
    /// Panics if `dense.len() != self.dim()`.
    pub fn add_into_dense(&self, dense: &mut [f32]) {
        assert_eq!(dense.len(), self.dim, "dense buffer length mismatch");
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            dense[i as usize] += v;
        }
    }

    /// Logical dimension of the vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Sorted coordinate indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Values parallel to [`SparseVec::indices`].
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Value at coordinate `i` (0.0 if not stored).
    pub fn get(&self, i: u32) -> f32 {
        match self.indices.binary_search(&i) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// `true` if coordinate `i` is stored.
    pub fn contains(&self, i: u32) -> bool {
        self.indices.binary_search(&i).is_ok()
    }

    /// Iterator over `(index, value)` pairs in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Multiplies every stored value by `s`.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.values {
            *v *= s;
        }
    }

    /// Merge-adds two sparse vectors (exact sparse sum, no truncation).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn add(&self, other: &SparseVec) -> SparseVec {
        assert_eq!(self.dim, other.dim, "dimension mismatch in sparse add");
        let mut indices = Vec::with_capacity(self.nnz() + other.nnz());
        let mut values = Vec::with_capacity(self.nnz() + other.nnz());
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.nnz() || b < other.nnz() {
            let ia = self.indices.get(a).copied();
            let ib = other.indices.get(b).copied();
            match (ia, ib) {
                (Some(x), Some(y)) if x == y => {
                    indices.push(x);
                    values.push(self.values[a] + other.values[b]);
                    a += 1;
                    b += 1;
                }
                (Some(x), Some(y)) if x < y => {
                    indices.push(x);
                    values.push(self.values[a]);
                    a += 1;
                }
                (Some(_), Some(y)) => {
                    indices.push(y);
                    values.push(other.values[b]);
                    b += 1;
                }
                (Some(x), None) => {
                    indices.push(x);
                    values.push(self.values[a]);
                    a += 1;
                }
                (None, Some(y)) => {
                    indices.push(y);
                    values.push(other.values[b]);
                    b += 1;
                }
                (None, None) => unreachable!("loop condition guarantees one side"),
            }
        }
        SparseVec {
            dim: self.dim,
            indices,
            values,
        }
    }

    /// Splits entries into those whose index is in `keep` and the rest.
    ///
    /// Used by the trainer to separate globally-accepted coordinates from
    /// locally-selected-but-globally-rejected ones (Algorithm 4, line 10).
    ///
    /// # Panics
    ///
    /// Panics if `keep` was built for a different dimension.
    pub fn partition_by(&self, keep: &crate::Mask) -> (SparseVec, SparseVec) {
        let mut kept = SparseVec::empty(self.dim);
        let mut rejected = SparseVec::empty(self.dim);
        self.partition_by_into(keep, &mut kept, &mut rejected);
        (kept, rejected)
    }

    /// Like [`SparseVec::partition_by`] but writing into caller-provided
    /// vectors (cleared first), reusing their buffers.
    ///
    /// # Panics
    ///
    /// Panics if `keep` was built for a different dimension.
    pub fn partition_by_into(
        &self,
        keep: &crate::Mask,
        kept: &mut SparseVec,
        rejected: &mut SparseVec,
    ) {
        assert_eq!(self.dim, keep.dim(), "mask dimension mismatch");
        kept.dim = self.dim;
        kept.indices.clear();
        kept.values.clear();
        rejected.dim = self.dim;
        rejected.indices.clear();
        rejected.values.clear();
        // Both index lists ascend: one forward walk of the mask serves
        // every entry.
        let mut mask = keep.indices().iter().peekable();
        for (i, v) in self.iter() {
            while mask.next_if(|&&m| m < i).is_some() {}
            let side = if mask.peek() == Some(&&i) {
                &mut *kept
            } else {
                &mut *rejected
            };
            side.indices.push(i);
            side.values.push(v);
        }
    }

    /// Merge-adds `self + other` into `out` (cleared first), reusing
    /// `out`'s buffers — the allocation-free form of [`SparseVec::add`].
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ or `out` aliases an input.
    pub fn add_into(&self, other: &SparseVec, out: &mut SparseVec) {
        assert_eq!(self.dim, other.dim, "dimension mismatch in sparse add");
        out.dim = self.dim;
        out.indices.clear();
        out.values.clear();
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.nnz() && b < other.nnz() {
            let (x, y) = (self.indices[a], other.indices[b]);
            match x.cmp(&y) {
                std::cmp::Ordering::Equal => {
                    out.indices.push(x);
                    out.values.push(self.values[a] + other.values[b]);
                    a += 1;
                    b += 1;
                }
                std::cmp::Ordering::Less => {
                    out.indices.push(x);
                    out.values.push(self.values[a]);
                    a += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.indices.push(y);
                    out.values.push(other.values[b]);
                    b += 1;
                }
            }
        }
        out.indices.extend_from_slice(&self.indices[a..]);
        out.values.extend_from_slice(&self.values[a..]);
        out.indices.extend_from_slice(&other.indices[b..]);
        out.values.extend_from_slice(&other.values[b..]);
    }

    /// Splits entries at a coordinate boundary: entries with index
    /// `< boundary` go to `lo`, the rest to `hi` (both cleared first,
    /// buffers reused — no allocation once capacity suffices).
    ///
    /// This is the split primitive of the recursive-halving sparse
    /// collectives: one binary search, two bulk copies.
    pub fn split_at_into(&self, boundary: u32, lo: &mut SparseVec, hi: &mut SparseVec) {
        let cut = self.indices.partition_point(|&i| i < boundary);
        lo.dim = self.dim;
        lo.indices.clear();
        lo.values.clear();
        lo.indices.extend_from_slice(&self.indices[..cut]);
        lo.values.extend_from_slice(&self.values[..cut]);
        hi.dim = self.dim;
        hi.indices.clear();
        hi.values.clear();
        hi.indices.extend_from_slice(&self.indices[cut..]);
        hi.values.extend_from_slice(&self.values[cut..]);
    }

    /// L2 norm of the stored values.
    pub fn norm2(&self) -> f32 {
        self.values.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Consumes the vector into `(dim, indices, values)`.
    pub fn into_parts(self) -> (usize, Vec<u32>, Vec<f32>) {
        (self.dim, self.indices, self.values)
    }
}

impl fmt::Display for SparseVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SparseVec(dim={}, nnz={})", self.dim, self.nnz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_merges_duplicates() {
        let v = SparseVec::from_pairs(10, vec![(7, 1.0), (2, 2.0), (7, 0.5)]);
        assert_eq!(v.indices(), &[2, 7]);
        assert_eq!(v.values(), &[2.0, 1.5]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_pairs_rejects_out_of_range() {
        let _ = SparseVec::from_pairs(4, vec![(4, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_unsorted() {
        let _ = SparseVec::from_sorted(4, vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    fn dense_roundtrip() {
        let v = SparseVec::from_pairs(5, vec![(0, 1.0), (4, -2.0)]);
        assert_eq!(v.to_dense(), vec![1.0, 0.0, 0.0, 0.0, -2.0]);
        let mut buf = vec![1.0; 5];
        v.add_into_dense(&mut buf);
        assert_eq!(buf, vec![2.0, 1.0, 1.0, 1.0, -1.0]);
    }

    #[test]
    fn get_and_contains() {
        let v = SparseVec::from_pairs(5, vec![(1, 9.0)]);
        assert_eq!(v.get(1), 9.0);
        assert_eq!(v.get(2), 0.0);
        assert!(v.contains(1));
        assert!(!v.contains(0));
    }

    #[test]
    fn sparse_add_matches_dense_add() {
        let a = SparseVec::from_pairs(6, vec![(0, 1.0), (3, 2.0), (5, -1.0)]);
        let b = SparseVec::from_pairs(6, vec![(1, 4.0), (3, -2.0)]);
        let c = a.add(&b);
        let mut expect = a.to_dense();
        for (x, y) in expect.iter_mut().zip(b.to_dense()) {
            *x += y;
        }
        assert_eq!(c.to_dense(), expect);
        // exact cancellation keeps the explicit entry (value 0.0) — that is
        // fine for correctness; nnz may count it.
        assert_eq!(c.get(3), 0.0);
    }

    #[test]
    fn scale_scales_all() {
        let mut v = SparseVec::from_pairs(3, vec![(0, 2.0), (2, -4.0)]);
        v.scale(0.5);
        assert_eq!(v.values(), &[1.0, -2.0]);
    }

    #[test]
    fn empty_vector_behaves() {
        let v = SparseVec::empty(4);
        assert!(v.is_empty());
        assert_eq!(v.nnz(), 0);
        assert_eq!(v.to_dense(), vec![0.0; 4]);
        assert_eq!(v.add(&v).nnz(), 0);
    }

    #[test]
    fn display_mentions_dims() {
        let v = SparseVec::from_pairs(9, vec![(3, 1.0)]);
        assert_eq!(v.to_string(), "SparseVec(dim=9, nnz=1)");
    }

    #[test]
    fn empty_with_buffers_reuses_capacity() {
        let (_, idx, val) = SparseVec::from_pairs(8, vec![(1, 1.0), (5, 2.0)]).into_parts();
        let cap = idx.capacity();
        let v = SparseVec::empty_with_buffers(16, idx, val);
        assert!(v.is_empty());
        assert_eq!(v.dim(), 16);
        let (_, idx2, _) = v.into_parts();
        assert_eq!(idx2.capacity(), cap);
    }

    #[test]
    fn copy_from_matches_clone() {
        let src = SparseVec::from_pairs(12, vec![(0, 1.0), (7, -2.0)]);
        let mut dst = SparseVec::from_pairs(3, vec![(1, 9.0)]);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.clear();
        assert!(dst.is_empty());
        assert_eq!(dst.dim(), 12);
    }

    #[test]
    fn add_into_matches_add() {
        let a = SparseVec::from_pairs(10, vec![(0, 1.0), (3, 2.0), (9, -1.0)]);
        let b = SparseVec::from_pairs(10, vec![(1, 4.0), (3, -2.0), (8, 5.0)]);
        let mut out = SparseVec::from_pairs(2, vec![(0, 99.0)]);
        a.add_into(&b, &mut out);
        assert_eq!(out, a.add(&b));
        // Empty operands hit the tail-extend paths.
        let e = SparseVec::empty(10);
        a.add_into(&e, &mut out);
        assert_eq!(out, a);
        e.add_into(&b, &mut out);
        assert_eq!(out, b);
    }

    #[test]
    fn split_at_into_partitions_by_coordinate() {
        let v = SparseVec::from_pairs(16, vec![(0, 1.0), (3, 2.0), (8, -1.0), (15, 4.0)]);
        let mut lo = SparseVec::from_pairs(2, vec![(0, 9.0)]);
        let mut hi = SparseVec::empty(2);
        v.split_at_into(8, &mut lo, &mut hi);
        assert_eq!(lo, SparseVec::from_pairs(16, vec![(0, 1.0), (3, 2.0)]));
        assert_eq!(hi, SparseVec::from_pairs(16, vec![(8, -1.0), (15, 4.0)]));
        // Degenerate boundaries: everything on one side.
        v.split_at_into(0, &mut lo, &mut hi);
        assert!(lo.is_empty());
        assert_eq!(hi, v);
        v.split_at_into(16, &mut lo, &mut hi);
        assert_eq!(lo, v);
        assert!(hi.is_empty());
    }

    #[test]
    fn partition_by_matches_per_entry_membership_lookup() {
        // The reference: one `Mask::contains` binary search per entry.
        let reference = |v: &SparseVec, keep: &crate::Mask| {
            let (inside, outside): (Vec<_>, Vec<_>) =
                v.iter().partition(|&(i, _)| keep.contains(i));
            (
                SparseVec::from_pairs(v.dim(), inside),
                SparseVec::from_pairs(v.dim(), outside),
            )
        };
        let dim = 4000usize;
        let pseudo = |salt: u64, every: u64| -> Vec<u32> {
            (0..dim as u64)
                .filter(|i| {
                    ((i ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40).is_multiple_of(every)
                })
                .map(|i| i as u32)
                .collect()
        };
        let vec_of = |idx: &[u32]| {
            SparseVec::from_pairs(dim, idx.iter().map(|&i| (i, i as f32 - 7.5)).collect())
        };
        let random = pseudo(1, 3);
        assert!((dim / 6..dim / 2).contains(&random.len()));
        let evens: Vec<u32> = (0..dim as u32).step_by(2).collect();
        let odds: Vec<u32> = (1..dim as u32).step_by(2).collect();
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (random.clone(), pseudo(2, 2)),   // random overlap
            (random.clone(), pseudo(3, 40)),  // sparse mask
            (pseudo(4, 50), random.clone()),  // mask denser than the vector
            (random.clone(), Vec::new()),     // empty mask
            (Vec::new(), random.clone()),     // empty vector
            (evens, odds),                    // disjoint, interleaved
            (random.clone(), random.clone()), // identical
            (vec![dim as u32 - 1], vec![0]),  // mask ends before the entry
        ];
        for (entries, mask) in cases {
            let v = vec_of(&entries);
            let keep = crate::Mask::from_indices(dim, mask);
            let (kept, rejected) = v.partition_by(&keep);
            let (want_kept, want_rejected) = reference(&v, &keep);
            assert_eq!(kept, want_kept);
            assert_eq!(rejected, want_rejected);
            assert_eq!(kept.nnz() + rejected.nnz(), v.nnz());
        }
    }

    #[test]
    fn partition_by_into_matches_partition_by() {
        let v = SparseVec::from_pairs(8, vec![(0, 1.0), (2, 2.0), (5, 3.0)]);
        let keep = crate::Mask::from_indices(8, vec![2, 6]);
        let (k1, r1) = v.partition_by(&keep);
        let mut k2 = SparseVec::from_pairs(1, vec![(0, 7.0)]);
        let mut r2 = SparseVec::empty(1);
        v.partition_by_into(&keep, &mut k2, &mut r2);
        assert_eq!(k1, k2);
        assert_eq!(r1, r2);
    }
}
