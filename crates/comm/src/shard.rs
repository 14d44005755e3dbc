//! Contiguous model sharding for the parameter-server execution family.
//!
//! A [`ShardMap`] splits a `dim`-element model into `S` contiguous
//! regions, one per server shard. Region `s` owns `range(s)`; the rank
//! hosting it is `members[s % members.len()]`, so shards stay co-located
//! with worker ranks (every server is also a worker, as in the classic
//! co-located PS deployment) and a shrunken membership simply remaps
//! shards onto the survivors.
//!
//! The map also apportions a global top-`k` budget across regions
//! (largest-remainder method, proportional to region length), which
//! makes every push payload's wire size a *static* function of the
//! configuration — the property the plan-clock replay
//! (`gtopk_perfmodel::ps_plan_ms`) relies on to reproduce executed time
//! bit-for-bit.

use std::ops::Range;

/// Contiguous sharding of a `dim`-element model across `S` servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    dim: usize,
    /// `S + 1` region boundaries: shard `s` owns `starts[s]..starts[s+1]`.
    starts: Vec<usize>,
}

impl ShardMap {
    /// Splits `dim` coordinates into `shards` near-equal contiguous
    /// regions (the first `dim % shards` regions are one element longer).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `shards > dim`.
    pub fn new(dim: usize, shards: usize) -> Self {
        assert!(shards > 0, "shard map needs at least one shard");
        assert!(
            shards <= dim,
            "cannot split {dim} coordinates into {shards} shards"
        );
        let base = dim / shards;
        let extra = dim % shards;
        let mut starts = Vec::with_capacity(shards + 1);
        let mut at = 0usize;
        for s in 0..shards {
            starts.push(at);
            at += base + usize::from(s < extra);
        }
        starts.push(at);
        debug_assert_eq!(at, dim);
        ShardMap { dim, starts }
    }

    /// Model dimension covered by the map.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of server shards.
    pub fn num_shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// The contiguous coordinate region owned by shard `s`.
    pub fn range(&self, s: usize) -> Range<usize> {
        self.starts[s]..self.starts[s + 1]
    }

    /// Length of shard `s`'s region.
    pub fn len(&self, s: usize) -> usize {
        self.starts[s + 1] - self.starts[s]
    }

    /// Whether the map covers zero coordinates (never true for a
    /// constructed map; present for clippy's `len`-without-`is_empty`).
    pub fn is_empty(&self) -> bool {
        self.dim == 0
    }

    /// The shard owning coordinate `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= dim`.
    pub fn owner_of(&self, i: usize) -> usize {
        assert!(i < self.dim, "coordinate {i} out of range {}", self.dim);
        // Regions differ in length by at most one; partition_point on the
        // boundary list finds the region in O(log S).
        self.starts.partition_point(|&b| b <= i) - 1
    }

    /// The member rank hosting shard `s` under `members` (ascending live
    /// membership): shards map round-robin onto members, so `S <= P`
    /// gives one shard per distinct host and a shrunken membership
    /// re-hosts the orphaned shards deterministically.
    pub fn host(&self, s: usize, members: &[usize]) -> usize {
        members[s % members.len()]
    }

    /// Apportions a global top-`k` budget across shards by the
    /// largest-remainder method, proportional to region length, capped at
    /// the region length; budgets sum to `min(k, dim)`.
    ///
    /// The budget vector depends only on `(dim, S, k)` — never on
    /// gradient content — so per-shard push wire sizes are statically
    /// known.
    pub fn budgets(&self, k: usize) -> Vec<usize> {
        let shards = self.num_shards();
        let k = k.min(self.dim);
        let mut floors = Vec::with_capacity(shards);
        // (remainder numerator, shard) pairs for the leftover seats.
        let mut rema: Vec<(usize, usize)> = Vec::with_capacity(shards);
        let mut assigned = 0usize;
        for s in 0..shards {
            let exact_num = k * self.len(s); // k * len / dim, kept as a fraction
            let floor = exact_num / self.dim;
            floors.push(floor);
            assigned += floor;
            rema.push((exact_num % self.dim, s));
        }
        // Hand the remaining seats to the largest remainders; ties go to
        // the lower shard index for determinism.
        rema.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut leftover = k - assigned;
        for &(_, s) in &rema {
            if leftover == 0 {
                break;
            }
            if floors[s] < self.len(s) {
                floors[s] += 1;
                leftover -= 1;
            }
        }
        // If some regions saturated, spill the rest anywhere with room.
        if leftover > 0 {
            for (s, floor) in floors.iter_mut().enumerate() {
                while leftover > 0 && *floor < self.len(s) {
                    *floor += 1;
                    leftover -= 1;
                }
            }
        }
        debug_assert_eq!(floors.iter().sum::<usize>(), k);
        floors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_contiguous_and_cover_dim() {
        for (dim, s) in [(10, 1), (10, 3), (48, 5), (7, 7), (100, 8)] {
            let map = ShardMap::new(dim, s);
            assert_eq!(map.num_shards(), s);
            let mut at = 0;
            for sh in 0..s {
                assert_eq!(map.range(sh).start, at);
                at = map.range(sh).end;
                assert!(map.len(sh) >= dim / s);
                assert!(map.len(sh) <= dim / s + 1);
            }
            assert_eq!(at, dim);
        }
    }

    #[test]
    fn owner_of_matches_ranges() {
        let map = ShardMap::new(29, 4);
        for i in 0..29 {
            let s = map.owner_of(i);
            assert!(map.range(s).contains(&i), "coord {i} -> shard {s}");
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let map = ShardMap::new(64, 1);
        assert_eq!(map.range(0), 0..64);
        assert_eq!(map.budgets(5), vec![5]);
        assert_eq!(map.host(0, &[0, 1, 2, 3]), 0);
    }

    #[test]
    fn budgets_sum_to_k_and_track_region_lengths() {
        for (dim, s, k) in [(100, 4, 10), (101, 3, 7), (48, 5, 5), (16, 8, 3)] {
            let map = ShardMap::new(dim, s);
            let b = map.budgets(k);
            assert_eq!(b.iter().sum::<usize>(), k.min(dim), "dim={dim} s={s}");
            for (sh, &bs) in b.iter().enumerate() {
                assert!(bs <= map.len(sh));
            }
        }
        // Proportionality: a region twice as long gets ~twice the budget.
        let map = ShardMap::new(90, 3);
        let b = map.budgets(30);
        assert_eq!(b, vec![10, 10, 10]);
    }

    #[test]
    fn budgets_cap_at_region_length() {
        // k = dim: every region saturates exactly.
        let map = ShardMap::new(10, 3);
        let b = map.budgets(10);
        assert_eq!(b, vec![4, 3, 3]);
    }

    #[test]
    fn hosts_round_robin_over_members() {
        let map = ShardMap::new(40, 4);
        let members = [1usize, 5];
        assert_eq!(map.host(0, &members), 1);
        assert_eq!(map.host(1, &members), 5);
        assert_eq!(map.host(2, &members), 1);
        assert_eq!(map.host(3, &members), 5);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        ShardMap::new(8, 0);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn more_shards_than_coords_panics() {
        ShardMap::new(3, 4);
    }
}
