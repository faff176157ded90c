//! Radius search over the simulated-configuration store.
//!
//! The hybrid evaluator needs, for every query, "the already simulated
//! configurations within distance `d`" (paper Algorithms 1–2, lines 7–16).
//! A linear scan is fine for hundreds of configurations; [`NeighborIndex`]
//! adds a cheap coordinate-sum pruning bound that typically rejects most
//! candidates without computing the full distance:
//!
//! for any two configurations, `|Σa − Σb| ≤ ‖a − b‖₁`, so a candidate whose
//! coordinate sum differs from the target's by more than `d` can never be a
//! neighbor. Bucketing the store by coordinate sum turns the scan into a
//! window lookup. (For L2/L∞ the bound adapts: `‖·‖₂ ≥ |Σa−Σb|/√n` and
//! `‖·‖∞ ≥ |Σa−Σb|/n`.)

use std::collections::BTreeMap;

use crate::{Config, DistanceMetric};

/// An incrementally built radius-search index over integer configurations.
///
/// Insertion is amortized `O(log N)`: positions live in per-coordinate-sum
/// buckets of a `BTreeMap`, so no sorted-vector shifting occurs.
///
/// # Examples
///
/// ```
/// use krigeval_core::neighbors::NeighborIndex;
/// use krigeval_core::DistanceMetric;
///
/// let mut index = NeighborIndex::new(DistanceMetric::L1);
/// index.insert(vec![8, 8], -40.0);
/// index.insert(vec![9, 8], -46.0);
/// index.insert(vec![16, 16], -90.0);
/// let hits = index.within(&[8, 9], 2.0);
/// assert_eq!(hits.len(), 2); // [8,8] at d=1 and [9,8] at d=2
/// ```
#[derive(Debug, Clone, Default)]
pub struct NeighborIndex {
    metric: DistanceMetric,
    /// Coordinate sum -> store positions with that sum, oldest first.
    by_sum: BTreeMap<i64, Vec<usize>>,
    configs: Vec<Config>,
    values: Vec<f64>,
}

/// One radius-search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor<'a> {
    /// Position in insertion order.
    pub index: usize,
    /// The stored configuration.
    pub config: &'a Config,
    /// The stored metric value.
    pub value: f64,
    /// Distance to the query target.
    pub distance: f64,
}

fn coordinate_sum(config: &[i32]) -> i64 {
    config.iter().map(|&x| i64::from(x)).sum()
}

impl NeighborIndex {
    /// Creates an empty index for the given metric.
    pub fn new(metric: DistanceMetric) -> NeighborIndex {
        NeighborIndex {
            metric,
            by_sum: BTreeMap::new(),
            configs: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of stored configurations.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// `true` if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Inserts a configuration with its metric value, returning its
    /// insertion-order index.
    pub fn insert(&mut self, config: Config, value: f64) -> usize {
        let sum = coordinate_sum(&config);
        let position = self.configs.len();
        self.by_sum.entry(sum).or_default().push(position);
        self.configs.push(config);
        self.values.push(value);
        position
    }

    /// Drops every configuration inserted at position `len` or later,
    /// restoring the index to its state after the first `len` insertions.
    pub(crate) fn truncate(&mut self, len: usize) {
        while self.configs.len() > len {
            let config = self.configs.pop().expect("length checked above");
            self.values.pop();
            let sum = coordinate_sum(&config);
            let bucket = self
                .by_sum
                .get_mut(&sum)
                .expect("every stored sum has a bucket");
            // Positions are pushed in increasing order, so the newest
            // insertion is the last entry of its bucket.
            bucket.pop();
            if bucket.is_empty() {
                self.by_sum.remove(&sum);
            }
        }
    }

    /// Exact-match lookup (for the duplicate cache).
    ///
    /// When a configuration was stored more than once, the most recent
    /// insertion wins.
    pub fn position_of(&self, config: &[i32]) -> Option<usize> {
        // Candidates share the exact coordinate sum; check only those.
        let bucket = self.by_sum.get(&coordinate_sum(config))?;
        bucket
            .iter()
            .rev()
            .copied()
            .find(|&pos| self.configs[pos] == config)
    }

    /// All stored configurations within `radius` of `target`.
    pub fn within(&self, target: &[i32], radius: f64) -> Vec<Neighbor<'_>> {
        let mut buf = Vec::new();
        self.within_into(target, radius, &mut buf);
        buf.into_iter()
            .map(|(pos, distance)| Neighbor {
                index: pos,
                config: &self.configs[pos],
                value: self.values[pos],
                distance,
            })
            .collect()
    }

    /// [`within`](NeighborIndex::within) into a caller-owned buffer of
    /// `(store position, distance)` pairs, sorted by increasing distance
    /// (ties broken by position).
    ///
    /// The buffer is cleared first; reusing it across queries makes the
    /// steady-state search allocation-free.
    pub fn within_into(&self, target: &[i32], radius: f64, out: &mut Vec<(usize, f64)>) {
        out.clear();
        let sum = coordinate_sum(target);
        // Sum-window that the metric's lower bound cannot exclude.
        let n = target.len().max(1) as f64;
        let window = match self.metric {
            DistanceMetric::L1 => radius,
            DistanceMetric::L2 => radius * n.sqrt(),
            DistanceMetric::Linf => radius * n,
        };
        let window = window.floor() as i64;
        let lo = sum.saturating_sub(window);
        let hi = sum.saturating_add(window);
        for bucket in self.by_sum.range(lo..=hi).map(|(_, b)| b) {
            for &pos in bucket {
                let distance = self.metric.eval_config(&self.configs[pos], target);
                if distance <= radius {
                    out.push((pos, distance));
                }
            }
        }
        // sort_unstable: a stable slice sort allocates a merge buffer, and
        // the (distance, position) key is already a total order.
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    }

    /// Stored configurations, in insertion order.
    pub fn configs(&self) -> &[Config] {
        &self.configs
    }

    /// Stored metric values, in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn linear_scan(
        configs: &[Config],
        target: &[i32],
        radius: f64,
        metric: DistanceMetric,
    ) -> Vec<usize> {
        configs
            .iter()
            .enumerate()
            .filter(|(_, c)| metric.eval_config(c, target) <= radius)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn within_matches_linear_scan_on_random_configs() {
        let mut rng = StdRng::seed_from_u64(42);
        for metric in [DistanceMetric::L1, DistanceMetric::L2, DistanceMetric::Linf] {
            let mut index = NeighborIndex::new(metric);
            let mut configs = Vec::new();
            for i in 0..200 {
                let c: Config = (0..5).map(|_| rng.gen_range(2..17)).collect();
                index.insert(c.clone(), f64::from(i));
                configs.push(c);
            }
            for _ in 0..50 {
                let target: Config = (0..5).map(|_| rng.gen_range(2..17)).collect();
                let radius = f64::from(rng.gen_range(1..6));
                let mut got: Vec<usize> = index
                    .within(&target, radius)
                    .iter()
                    .map(|n| n.index)
                    .collect();
                got.sort_unstable();
                let expected = linear_scan(&configs, &target, radius, metric);
                assert_eq!(
                    got, expected,
                    "metric {metric}, target {target:?}, r {radius}"
                );
            }
        }
    }

    #[test]
    fn hits_are_sorted_by_distance() {
        let mut index = NeighborIndex::new(DistanceMetric::L1);
        index.insert(vec![10, 10], 1.0);
        index.insert(vec![8, 8], 2.0);
        index.insert(vec![9, 9], 3.0);
        let hits = index.within(&[9, 9], 4.0);
        let distances: Vec<f64> = hits.iter().map(|h| h.distance).collect();
        assert_eq!(distances, vec![0.0, 2.0, 2.0]);
    }

    #[test]
    fn within_into_reuses_the_buffer() {
        let mut index = NeighborIndex::new(DistanceMetric::L1);
        for i in 0..20 {
            index.insert(vec![i, i], f64::from(i));
        }
        let mut buf = Vec::new();
        index.within_into(&[5, 5], 4.0, &mut buf);
        let first: Vec<(usize, f64)> = buf.clone();
        assert!(!first.is_empty());
        let cap = buf.capacity();
        for _ in 0..10 {
            index.within_into(&[5, 5], 4.0, &mut buf);
        }
        assert_eq!(buf, first);
        assert_eq!(buf.capacity(), cap);
        // Matches the allocating API.
        let hits = index.within(&[5, 5], 4.0);
        let pairs: Vec<(usize, f64)> = hits.iter().map(|h| (h.index, h.distance)).collect();
        assert_eq!(buf, pairs);
    }

    #[test]
    fn position_of_finds_exact_matches_only() {
        let mut index = NeighborIndex::new(DistanceMetric::L1);
        let a = index.insert(vec![4, 5, 6], 0.5);
        let b = index.insert(vec![6, 5, 4], 0.7); // same coordinate sum
        assert_eq!(index.position_of(&[4, 5, 6]), Some(a));
        assert_eq!(index.position_of(&[6, 5, 4]), Some(b));
        assert_eq!(index.position_of(&[5, 5, 5]), None); // same sum, not stored
        assert_eq!(index.position_of(&[9, 9, 9]), None);
    }

    #[test]
    fn position_of_prefers_the_newest_duplicate() {
        let mut index = NeighborIndex::new(DistanceMetric::L1);
        index.insert(vec![7, 7], 1.0);
        let newer = index.insert(vec![7, 7], 2.0);
        assert_eq!(index.position_of(&[7, 7]), Some(newer));
    }

    #[test]
    fn empty_index_behaves() {
        let index = NeighborIndex::new(DistanceMetric::L1);
        assert!(index.is_empty());
        assert_eq!(index.len(), 0);
        assert!(index.within(&[1, 2], 10.0).is_empty());
        assert_eq!(index.position_of(&[1, 2]), None);
    }

    #[test]
    fn truncate_restores_the_shorter_index() {
        let sites: Vec<Config> = vec![vec![4, 4], vec![5, 3], vec![4, 4], vec![6, 6], vec![2, 6]];
        let mut index = NeighborIndex::new(DistanceMetric::L1);
        let mut prefix = NeighborIndex::new(DistanceMetric::L1);
        for (i, c) in sites.iter().enumerate() {
            index.insert(c.clone(), i as f64);
            if i < 2 {
                prefix.insert(c.clone(), i as f64);
            }
        }
        index.truncate(2);
        assert_eq!(index.configs(), prefix.configs());
        assert_eq!(index.values(), prefix.values());
        assert_eq!(index.by_sum, prefix.by_sum);
        assert_eq!(index.position_of(&[4, 4]), Some(0));
        assert_eq!(index.position_of(&[6, 6]), None);
    }

    #[test]
    fn values_and_configs_keep_insertion_order() {
        let mut index = NeighborIndex::new(DistanceMetric::L1);
        index.insert(vec![9], 1.0);
        index.insert(vec![3], 2.0);
        index.insert(vec![6], 3.0);
        assert_eq!(index.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(index.configs()[1], vec![3]);
    }
}
