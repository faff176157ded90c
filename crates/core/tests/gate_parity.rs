//! Gate-policy parity and kriging-variance property suite.
//!
//! Pins four contracts of the pluggable decision gate:
//!
//! * **Parity** — [`GatePolicy::Fixed`] and a `Variance` gate with an
//!   infinite threshold are **bitwise identical** (outcome values,
//!   variances, statistics) on both the sequential and the batch path,
//!   because the admission rule is shared and an infinite threshold
//!   accepts every solve.
//! * **Behaviour** — a tiny threshold rejects every converged solve:
//!   nothing kriges, rejections are counted separately from numerical
//!   failures, and the query-count invariant survives.
//! * **Variance math** — σ² ≥ 0 (clamped) and finite for arbitrary
//!   neighbour sets, σ² ≈ 0 when the target coincides with a system site
//!   (within jitter tolerance), and the multi-RHS batch variance is
//!   bitwise equal to single-target variance.
//! * **Batch rule** — a gate-rejected slot's simulation enters the store at
//!   the end of its batch, so later slots of the batch do not see it.

use krigeval_core::kriging::{FactoredKriging, KrigingScratch};
use krigeval_core::trace::Source;
use krigeval_core::variogram::VariogramModel;
use krigeval_core::{
    Config, DistanceMetric, EvalError, FnEvaluator, GatePolicy, HybridEvaluator, HybridSettings,
    HybridStats, NuggetPolicy, Outcome, VariogramPolicy,
};
use proptest::prelude::*;

fn smooth_eval() -> FnEvaluator<impl FnMut(&Config) -> Result<f64, EvalError>> {
    FnEvaluator::new(2, |w: &Config| {
        let p = 1.5 * 2f64.powi(-2 * w[0]) + 0.8 * 2f64.powi(-2 * w[1]);
        Ok(-10.0 * p.log10())
    })
}

fn settings(gate: GatePolicy) -> HybridSettings {
    HybridSettings {
        gate,
        ..HybridSettings::default()
    }
}

/// The query stream shared by the parity tests: a dense warm-up grid that
/// identifies the variogram, then a ring of fresh targets most of which
/// krige.
fn stream() -> Vec<Config> {
    let mut qs = Vec::new();
    for a in 5..11 {
        for b in 5..10 {
            qs.push(vec![a, b]);
        }
    }
    for b in 5..10 {
        qs.push(vec![11, b]);
        qs.push(vec![4, b]);
    }
    qs
}

fn run_sequential(gate: GatePolicy) -> (Vec<(u64, Option<u64>)>, HybridStats) {
    let mut h = HybridEvaluator::new(smooth_eval(), settings(gate));
    let mut out = Vec::new();
    for q in stream() {
        let o = h.evaluate(&q).unwrap();
        let variance_bits = match &o {
            Outcome::Kriged { variance, .. } => Some(variance.to_bits()),
            Outcome::Simulated { .. } => None,
        };
        out.push((o.value().to_bits(), variance_bits));
    }
    (out, h.stats().clone())
}

fn run_batched(gate: GatePolicy) -> (Vec<(u64, Option<u64>)>, HybridStats) {
    let mut h = HybridEvaluator::new(smooth_eval(), settings(gate));
    let mut out = Vec::new();
    for chunk in stream().chunks(7) {
        for o in h.evaluate_batch(chunk).unwrap() {
            let variance_bits = match &o {
                Outcome::Kriged { variance, .. } => Some(variance.to_bits()),
                Outcome::Simulated { .. } => None,
            };
            out.push((o.value().to_bits(), variance_bits));
        }
    }
    (out, h.stats().clone())
}

#[test]
fn infinite_variance_gate_is_bitwise_identical_to_fixed_sequential() {
    let fixed = run_sequential(GatePolicy::Fixed);
    let infinite = run_sequential(GatePolicy::Variance {
        threshold: f64::INFINITY,
    });
    assert_eq!(fixed, infinite);
    assert!(fixed.1.kriged > 0, "stream must exercise kriging");
    assert_eq!(fixed.1.gate_rejections, 0);
}

#[test]
fn infinite_variance_gate_is_bitwise_identical_to_fixed_batched() {
    let fixed = run_batched(GatePolicy::Fixed);
    let infinite = run_batched(GatePolicy::Variance {
        threshold: f64::INFINITY,
    });
    assert_eq!(fixed, infinite);
    assert!(fixed.1.kriged > 0, "stream must exercise kriging");
}

#[test]
fn tiny_threshold_rejects_every_solve_sequential() {
    let (outcomes, stats) = run_sequential(GatePolicy::Variance { threshold: 1e-300 });
    assert_eq!(stats.kriged, 0, "nothing may pass a 1e-300 σ² bar");
    assert!(stats.gate_rejections > 0, "solves must reach the gate");
    assert_eq!(
        stats.kriging_failures, 0,
        "rejections are not numerical failures"
    );
    assert_eq!(
        stats.queries,
        stats.simulated + stats.kriged + stats.cache_hits
    );
    assert!(outcomes.iter().all(|(_, v)| v.is_none()));
}

#[test]
fn tiny_threshold_rejects_every_solve_batched() {
    let (outcomes, stats) = run_batched(GatePolicy::Variance { threshold: 1e-300 });
    assert_eq!(stats.kriged, 0);
    assert!(stats.gate_rejections > 0);
    assert_eq!(stats.kriging_failures, 0);
    assert_eq!(
        stats.queries,
        stats.simulated + stats.kriged + stats.cache_hits
    );
    assert!(outcomes.iter().all(|(_, v)| v.is_none()));
}

#[test]
fn gate_rejected_queries_return_simulator_truth() {
    // A rejected prediction must be answered by the simulator, value-exact.
    let (gated, _) = run_sequential(GatePolicy::Variance { threshold: 1e-300 });
    let mut sim = smooth_eval();
    use krigeval_core::EvalBackend;
    for (q, (bits, _)) in stream().iter().zip(&gated) {
        let truth = sim.fulfill_one(q).unwrap();
        assert_eq!(*bits, truth.to_bits());
    }
}

#[test]
fn moderate_threshold_accepts_only_low_variance_predictions() {
    let threshold = {
        // Calibrate: the fixed-gate run's mean σ² splits the population.
        let (_, stats) = run_sequential(GatePolicy::Fixed);
        assert!(stats.variance_sum > 0.0);
        stats.mean_variance()
    };
    let mut h = HybridEvaluator::new(smooth_eval(), settings(GatePolicy::Variance { threshold }));
    for q in stream() {
        if let Outcome::Kriged { variance, .. } = h.evaluate(&q).unwrap() {
            assert!(
                variance <= threshold,
                "accepted σ² {variance} above threshold {threshold}"
            );
        }
    }
    assert_eq!(
        h.stats().queries,
        h.stats().simulated + h.stats().kriged + h.stats().cache_hits
    );
}

#[test]
fn nugget_estimate_raises_variance_at_replicated_sites() {
    // Replicated noisy observations around a smooth trend: the estimated
    // nugget must be positive and the kriged σ² at a nearby target at
    // least nugget-sized (kriging cannot be more certain than the noise).
    let mut h = HybridEvaluator::new(
        smooth_eval(),
        HybridSettings {
            nugget: Some(NuggetPolicy::Estimate),
            ..HybridSettings::default()
        },
    );
    let noise = [0.4, -0.4, 0.2, -0.2];
    let mut k = 0usize;
    for a in 6..10 {
        for b in 6..10 {
            let base = -10.0 * (1.5 * 2f64.powi(-2 * a) + 0.8 * 2f64.powi(-2 * b)).log10();
            let eps = noise[k % noise.len()];
            k += 1;
            h.record_observation(&vec![a, b], base + eps);
            h.record_observation(&vec![a, b], base - eps);
        }
    }
    let nugget = h.effective_nugget();
    assert!(nugget > 0.0, "replicates must produce a positive nugget");
    let out = h.evaluate(&vec![8, 10]).unwrap();
    if let Outcome::Kriged { variance, .. } = out {
        assert!(
            variance >= 0.5 * nugget,
            "σ² {variance} implausibly small against nugget {nugget}"
        );
    }
}

/// Shared site pool for the variance property tests.
fn pool_model() -> VariogramModel {
    VariogramModel::exponential(0.0, 2.0, 5.0).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// σ² is non-negative (post-clamp) and finite for arbitrary neighbour
    /// sets whenever the solve converges.
    #[test]
    fn variance_is_nonnegative_for_arbitrary_neighbor_sets(
        dim in 1usize..4,
        raw_sites in proptest::collection::vec(
            proptest::collection::vec(0i32..10, 4), 3..12),
        target in proptest::collection::vec(0i32..10, 4),
        which in 0usize..4,
    ) {
        let metric = DistanceMetric::L1;
        let model = match which {
            0 => VariogramModel::linear(1.3),
            1 => VariogramModel::exponential(0.0, 2.0, 5.0).unwrap(),
            2 => VariogramModel::gaussian(0.05, 1.5, 4.0).unwrap(),
            _ => VariogramModel::spherical(0.2, 3.0, 6.0).unwrap(),
        };
        let sites: Vec<Config> = raw_sites.iter().map(|s| s[..dim].to_vec()).collect();
        let target: Config = target[..dim].to_vec();
        let n = sites.len();
        let mut scratch = KrigingScratch::new();
        let solved = scratch.solve_with(n, |i, j| {
            if j == n {
                model.evaluate(metric.eval_config(&sites[i], &target))
            } else {
                model.evaluate(metric.eval_config(&sites[i], &sites[j]))
            }
        });
        if solved.is_ok() {
            let variance = scratch.variance();
            prop_assert!(variance.is_finite(), "σ² = {variance}");
            prop_assert!(variance >= 0.0, "σ² = {variance} negative after clamp");
        }
    }

    /// When the target coincides with a system site, exact interpolation
    /// forces σ² ≈ 0 (up to the jitter the ladder may have added).
    #[test]
    fn variance_vanishes_at_sampled_sites(
        dim in 1usize..4,
        raw_sites in proptest::collection::vec(
            proptest::collection::vec(0i32..40, 4), 4..10),
        pick in 0usize..10,
    ) {
        let metric = DistanceMetric::L1;
        let model = pool_model();
        // Deduplicate so the system is well-separated: the jitter ladder
        // stays on rung 0 and the tolerance below is honest.
        let mut sites: Vec<Config> = raw_sites.iter().map(|s| s[..dim].to_vec()).collect();
        sites.sort();
        sites.dedup();
        prop_assume!(sites.len() >= 3);
        let target = sites[pick % sites.len()].clone();
        let n = sites.len();
        let mut scratch = KrigingScratch::new();
        let solved = scratch.solve_with(n, |i, j| {
            if j == n {
                model.evaluate(metric.eval_config(&sites[i], &target))
            } else {
                model.evaluate(metric.eval_config(&sites[i], &sites[j]))
            }
        });
        prop_assume!(solved.is_ok());
        prop_assume!(scratch.jitter_retries() == 0);
        let variance = scratch.variance();
        prop_assert!(
            variance.abs() < 1e-6,
            "σ² = {variance} at an exactly-sampled site"
        );
    }

    /// Multi-RHS factored prediction returns bitwise the same σ² as the
    /// single-target path (the variance face of the PR 8 value parity).
    #[test]
    fn batch_variance_bitwise_equals_single_query_variance(
        dim in 1usize..4,
        raw_sites in proptest::collection::vec(
            proptest::collection::vec(0i32..12, 4), 3..10),
        raw_targets in proptest::collection::vec(
            proptest::collection::vec(0i32..12, 4), 1..8),
        values in proptest::collection::vec(-4.0f64..9.0, 10usize),
    ) {
        let metric = DistanceMetric::L1;
        let model = pool_model();
        let mut sites: Vec<Config> = raw_sites.iter().map(|s| s[..dim].to_vec()).collect();
        sites.sort();
        sites.dedup();
        prop_assume!(sites.len() >= 2);
        let n = sites.len();
        let flat: Vec<f64> = sites
            .iter()
            .flat_map(|s| s.iter().map(|&x| f64::from(x)))
            .collect();
        let vals = values[..n].to_vec();
        let Ok(fk) = FactoredKriging::from_flat(model, metric, flat, dim, vals) else {
            // Singular pools are the jitter ladder's business, not this
            // test's.
            return Ok(());
        };
        let targets: Vec<Vec<f64>> = raw_targets
            .iter()
            .map(|t| t[..dim].iter().map(|&x| f64::from(x)).collect())
            .collect();
        let slab: Vec<f64> = targets.iter().flatten().copied().collect();
        let many = fk.predict_many(&slab, dim).unwrap();
        prop_assert_eq!(many.len(), targets.len());
        for (t, p) in targets.iter().zip(&many) {
            let single = fk.predict(t).unwrap();
            prop_assert_eq!(single.value.to_bits(), p.value.to_bits());
            prop_assert_eq!(single.variance.to_bits(), p.variance.to_bits());
        }
    }
}

/// The batch rule for gate-rejected (and failed) solves: their simulations
/// enter the store at the end of the batch, so later slots of the same
/// batch do not see them as neighbours. One-slot calls store them at once.
#[test]
fn gate_rejected_simulations_enter_the_store_at_the_end_of_a_batch() {
    let session = || {
        let mut h = HybridEvaluator::new(
            smooth_eval(),
            HybridSettings {
                variogram: VariogramPolicy::Fixed(VariogramModel::linear(1.0)),
                gate: GatePolicy::Variance { threshold: 1.0 },
                ..HybridSettings::default()
            },
        );
        for a in 4..8 {
            for b in 4..8 {
                h.simulate_exact(&vec![a, b]).unwrap();
            }
        }
        h
    };
    // `x` has four neighbours two to three steps away (σ² = 4, rejected);
    // `y` has only three until `x` is stored one step away.
    let (x, y) = (vec![9, 6], vec![9, 7]);

    let mut single = session();
    assert_eq!(single.evaluate(&x).unwrap().source(), Source::Simulated);
    let Outcome::Kriged { neighbors, .. } = single.evaluate(&y).unwrap() else {
        panic!("a stored x makes y krigeable");
    };
    assert_eq!(neighbors, 4, "y's system includes x");

    let mut batch = session();
    let out = batch.evaluate_batch(&[x.clone(), y.clone()]).unwrap();
    assert_eq!(out[0].source(), Source::Simulated);
    assert_eq!(
        out[1].source(),
        Source::Simulated,
        "x is not yet stored when y is planned"
    );
    for h in [&single, &batch] {
        assert_eq!(h.stats().gate_rejections, 1);
    }
    assert_eq!(single.stats().kriged, 1);
    assert_eq!(batch.stats().kriged, 0);
    // The batch requested y and stored x's simulation after it.
    let stored = batch.simulated_configs();
    assert_eq!(&stored[stored.len() - 2..], &[y, x]);
}
