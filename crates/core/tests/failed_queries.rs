//! A query whose simulation fails commits nothing.
//!
//! `evaluate` and `simulate_exact` are all-or-nothing like
//! `evaluate_batch`: when the backend fails — the query's own simulation or
//! the audit simulation of a kriged query — `HybridStats`, the published
//! counters and the store are exactly what they were before the call, so
//! `queries == simulated + kriged + cache_hits` survives the error.

use krigeval_core::hybrid::AuditMetric;
use krigeval_core::trace::Source;
use krigeval_core::{Config, EvalError, FnEvaluator, HybridEvaluator, HybridObs, HybridSettings};
use krigeval_obs::{Registry, Tracer};

/// The smooth noise surface, failing for `w[0] >= 12`.
fn failing_surface(w: &Config) -> Result<f64, EvalError> {
    if w[0] >= 12 {
        return Err(EvalError::msg("simulator rejects w0 >= 12"));
    }
    let p = 1.5 * 2f64.powi(-2 * w[0]) + 0.8 * 2f64.powi(-2 * w[1]);
    Ok(-10.0 * p.log10())
}

type Sim = FnEvaluator<fn(&Config) -> Result<f64, EvalError>>;

fn session(settings: HybridSettings) -> (HybridEvaluator<Sim>, Registry) {
    let registry = Registry::new();
    let sim = FnEvaluator::new(2, failing_surface as fn(&Config) -> Result<f64, EvalError>);
    let hybrid =
        HybridEvaluator::new(sim, settings).with_obs(HybridObs::new(&registry, Tracer::disabled()));
    (hybrid, registry)
}

/// Runs `op`, which must fail, and checks that nothing was committed.
fn assert_commits_nothing(
    hybrid: &mut HybridEvaluator<Sim>,
    registry: &Registry,
    op: impl FnOnce(&mut HybridEvaluator<Sim>) -> Result<(), EvalError>,
) {
    let stats = hybrid.stats().clone();
    let counters = registry.snapshot().counters_json();
    let stored = hybrid.simulated_configs().to_vec();
    let err = op(hybrid).unwrap_err();
    assert!(err.to_string().contains("rejects"), "{err}");
    assert_eq!(hybrid.stats(), &stats, "stats must be untouched");
    assert_eq!(registry.snapshot().counters_json(), counters);
    assert_eq!(hybrid.simulated_configs(), stored.as_slice());
    let s = hybrid.stats();
    assert_eq!(s.queries, s.simulated + s.kriged + s.cache_hits);
}

#[test]
fn failed_simulation_in_evaluate_commits_nothing() {
    let (mut h, registry) = session(HybridSettings::default());
    h.evaluate(&vec![8, 8]).unwrap();
    assert_commits_nothing(&mut h, &registry, |h| h.evaluate(&vec![12, 8]).map(|_| ()));
}

#[test]
fn failed_simulation_in_simulate_exact_commits_nothing() {
    let (mut h, registry) = session(HybridSettings::default());
    h.simulate_exact(&vec![8, 8]).unwrap();
    assert_commits_nothing(&mut h, &registry, |h| {
        h.simulate_exact(&vec![12, 8]).map(|_| ())
    });
}

#[test]
fn failed_audit_simulation_of_a_kriged_query_commits_nothing() {
    let settings = HybridSettings {
        audit: Some(AuditMetric::NoisePowerDb),
        ..HybridSettings::default()
    };
    let (mut h, registry) = session(settings);
    for a in 7..12 {
        for b in 6..10 {
            h.simulate_exact(&vec![a, b]).unwrap();
        }
    }
    assert!(h.model().is_some(), "variogram must be identified");
    // Without the audit, the query beside the grid kriges.
    let (mut plain, _) = session(HybridSettings::default());
    for a in 7..12 {
        for b in 6..10 {
            plain.simulate_exact(&vec![a, b]).unwrap();
        }
    }
    let probe = vec![12, 8];
    assert_eq!(plain.evaluate(&probe).unwrap().source(), Source::Kriged);
    assert_commits_nothing(&mut h, &registry, |h| h.evaluate(&probe).map(|_| ()));
}

#[test]
fn failed_audit_round_rolls_back_the_batch_insertions() {
    let settings = HybridSettings {
        audit: Some(AuditMetric::NoisePowerDb),
        ..HybridSettings::default()
    };
    // Nine sites, one short of the default ten-sample fit threshold.
    let warm = |h: &mut HybridEvaluator<Sim>| {
        for a in 9..12 {
            for b in 6..9 {
                h.simulate_exact(&vec![a, b]).unwrap();
            }
        }
    };
    let (mut h, registry) = session(settings.clone());
    warm(&mut h);
    assert!(h.model().is_none());
    // The first slot is simulated, inserted and fires the fit; the second
    // then kriges from the fitted model, and its audit (or fallback)
    // simulation fails, so the insertion and the fit must be undone.
    let fresh = vec![11, 9];
    assert_commits_nothing(&mut h, &registry, |h| {
        h.evaluate_batch(&[fresh.clone(), vec![12, 7]]).map(|_| ())
    });
    assert!(h.model().is_none(), "the fit must be rolled back");
    assert!(h.fit_report().is_none());

    // The session continues exactly like one that never saw the failure.
    let (mut reference, _) = session(settings);
    warm(&mut reference);
    let probe = [fresh, vec![10, 9]];
    assert_eq!(
        h.evaluate_batch(&probe).unwrap(),
        reference.evaluate_batch(&probe).unwrap()
    );
    assert_eq!(h.model(), reference.model());
    assert_eq!(h.stats(), reference.stats());
}
