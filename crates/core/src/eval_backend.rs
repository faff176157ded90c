//! The fulfillment half of the plan/fulfill evaluation protocol.
//!
//! The hybrid evaluator's planning phase classifies every query — a single
//! [`crate::HybridEvaluator::evaluate`] is a one-slot batch — into cache
//! hits, krigeable queries, and a deduplicated list of
//! [`SimulationRequest`]s without touching the simulator. *Fulfilling* those requests — actually running the
//! simulations — is delegated to an [`EvalBackend`], so the same planning
//! logic can run against an inline simulator (zero overhead, the blanket
//! impl below) or against a worker pool that fans the requests out in
//! parallel (the engine crate's `EngineBackend`).
//!
//! The protocol's determinism contract: a backend must return one value per
//! request, in request order, and those values must not depend on how the
//! requests were scheduled. Under that contract the hybrid evaluator's
//! commit phase — which applies results strictly in input-index order —
//! produces bitwise-identical traces and statistics regardless of the
//! backend or its worker count.

use crate::evaluator::{AccuracyEvaluator, EvalError};
use crate::Config;

/// One deduplicated simulation the fulfillment phase must perform.
///
/// Requests carry their configuration by value so a planned batch is
/// self-contained: a backend can ship requests to worker threads (or
/// another process) without borrowing the planner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulationRequest {
    /// The configuration to simulate.
    pub config: Config,
}

impl SimulationRequest {
    /// Wraps a configuration as a request.
    pub fn new(config: Config) -> SimulationRequest {
        SimulationRequest { config }
    }
}

/// Executes the simulation requests a planning phase produced.
///
/// Implementors decide *how* the simulations run (inline, thread pool,
/// shared cache, retries); the planner decides *what* runs. Both methods
/// must be deterministic in their returned values: [`EvalBackend::fulfill`]
/// returns exactly one value per request, in request order, and on failure
/// reports the error of the lowest-indexed failing request so error paths
/// are reproducible across schedules.
pub trait EvalBackend {
    /// Runs every request and returns their metric values in request order.
    ///
    /// # Errors
    ///
    /// Returns the [`EvalError`] of the lowest-indexed failing request.
    /// Callers treat a failed fulfillment as all-or-nothing: no value from
    /// a failed batch may be committed.
    fn fulfill(&mut self, requests: &[SimulationRequest]) -> Result<Vec<f64>, EvalError>;

    /// Runs a single simulation outside any plan (the hybrid evaluator
    /// itself simulates only through [`EvalBackend::fulfill`]); inline
    /// backends answer it with a direct simulator call and no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] if the simulation fails.
    fn fulfill_one(&mut self, config: &Config) -> Result<f64, EvalError>;

    /// Number of metric variables `Nv` the backing simulator expects.
    fn num_variables(&self) -> usize;

    /// Number of simulations performed so far (for `N_λ` accounting).
    fn evaluations(&self) -> u64;
}

/// The inline backend: every [`AccuracyEvaluator`] fulfills requests by
/// simulating them one after another on the caller's thread. This is the
/// zero-overhead default — `HybridEvaluator::new(simulator, settings)`
/// keeps working unchanged, and the sequential query path stays a direct
/// `evaluate` call.
impl<E: AccuracyEvaluator> EvalBackend for E {
    fn fulfill(&mut self, requests: &[SimulationRequest]) -> Result<Vec<f64>, EvalError> {
        // Stop at the first failure: nothing after the lowest failing index
        // is simulated, which both matches the sequential path and keeps
        // the returned error deterministic.
        requests.iter().map(|r| self.evaluate(&r.config)).collect()
    }

    fn fulfill_one(&mut self, config: &Config) -> Result<f64, EvalError> {
        self.evaluate(config)
    }

    fn num_variables(&self) -> usize {
        AccuracyEvaluator::num_variables(self)
    }

    fn evaluations(&self) -> u64 {
        AccuracyEvaluator::evaluations(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnEvaluator;

    fn requests(configs: &[Vec<i32>]) -> Vec<SimulationRequest> {
        configs
            .iter()
            .map(|c| SimulationRequest::new(c.clone()))
            .collect()
    }

    #[test]
    fn inline_backend_fulfills_in_request_order() {
        let mut ev = FnEvaluator::new(1, |w: &Config| Ok(f64::from(w[0]) * 2.0));
        let reqs = requests(&[vec![1], vec![3], vec![2]]);
        let values = ev.fulfill(&reqs).unwrap();
        assert_eq!(values, vec![2.0, 6.0, 4.0]);
        assert_eq!(EvalBackend::evaluations(&ev), 3);
    }

    #[test]
    fn inline_backend_stops_at_first_failure() {
        let mut ev = FnEvaluator::new(1, |w: &Config| {
            if w[0] < 0 {
                Err(EvalError::msg("negative"))
            } else {
                Ok(f64::from(w[0]))
            }
        });
        let reqs = requests(&[vec![1], vec![-1], vec![2]]);
        assert!(ev.fulfill(&reqs).is_err());
        // The request after the failing one was never simulated.
        assert_eq!(EvalBackend::evaluations(&ev), 2);
    }

    #[test]
    fn fulfill_one_is_a_direct_evaluate() {
        let mut ev = FnEvaluator::new(2, |w: &Config| Ok(f64::from(w[0] + w[1])));
        assert_eq!(ev.fulfill_one(&vec![3, 4]).unwrap(), 7.0);
        assert_eq!(EvalBackend::num_variables(&ev), 2);
    }
}
