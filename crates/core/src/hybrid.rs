//! The hybrid kriging/simulation evaluator — the paper's core contribution
//! (the inner loop of Algorithms 1 and 2, lines 6–24).
//!
//! For every queried configuration `w`:
//!
//! 1. gather the **already simulated** configurations within distance `d`
//!    (`dCur = ||w − w_sim||₁ ≤ d`);
//! 2. if more than `N_n,min` neighbours are available (and the variogram has
//!    been identified), solve the ordinary-kriging system and return the
//!    interpolated metric — **no simulation**;
//! 3. otherwise simulate, and add `(w, λ)` to the simulated set.
//!
//! Interpolated configurations are *never* added to the simulated set
//! ("if the configuration is interpolated, it is not used for kriging other
//! configurations"), which prevents interpolation-error accumulation.
//!
//! The optional **audit mode** also simulates every kriged configuration —
//! without feeding the result back — to measure the interpolation error ε
//! of Eqs. 11/12. That is exactly the paper's Table I protocol.
//!
//! # One evaluation path: plan → fulfill → commit
//!
//! Every query runs through one path; a single
//! [`HybridEvaluator::evaluate`] is the one-slot case of
//! [`HybridEvaluator::evaluate_batch`]. *Planning* classifies the queries —
//! without touching the simulator or any session state — into cache hits,
//! krigeable queries (with the exact neighbour set and variogram epoch each
//! will use), and a deduplicated list of [`SimulationRequest`]s. The
//! requests are *fulfilled* by the wrapped [`EvalBackend`] (inline, or
//! fanned out over a worker pool), and *commit* applies the results in
//! input-index order. Because planning predicts mid-batch variogram fits
//! from sample *counts* alone and commit runs them as the simulated sites
//! are inserted, a batch reproduces the query-by-query semantics while
//! leaving the simulations free to run in any order — the basis of the
//! determinism contract for in-run parallelism (DESIGN.md §8).
//! [`HybridStats`] is the only counter state; the obs counters are
//! published from its change at the end of every commit.

use std::time::Instant;

use krigeval_fixedpoint::metrics::ErrorStats;
use krigeval_obs::{Counter, Histogram, Registry, Tracer};
use serde::{Deserialize, Serialize};

use crate::eval_backend::{EvalBackend, SimulationRequest};
use crate::evaluator::EvalError;
use crate::kriging::KrigingScratch;
use crate::neighbors::NeighborIndex;
use crate::trace::Source;
use crate::variogram::{
    fit_model, fit_model_loo, lattice_key, FitReport, GammaTable, ModelFamily, ModelSelection,
    VariogramAccumulator, VariogramModel,
};
use crate::{Config, CoreError, DistanceMetric};

/// How the variogram model is obtained (paper Section III-A: "the
/// identification of the semi-variogram has to be done once for a
/// particular metric and application").
#[derive(Debug, Clone, PartialEq)]
pub enum VariogramPolicy {
    /// Use a caller-supplied model, never fit.
    Fixed(VariogramModel),
    /// Simulate the first `min_samples` configurations, then identify the
    /// model once from their empirical variogram; fall back to `fallback`
    /// if the fit fails (degenerate geometry).
    FitAfter {
        /// Number of simulated configurations required before fitting.
        min_samples: usize,
        /// Families tried by the fit.
        families: Vec<ModelFamily>,
        /// Model used if fitting fails.
        fallback: VariogramModel,
    },
    /// Like `FitAfter`, but the model is **re-identified** whenever `every`
    /// further configurations have been simulated since the last fit — for
    /// long explorations whose local correlation structure drifts (an
    /// extension beyond the paper's identify-once setup).
    Refit {
        /// Number of simulated configurations required before the first fit.
        min_samples: usize,
        /// Re-fit after this many additional simulations.
        every: usize,
        /// Families tried by each fit.
        families: Vec<ModelFamily>,
        /// Model used while a fit fails.
        fallback: VariogramModel,
    },
}

impl Default for VariogramPolicy {
    fn default() -> VariogramPolicy {
        VariogramPolicy::FitAfter {
            min_samples: 10,
            families: ModelFamily::all().to_vec(),
            fallback: VariogramModel::linear(1.0),
        }
    }
}

impl VariogramPolicy {
    /// Whether a (re-)identification fires once the store holds `len`
    /// sites. It reads sample counts only (a failed fit still installs the
    /// fallback model), which is what lets batch planning predict where
    /// mid-batch fits fire.
    fn fit_due(&self, has_model: bool, fitted_at: usize, len: usize) -> bool {
        match *self {
            VariogramPolicy::Fixed(_) => false,
            VariogramPolicy::FitAfter { min_samples, .. } => !has_model && len >= min_samples,
            VariogramPolicy::Refit {
                min_samples, every, ..
            } => {
                if has_model {
                    len >= fitted_at + every
                } else {
                    len >= min_samples
                }
            }
        }
    }
}

/// How audit-mode interpolation errors are expressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AuditMetric {
    /// The metric is `λ = −P` in dB: ε is the equivalent-bit difference of
    /// Eq. 11, `|log₂(P̂/P)| = |λ̂ − λ| / (10·log₁₀ 2)`.
    NoisePowerDb,
    /// Any other metric: ε is the relative difference of Eq. 12.
    Relative,
}

/// The pluggable kriged-vs-simulate decision policy.
///
/// The decision has two phases. **Admission** ([`GatePolicy::admits`]) is
/// the paper's fixed neighbour-count rule (line 17, `Nn > Nn,min`) and is
/// shared by every variant, so batch planning can classify queries without
/// solving any system. **Acceptance** ([`GatePolicy::accepts`]) inspects
/// the solved prediction's kriging variance σ²; a rejected prediction is
/// answered by simulation instead (counted in
/// [`HybridStats::gate_rejections`], never as a kriging failure).
///
/// [`GatePolicy::Fixed`] — the default — accepts every admitted solve and
/// reproduces the historical behaviour bitwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum GatePolicy {
    /// Accept every admitted prediction (the paper's rule; the default).
    #[default]
    Fixed,
    /// Simulate instead whenever the predicted kriging variance σ² exceeds
    /// `threshold` — variance-aware gating in the spirit of Vazquez &
    /// Bect's kriging-based sequential search.
    Variance {
        /// Maximum tolerated kriging variance, in squared metric units.
        /// `+∞` is allowed (it degenerates to [`GatePolicy::Fixed`]); NaN
        /// and non-positive thresholds are rejected by
        /// [`HybridSettings::validate`].
        threshold: f64,
    },
}

impl GatePolicy {
    /// Pre-solve admission: may this query krige at all? Identical for
    /// every variant (the paper's strict `Nn > Nn,min` rule), which is
    /// what lets batch planning classify slots without solving.
    #[inline]
    pub fn admits(&self, neighbors: usize, min_neighbors: usize) -> bool {
        neighbors > min_neighbors
    }

    /// Post-solve acceptance: is a prediction with kriging variance
    /// `variance` good enough to return without simulating?
    #[inline]
    pub fn accepts(&self, variance: f64) -> bool {
        match *self {
            GatePolicy::Fixed => true,
            GatePolicy::Variance { threshold } => variance <= threshold,
        }
    }

    /// Short human-readable label (`fixed`, `variance(τ)`) for artifacts.
    pub fn label(&self) -> String {
        match *self {
            GatePolicy::Fixed => "fixed".to_string(),
            GatePolicy::Variance { threshold } => format!("variance({threshold})"),
        }
    }
}

/// Noisy-metric support: how the nugget (measurement-error) variance `c`
/// is obtained. When set, `c` is added to every between-site semi-variogram
/// value, so kriging smooths replicated noisy observations instead of
/// interpolating their noise exactly; the predicted σ² grows by ≈ `c`
/// accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NuggetPolicy {
    /// Use a fixed, caller-supplied nugget variance `c ≥ 0`.
    Fixed {
        /// The nugget variance in squared metric units.
        value: f64,
    },
    /// Estimate `c` as the pooled within-site variance of replicated
    /// observations ingested via
    /// [`HybridEvaluator::record_observation`]; zero until some
    /// configuration has at least two observations.
    Estimate,
}

/// Tunable parameters of the hybrid evaluator.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridSettings {
    /// Neighbour-search radius `d` (the paper sweeps `d ∈ {2, 3, 4, 5}`).
    pub distance: f64,
    /// Minimum neighbour count `N_n,min`: kriging runs only when strictly
    /// more neighbours are available (paper line 17, `Nn > Nn,min`).
    /// The paper's experiments use 3 (and 2 in the closing ablation).
    pub min_neighbors: usize,
    /// Configuration distance metric (the paper uses L1).
    pub metric: DistanceMetric,
    /// Variogram identification policy.
    pub variogram: VariogramPolicy,
    /// Optional cap on the number of neighbours per system (closest first);
    /// bounds both solve cost and conditioning. `None` = use all.
    pub max_neighbors: Option<usize>,
    /// When set, every kriged query is *also* simulated (result not fed
    /// back) and the interpolation error recorded — the Table I protocol.
    pub audit: Option<AuditMetric>,
    /// Opt-in approximate prediction for large neighbour sets (screened
    /// solve, in the spirit of "Rapid Approximation Prediction for
    /// Kriging"). `None` — the default — keeps the exact path bitwise
    /// pinned; see [`ApproxSettings`] for the accuracy gate.
    pub approx: Option<ApproxSettings>,
    /// Kriged-vs-simulate decision policy. [`GatePolicy::Fixed`] — the
    /// default — reproduces the historical behaviour bitwise.
    pub gate: GatePolicy,
    /// How (re-)identification chooses among candidate variogram families.
    /// [`ModelSelection::WeightedSse`] — the default — is the historical
    /// weighted-least-squares criterion.
    pub selection: ModelSelection,
    /// Optional nugget (noisy-metric) handling. `None` — the default —
    /// keeps the exact interpolating path bitwise pinned.
    pub nugget: Option<NuggetPolicy>,
}

impl Default for HybridSettings {
    fn default() -> HybridSettings {
        HybridSettings {
            distance: 3.0,
            min_neighbors: 3,
            metric: DistanceMetric::L1,
            variogram: VariogramPolicy::default(),
            max_neighbors: Some(32),
            audit: None,
            approx: None,
            gate: GatePolicy::Fixed,
            selection: ModelSelection::WeightedSse,
            nugget: None,
        }
    }
}

impl HybridSettings {
    /// Rejects settings that could never krige or would poison every
    /// solve: a zero or non-finite neighbour radius, `min_neighbors = 0`
    /// (the strict `>` admission rule makes both radius-0 and
    /// min-neighbors-0 footguns), a NaN or non-positive variance-gate
    /// threshold, and a negative or non-finite fixed nugget.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSettings`] naming the offending field.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !self.distance.is_finite() || self.distance <= 0.0 {
            return Err(CoreError::InvalidSettings {
                reason: format!(
                    "neighbour radius d must be finite and positive (got {})",
                    self.distance
                ),
            });
        }
        if self.min_neighbors == 0 {
            return Err(CoreError::InvalidSettings {
                reason: "min_neighbors must be at least 1 (kriging runs only with strictly \
                         more neighbours, so 0 would krige from a single site)"
                    .to_string(),
            });
        }
        if let GatePolicy::Variance { threshold } = self.gate {
            if threshold.is_nan() || threshold <= 0.0 {
                return Err(CoreError::InvalidSettings {
                    reason: format!(
                        "variance-gate threshold must be positive and not NaN (got {threshold})"
                    ),
                });
            }
        }
        if let Some(NuggetPolicy::Fixed { value }) = self.nugget {
            if !value.is_finite() || value < 0.0 {
                return Err(CoreError::InvalidSettings {
                    reason: format!("nugget variance must be finite and >= 0 (got {value})"),
                });
            }
        }
        Ok(())
    }
}

/// Opt-in approximate (screened-neighbour) prediction, gated by a fast
/// leave-one-out cross-validation accuracy check.
///
/// When a query's neighbour set exceeds `screen_to`, the solve is truncated
/// to the `screen_to` closest neighbours — an `O((n/screen_to)³)` cut on the
/// dominant factorization cost. The truncation only takes effect while the
/// session-level validation holds: at every (re-)validation point the
/// evaluator leave-one-out predicts a bounded sample of stored sites twice
/// (exact cap vs screened) and compares. If any sampled deviation exceeds
/// `epsilon`, the approximation is **rejected** — queries take the exact
/// path — until a later validation passes again.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApproxSettings {
    /// Neighbour-count ceiling of the screened solve; systems at or below
    /// this size always run exact.
    pub screen_to: usize,
    /// Declared accuracy bound ε: the maximum allowed deviation
    /// `|λ̂_approx − λ̂_exact| / max(|λ̂_exact|, 1)` observed by the
    /// leave-one-out validation before the approximate path is rejected.
    pub epsilon: f64,
    /// Upper bound on leave-one-out sites sampled per validation (bounds
    /// validation cost; sites are stride-sampled across the store).
    pub loo_samples: usize,
    /// With a [`VariogramPolicy::Fixed`] model there are no refit points, so
    /// validation also re-runs every time the store has grown by this many
    /// sites since the last check.
    pub check_every: usize,
}

impl Default for ApproxSettings {
    fn default() -> ApproxSettings {
        ApproxSettings {
            screen_to: 16,
            epsilon: 0.05,
            loo_samples: 24,
            check_every: 32,
        }
    }
}

/// Counters and audit statistics of a hybrid-evaluation session; the raw
/// material for one Table I row.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HybridStats {
    /// Total metric queries `N_λ`.
    pub queries: u64,
    /// Queries answered by simulation (and stored).
    pub simulated: u64,
    /// Queries answered by kriging.
    pub kriged: u64,
    /// Queries answered from the exact-duplicate cache.
    pub cache_hits: u64,
    /// Kriging attempts that failed numerically and fell back to simulation.
    pub kriging_failures: u64,
    /// Kriging solves whose predicted variance the [`GatePolicy`] rejected
    /// (answered by simulation instead; always 0 under
    /// [`GatePolicy::Fixed`]).
    pub gate_rejections: u64,
    /// Sum over kriged queries of the neighbour count used (for `j̄`).
    pub neighbor_sum: u64,
    /// Sum over kriged (gate-accepted) queries of the predicted kriging
    /// variance σ² — the numerator of [`HybridStats::mean_variance`].
    pub variance_sum: f64,
    /// Audit-mode interpolation errors (Eq. 11 or Eq. 12 units).
    pub errors: ErrorStats,
}

impl HybridStats {
    /// Fraction of queries answered without simulation — the paper's `p(%)`
    /// (in `[0, 1]`; multiply by 100 for the table).
    pub fn interpolated_fraction(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.kriged as f64 / self.queries as f64
        }
    }

    /// Mean number of neighbours per interpolation — the paper's `j̄`.
    pub fn mean_neighbors(&self) -> f64 {
        if self.kriged == 0 {
            0.0
        } else {
            self.neighbor_sum as f64 / self.kriged as f64
        }
    }

    /// Mean predicted kriging variance σ̄² over kriged queries (0 when
    /// nothing kriged) — the natural scale for a variance-gate threshold.
    pub fn mean_variance(&self) -> f64 {
        if self.kriged == 0 {
            0.0
        } else {
            self.variance_sum / self.kriged as f64
        }
    }
}

/// Result of one hybrid query.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The configuration was simulated (or found in the duplicate cache).
    Simulated {
        /// The measured metric value.
        value: f64,
    },
    /// The configuration was interpolated by kriging.
    Kriged {
        /// The interpolated metric value `λ̂`.
        value: f64,
        /// The kriging variance.
        variance: f64,
        /// Number of neighbours in the system.
        neighbors: usize,
        /// Audit mode only: the true (simulated) value.
        true_value: Option<f64>,
    },
}

impl Outcome {
    /// The metric value the optimizer should use.
    pub fn value(&self) -> f64 {
        match self {
            Outcome::Simulated { value } => *value,
            Outcome::Kriged { value, .. } => *value,
        }
    }

    /// Where the value came from.
    pub fn source(&self) -> Source {
        match self {
            Outcome::Simulated { .. } => Source::Simulated,
            Outcome::Kriged { .. } => Source::Kriged,
        }
    }
}

/// How one slot of a planned batch gets its value.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SlotPlan {
    /// Exact duplicate of a stored configuration.
    CacheHit {
        /// Store position of the duplicate.
        position: usize,
    },
    /// Exact duplicate of an earlier simulation request in the same batch.
    Alias {
        /// Index into the plan's request list.
        request: usize,
    },
    /// Needs a fresh simulation.
    Simulate {
        /// Index into the plan's request list.
        request: usize,
    },
    /// Krigeable from the neighbour set `plan.neighbors[start..end]`
    /// (store positions, closest first; positions `>= planned_at` are the
    /// pending requests `planned_at + request index`).
    Krige {
        /// Start of the slot's range in the neighbour slab.
        start: usize,
        /// End of the slot's range in the neighbour slab.
        end: usize,
        /// Number of variogram (re-)fits preceding this slot in the batch.
        epoch: usize,
    },
}

/// A planned batch: a read-only classification of candidate
/// configurations (see [`HybridEvaluator::evaluate_batch`]).
#[derive(Debug, Default)]
struct BatchPlan {
    slots: Vec<SlotPlan>,
    /// The deduplicated simulations the batch requires, in first-occurrence
    /// order.
    requests: Vec<SimulationRequest>,
    /// Flat neighbour slab of the krige slots.
    neighbors: Vec<usize>,
    /// Variogram (re-)fits that fire while the requests are inserted.
    fits: usize,
    /// Store size the plan was computed against.
    planned_at: usize,
}

impl BatchPlan {
    /// Slots answered without simulation or kriging (store duplicates and
    /// intra-batch request duplicates).
    fn num_cache_hits(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, SlotPlan::CacheHit { .. } | SlotPlan::Alias { .. }))
            .count()
    }

    /// Slots planned for kriging interpolation.
    fn num_krigeable(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, SlotPlan::Krige { .. }))
            .count()
    }
}

/// What commit decided for one krige slot.
#[derive(Debug, Clone, Copy)]
enum Solved {
    /// The prediction is plausible and the gate accepted it.
    Kriged {
        value: f64,
        variance: f64,
        jitter_retries: u32,
    },
    /// Answered by simulation instead: the solve failed or was implausible
    /// (`gate_rejected == false`), or the gate refused its variance.
    Simulated {
        gate_rejected: bool,
        /// Index into the fallback request list.
        request: usize,
    },
}

/// One variogram (re-)identification: the store size it fired at, the
/// model it installed, and whether the fit converged (`false` = the
/// policy's fallback model).
#[derive(Debug, Clone, Copy)]
struct FitEvent {
    at: usize,
    model: VariogramModel,
    converged: bool,
}

/// Plan and commit buffers, reused across calls so that a warm one-slot
/// [`HybridEvaluator::evaluate`] allocates nothing.
#[derive(Debug, Default)]
struct BatchBuffers {
    plan: BatchPlan,
    /// Krige slot indices, sorted into solve groups.
    krige_order: Vec<usize>,
    /// Per-slot solve decisions (`Some` for krige slots only).
    solved: Vec<Option<Solved>>,
    /// Fits that fired while the batch's requests were inserted.
    fits: Vec<FitEvent>,
    fallback_requests: Vec<SimulationRequest>,
    audit_requests: Vec<SimulationRequest>,
    outcomes: Vec<Outcome>,
    /// Neighbour values of the group being solved.
    group_values: Vec<f64>,
    /// Lattice-key slab for the group's RHS (`members × n`, row-major).
    group_keys: Vec<u64>,
    /// γ slab matching `group_keys`.
    group_gamma: Vec<f64>,
}

/// Bucket bounds of the `hybrid_kriging_variance` histogram: decades from
/// 1e-6 to 1e5 cover σ² for metrics spanning micro-scale noise floors to
/// the word-length benchmarks' dB² spreads.
const VARIANCE_BUCKETS: [f64; 12] = [
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5,
];

/// Observability bundle for a hybrid-evaluation session: pre-registered
/// metric handles plus a [`Tracer`] for per-query decision events.
///
/// Attach with [`HybridEvaluator::with_obs`]. [`HybridStats`] is the only
/// counter state: the `hybrid_*` counters that mirror it are published
/// from its change at the end of every commit, so counter snapshots are
/// deterministic across worker counts whenever the stats are. Per-phase
/// timing histograms observe wall-clock and are recorded only when
/// enabled via [`HybridObs::with_timing`]; they are excluded from the
/// determinism contract.
///
/// # Event taxonomy
///
/// * `query` — one per evaluated configuration, with a `decision` field
///   of `cache_hit`, `alias` (intra-batch duplicate), `kriged` (with
///   `neighbors` and `jitter_retries`), `simulated`, `fallback` (kriging
///   failed, simulated instead), or `gate_rejected` (the gate refused the
///   solved prediction's variance, simulated instead). Queries forced by
///   [`HybridEvaluator::simulate_exact`] also carry `forced: true`.
/// * `model_selected` — one per converged leave-one-out model selection
///   ([`ModelSelection::LeaveOneOut`] only), with the winning family.
/// * `batch` — one per evaluation call when timing is enabled (a single
///   `evaluate` is a one-slot batch): slot/request/cache-hit/krigeable
///   counts plus `plan_us` / `fulfill_us` / `commit_us`.
/// * `variogram_fit` — one per (re-)identification, with the store size
///   it fired at.
#[derive(Clone, Debug)]
pub struct HybridObs {
    tracer: Tracer,
    queries: Counter,
    simulated: Counter,
    kriged: Counter,
    cache_hits: Counter,
    fallbacks: Counter,
    gate_rejections: Counter,
    variance: Histogram,
    neighbors: Counter,
    jitter_retries: Counter,
    fits: Counter,
    iterations: Counter,
    plan_us: Histogram,
    fulfill_us: Histogram,
    commit_us: Histogram,
    timing: bool,
}

impl HybridObs {
    /// Registers the hybrid metric set (`hybrid_*`) in `registry` and
    /// pairs it with `tracer`. Timing histograms start disabled.
    pub fn new(registry: &Registry, tracer: Tracer) -> HybridObs {
        HybridObs {
            tracer,
            queries: registry.counter("hybrid_queries_total"),
            simulated: registry.counter("hybrid_simulated_total"),
            kriged: registry.counter("hybrid_kriged_total"),
            cache_hits: registry.counter("hybrid_cache_hits_total"),
            fallbacks: registry.counter("hybrid_kriging_fallbacks_total"),
            gate_rejections: registry.counter("hybrid_gate_rejections_total"),
            variance: registry.histogram_with("hybrid_kriging_variance", &VARIANCE_BUCKETS),
            neighbors: registry.counter("hybrid_neighbor_sum"),
            jitter_retries: registry.counter("hybrid_jitter_retries_total"),
            fits: registry.counter("hybrid_variogram_fits_total"),
            iterations: registry.counter("opt_iterations_total"),
            plan_us: registry.histogram("hybrid_plan_us"),
            fulfill_us: registry.histogram("hybrid_fulfill_us"),
            commit_us: registry.histogram("hybrid_commit_us"),
            timing: false,
        }
    }

    /// Enables (or disables) the per-phase wall-clock histograms.
    pub fn with_timing(mut self, timing: bool) -> HybridObs {
        self.timing = timing;
        self
    }

    /// The tracer events are emitted through.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

/// The hybrid kriging/simulation evaluator.
///
/// # Examples
///
/// ```
/// use krigeval_core::{FnEvaluator, HybridEvaluator, HybridSettings};
///
/// # fn main() -> Result<(), krigeval_core::EvalError> {
/// // A smooth 2-D metric surface.
/// let sim = FnEvaluator::new(2, |w| Ok(-6.0 * f64::from(w[0] + w[1])));
/// let mut hybrid = HybridEvaluator::new(sim, HybridSettings::default());
/// // First queries are simulated (variogram not yet identified); once the
/// // model is fitted, configurations close to simulated ones get kriged.
/// for a in 4..10 {
///     for b in 4..8 {
///         hybrid.evaluate(&vec![a, b])?;
///     }
/// }
/// assert!(hybrid.stats().kriged > 0);
/// assert!(hybrid.stats().simulated < hybrid.stats().queries);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HybridEvaluator<E> {
    inner: E,
    settings: HybridSettings,
    store: NeighborIndex,
    model: Option<VariogramModel>,
    fit_report: Option<FitReport>,
    /// Store size at the time of the last (re-)identification.
    fitted_at: usize,
    stats: HybridStats,
    /// Grow-only solve workspace; with the buffers below it makes the
    /// steady-state kriged path allocation-free.
    krige_scratch: KrigingScratch,
    /// Memoized γ over lattice distances, re-targeted on model change.
    gamma_table: Option<GammaTable>,
    /// Reused `(store position, distance)` buffer for the radius searches.
    neighbor_buf: Vec<(usize, f64)>,
    /// Reused neighbour-value buffer for the leave-one-out validation.
    value_buf: Vec<f64>,
    /// Running empirical-variogram sums; each refit folds in only the
    /// sites simulated since the previous one.
    vario_acc: Option<VariogramAccumulator>,
    /// Whether the approximate path passed its last leave-one-out
    /// validation (always `false` when [`HybridSettings::approx`] is off).
    approx_active: bool,
    /// Store size at the last approximate-path validation.
    approx_checked_at: usize,
    /// Whether a validation has ever run with a model present. Sessions
    /// born with a model ([`VariogramPolicy::Fixed`]) have no fit event to
    /// piggyback on, so the first store insertion triggers the initial
    /// validation instead of waiting out a full `check_every` window.
    approx_validated: bool,
    /// Reused plan/commit buffers, boxed so lending them out moves one
    /// pointer (allocated by the first query).
    buffers: Option<Box<BatchBuffers>>,
    /// Per-configuration replicate accumulators for nugget estimation:
    /// `config → (count, mean, M2)` Welford state. Populated only under
    /// [`NuggetPolicy::Estimate`].
    replicates: std::collections::HashMap<Config, (u64, f64, f64)>,
    /// Incrementally maintained pooled within-site squared-deviation sum
    /// `Σᵢ M2ᵢ` over replicated configurations.
    pooled_m2: f64,
    /// Pooled degrees of freedom `Σᵢ (nᵢ − 1)`.
    pooled_dof: u64,
    /// Optional metrics/trace bundle; `None` costs one branch per query.
    obs: Option<HybridObs>,
}

impl<E: EvalBackend> HybridEvaluator<E> {
    /// Wraps an evaluation backend. Any
    /// [`AccuracyEvaluator`](crate::evaluator::AccuracyEvaluator) works here
    /// directly (the inline backend); pass an engine-side parallel backend
    /// to fan batched simulation requests over a worker pool instead.
    ///
    /// # Panics
    ///
    /// Panics if `settings` fail [`HybridSettings::validate`] (zero or
    /// non-finite radius, `min_neighbors = 0`, NaN gate threshold,
    /// negative nugget). Use [`HybridEvaluator::try_new`] to handle the
    /// error instead.
    pub fn new(inner: E, settings: HybridSettings) -> HybridEvaluator<E> {
        match HybridEvaluator::try_new(inner, settings) {
            Ok(hybrid) => hybrid,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: validates `settings` first.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSettings`] if the settings fail
    /// [`HybridSettings::validate`].
    pub fn try_new(inner: E, settings: HybridSettings) -> Result<HybridEvaluator<E>, CoreError> {
        settings.validate()?;
        let model = match &settings.variogram {
            VariogramPolicy::Fixed(m) => Some(*m),
            VariogramPolicy::FitAfter { .. } | VariogramPolicy::Refit { .. } => None,
        };
        let store = NeighborIndex::new(settings.metric);
        Ok(HybridEvaluator {
            inner,
            settings,
            store,
            model,
            fit_report: None,
            fitted_at: 0,
            stats: HybridStats::default(),
            krige_scratch: KrigingScratch::new(),
            gamma_table: None,
            neighbor_buf: Vec::new(),
            value_buf: Vec::new(),
            vario_acc: None,
            approx_active: false,
            approx_checked_at: 0,
            approx_validated: false,
            buffers: None,
            replicates: std::collections::HashMap::new(),
            pooled_m2: 0.0,
            pooled_dof: 0,
            obs: None,
        })
    }

    /// Attaches an observability bundle: counters mirror
    /// [`HybridStats`] and decision events flow to the bundle's tracer.
    pub fn with_obs(mut self, obs: HybridObs) -> HybridEvaluator<E> {
        self.obs = Some(obs);
        self
    }

    /// Replaces (or removes) the observability bundle in place.
    pub fn set_obs(&mut self, obs: Option<HybridObs>) {
        self.obs = obs;
    }

    /// Evaluates a configuration, kriging when possible — the one-slot case
    /// of [`HybridEvaluator::evaluate_batch`].
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`EvalError`] (kriging failures are not
    /// errors — they fall back to simulation and are counted in
    /// [`HybridStats::kriging_failures`]). On error nothing is committed:
    /// statistics, counters and the store are unchanged.
    pub fn evaluate(&mut self, config: &Config) -> Result<Outcome, EvalError> {
        self.with_buffers(|hybrid, buffers| {
            hybrid.run(std::slice::from_ref(config), buffers)?;
            Ok(buffers.outcomes.pop().expect("one outcome per slot"))
        })
    }

    /// Convenience: evaluate and return only the metric value.
    ///
    /// # Errors
    ///
    /// See [`HybridEvaluator::evaluate`].
    pub fn evaluate_value(&mut self, config: &Config) -> Result<f64, EvalError> {
        Ok(self.evaluate(config)?.value())
    }

    /// Evaluates many configurations through the plan → fulfill → commit
    /// protocol, solving each distinct kriging system **once**.
    ///
    /// Planning classifies the queries in input order, as a stream of
    /// single queries would see them: pending simulations of the batch are
    /// neighbours of later slots, and mid-batch variogram fits are
    /// predicted from sample counts and run at commit as the simulated
    /// sites are inserted. The backend then simulates the deduplicated
    /// requests ([`EvalBackend::fulfill`]), and commit solves the kriging
    /// systems grouped by neighbour set, so a batch whose queries share
    /// neighbourhoods — the min+1 candidate scan, surface replay — factors
    /// Γ once per group instead of once per query.
    ///
    /// One rule is specific to batches: a slot whose kriging attempt fails
    /// numerically or is rejected by the [`GatePolicy`] is simulated, and
    /// that simulation enters the store at the *end* of the batch. Later
    /// slots of the same batch do not see it as a neighbour; a one-slot
    /// batch (a single [`HybridEvaluator::evaluate`]) is unaffected.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`EvalError`]. The batch is
    /// **all-or-nothing**: on error no query is counted, no value is stored,
    /// and the session state is exactly what it was before the call
    /// (simulator-side invocation counters excepted).
    pub fn evaluate_batch(&mut self, configs: &[Config]) -> Result<Vec<Outcome>, EvalError> {
        self.with_buffers(|hybrid, buffers| {
            hybrid.run(configs, buffers)?;
            Ok(buffers.outcomes.drain(..).collect())
        })
    }

    /// Lends the reused plan/commit buffers to `f`.
    fn with_buffers<R>(&mut self, f: impl FnOnce(&mut Self, &mut BatchBuffers) -> R) -> R {
        let mut buffers = self.buffers.take().unwrap_or_default();
        let result = f(self, &mut buffers);
        self.buffers = Some(buffers);
        result
    }

    /// The one evaluation path: plan → fulfill → commit, with the per-phase
    /// timing recorded when enabled.
    fn run(&mut self, configs: &[Config], buffers: &mut BatchBuffers) -> Result<(), EvalError> {
        let timing = self.obs.as_ref().is_some_and(|o| o.timing);
        let t0 = timing.then(Instant::now);
        self.plan(configs, &mut buffers.plan);
        let t1 = timing.then(Instant::now);
        let values = self.fulfill(&buffers.plan.requests)?;
        let t2 = timing.then(Instant::now);
        self.commit(configs, &values, buffers)?;
        if let (Some(obs), Some(t0), Some(t1), Some(t2)) = (&self.obs, t0, t1, t2) {
            let t3 = Instant::now();
            let plan_us = t1.duration_since(t0).as_secs_f64() * 1e6;
            let fulfill_us = t2.duration_since(t1).as_secs_f64() * 1e6;
            let commit_us = t3.duration_since(t2).as_secs_f64() * 1e6;
            obs.plan_us.record(plan_us);
            obs.fulfill_us.record(fulfill_us);
            obs.commit_us.record(commit_us);
            if obs.tracer.enabled() {
                let plan = &buffers.plan;
                obs.tracer.emit(
                    "batch",
                    vec![
                        ("slots", plan.slots.len().into()),
                        ("requests", plan.requests.len().into()),
                        ("cache_hits", plan.num_cache_hits().into()),
                        ("krigeable", plan.num_krigeable().into()),
                        ("plan_us", plan_us.into()),
                        ("fulfill_us", fulfill_us.into()),
                        ("commit_us", commit_us.into()),
                    ],
                );
            }
        }
        Ok(())
    }

    /// Runs one simulation round through the backend. Every simulation the
    /// evaluator makes goes through here; empty rounds skip the backend.
    fn fulfill(&mut self, requests: &[SimulationRequest]) -> Result<Vec<f64>, EvalError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        self.inner.fulfill(requests)
    }

    /// Plans a batch without touching the simulator or any session state
    /// (only the reused search buffer).
    ///
    /// Store duplicates become cache hits, intra-batch duplicates of
    /// pending simulations alias the earlier request, krigeable queries
    /// record the neighbour set they observe (pending requests included, as
    /// pseudo-positions `store length + request index`), and everything
    /// else becomes a deduplicated [`SimulationRequest`]. Variogram
    /// (re-)identification is triggered by sample counts alone, so the
    /// planner knows where each fit fires and tags every krigeable slot
    /// with its fit epoch.
    fn plan(&mut self, configs: &[Config], plan: &mut BatchPlan) {
        plan.slots.clear();
        plan.requests.clear();
        plan.neighbors.clear();
        plan.fits = 0;
        plan.planned_at = self.store.len();
        let mut has_model = self.model.is_some();
        let mut fitted_at = self.fitted_at;
        let hits = &mut self.neighbor_buf;
        for config in configs {
            // Exact duplicate: reuse the stored value (the optimizers
            // revisit configurations; re-simulating would distort both N_λ
            // and p(%)).
            if let Some(position) = self.store.position_of(config) {
                plan.slots.push(SlotPlan::CacheHit { position });
                continue;
            }
            if let Some(request) = plan.requests.iter().position(|r| &r.config == config) {
                plan.slots.push(SlotPlan::Alias { request });
                continue;
            }
            if has_model {
                // The simulated neighbours within distance d (paper lines
                // 7–16), sorted by distance.
                self.store.within_into(config, self.settings.distance, hits);
                // Pending requests are neighbours too, at the positions
                // they will be inserted at. The merged sort reproduces
                // `within_into`'s (distance, position) order, ties included.
                for (ri, r) in plan.requests.iter().enumerate() {
                    let distance = self.settings.metric.eval_config(&r.config, config);
                    if distance <= self.settings.distance {
                        hits.push((plan.planned_at + ri, distance));
                    }
                }
                hits.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                if self
                    .settings
                    .gate
                    .admits(hits.len(), self.settings.min_neighbors)
                {
                    let mut keep = hits.len();
                    if let Some(cap) = self.settings.max_neighbors {
                        keep = keep.min(cap);
                    }
                    if let (true, Some(approx)) = (self.approx_active, &self.settings.approx) {
                        // Validated approximate path: screen to the
                        // `screen_to` closest neighbours.
                        keep = keep.min(approx.screen_to.max(1));
                    }
                    let start = plan.neighbors.len();
                    plan.neighbors.extend(hits[..keep].iter().map(|&(p, _)| p));
                    plan.slots.push(SlotPlan::Krige {
                        start,
                        end: plan.neighbors.len(),
                        epoch: plan.fits,
                    });
                    continue;
                }
            }
            plan.requests.push(SimulationRequest::new(config.clone()));
            plan.slots.push(SlotPlan::Simulate {
                request: plan.requests.len() - 1,
            });
            let len = plan.planned_at + plan.requests.len();
            if self.settings.variogram.fit_due(has_model, fitted_at, len) {
                plan.fits += 1;
                fitted_at = len;
                has_model = true;
            }
        }
    }

    /// Commits a fulfilled plan: `values` holds one simulated value per
    /// planned request, in request order.
    ///
    /// The requests are inserted first, running each variogram fit where it
    /// falls due, so every krige slot solves against the store and model it
    /// was planned for. Fallback and audit simulations then run as further
    /// backend rounds; if one fails, the insertions are rolled back and
    /// nothing is committed. Statistics, outcomes and events follow in
    /// input order, and the fallback simulations enter the store last.
    fn commit(
        &mut self,
        configs: &[Config],
        values: &[f64],
        buffers: &mut BatchBuffers,
    ) -> Result<(), EvalError> {
        let BatchBuffers {
            plan,
            krige_order,
            solved,
            fits,
            fallback_requests,
            audit_requests,
            outcomes,
            group_values,
            group_keys,
            group_gamma,
        } = buffers;
        let planned_at = plan.planned_at;
        debug_assert_eq!(planned_at, self.store.len(), "plan is stale");

        // Round 1 — insert the simulated requests. Their fits are noted
        // only once the commit can no longer fail.
        let model_at_plan = self.model;
        let checkpoint = (plan.fits > 0).then(|| {
            (
                self.model,
                self.fit_report.clone(),
                self.fitted_at,
                self.vario_acc.clone(),
            )
        });
        fits.clear();
        for (request, &value) in plan.requests.iter().zip(values) {
            fits.extend(self.insert_site(request.config.clone(), value));
        }
        debug_assert_eq!(fits.len(), plan.fits, "fits fired off the planned timeline");

        // Round 2 — solve the krige slots, grouped by (model bits,
        // neighbour set): one Γ assembly and Bunch–Kaufman factorization
        // per group, all members back-substituted in one blocked multi-RHS
        // pass (bitwise equal to one solve per member).
        solved.clear();
        solved.resize(configs.len(), None);
        krige_order.clear();
        krige_order.extend(
            plan.slots
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, SlotPlan::Krige { .. }))
                .map(|(i, _)| i),
        );
        {
            let metric = self.settings.metric;
            let gate = self.settings.gate;
            let nugget = self.effective_nugget();
            let sites = self.store.configs();
            let site_values = self.store.values();
            let model_of = |epoch: usize| -> VariogramModel {
                match epoch {
                    0 => model_at_plan.expect("krige slot planned without an active model"),
                    e => fits[e - 1].model,
                }
            };
            let krige_parts = |slot: usize| -> (&[usize], usize) {
                match plan.slots[slot] {
                    SlotPlan::Krige { start, end, epoch } => (&plan.neighbors[start..end], epoch),
                    _ => unreachable!("krige_order holds only krige slots"),
                }
            };
            // Stable sort: members of a group stay in input order.
            krige_order.sort_by(|&x, &y| {
                let (nx, ex) = krige_parts(x);
                let (ny, ey) = krige_parts(y);
                model_bits(&model_of(ex))
                    .cmp(&model_bits(&model_of(ey)))
                    .then_with(|| nx.cmp(ny))
            });
            let mut group_start = 0;
            while group_start < krige_order.len() {
                let (head, head_epoch) = krige_parts(krige_order[group_start]);
                let head_model = model_of(head_epoch);
                let group_end = krige_order[group_start..]
                    .iter()
                    .position(|&s| {
                        let (n, e) = krige_parts(s);
                        model_bits(&model_of(e)) != model_bits(&head_model) || n != head
                    })
                    .map_or(krige_order.len(), |off| group_start + off);
                let members = &krige_order[group_start..group_end];
                group_start = group_end;
                let n = head.len();
                group_values.clear();
                group_values.extend(head.iter().map(|&j| site_values[j]));
                let table = gamma_table_for(&mut self.gamma_table, head_model, metric);
                // Flat RHS γ slab: the lattice keys of every (neighbour,
                // member) pair, then one memoized table pass.
                group_keys.clear();
                for &s in members {
                    let target = &configs[s];
                    group_keys.extend(head.iter().map(|&j| lattice_key(metric, &sites[j], target)));
                }
                table.gamma_keys_into(group_keys, group_gamma);
                let scratch = &mut self.krige_scratch;
                let factored = scratch.solve_group_with(n, members.len(), |i, j| {
                    let g = if j < n {
                        table.gamma_pair(&sites[head[i]], &sites[head[j]])
                    } else {
                        group_gamma[(j - n) * n + i]
                    };
                    with_nugget(g, nugget)
                });
                for (t, &s) in members.iter().enumerate() {
                    let fallback = |gate_rejected| Solved::Simulated {
                        gate_rejected,
                        request: 0, // assigned in round 3
                    };
                    solved[s] = Some(if factored.is_err() || !scratch.group_ok(t) {
                        fallback(false)
                    } else {
                        let value = scratch.group_interpolate(t, group_values);
                        let variance = scratch.group_variance(t);
                        if !plausible(value, variance, group_values) {
                            fallback(false)
                        } else if !gate.accepts(variance) {
                            fallback(true)
                        } else {
                            Solved::Kriged {
                                value,
                                variance,
                                jitter_retries: scratch.group_jitter_retries(t),
                            }
                        }
                    });
                }
            }
        }

        // Round 3 — the fallback simulations, deduplicated in
        // first-occurrence order.
        fallback_requests.clear();
        for (decision, config) in solved.iter_mut().zip(configs) {
            if let Some(Solved::Simulated { request, .. }) = decision {
                *request = match fallback_requests.iter().position(|r| &r.config == config) {
                    Some(i) => i,
                    None => {
                        fallback_requests.push(SimulationRequest::new(config.clone()));
                        fallback_requests.len() - 1
                    }
                };
            }
        }
        // Round 4 — the audit simulations of the kriged slots, in input
        // order (audited results are never stored).
        audit_requests.clear();
        if self.settings.audit.is_some() {
            audit_requests.extend(
                solved
                    .iter()
                    .zip(configs)
                    .filter(|(d, _)| matches!(d, Some(Solved::Kriged { .. })))
                    .map(|(_, c)| SimulationRequest::new(c.clone())),
            );
        }
        let rounds = self
            .fulfill(fallback_requests)
            .and_then(|fallback| Ok((fallback, self.fulfill(audit_requests)?)));
        let (fallback_values, audit_values) = match rounds {
            Ok(rounds) => rounds,
            Err(e) => {
                self.store.truncate(planned_at);
                if let Some((model, fit_report, fitted_at, vario_acc)) = checkpoint {
                    self.model = model;
                    self.fit_report = fit_report;
                    self.fitted_at = fitted_at;
                    self.vario_acc = vario_acc;
                }
                return Err(e);
            }
        };

        // Commit — nothing can fail from here on.
        let before = self.obs.as_ref().map(|_| self.stats.clone());
        self.stats.queries += configs.len() as u64;
        self.stats.simulated += plan.requests.len() as u64;
        let mut audit_values = audit_values.into_iter();
        outcomes.clear();
        for (s, slot) in plan.slots.iter().enumerate() {
            let outcome = match *slot {
                SlotPlan::CacheHit { position } => {
                    self.stats.cache_hits += 1;
                    self.emit_query("cache_hit", None, false);
                    Outcome::Simulated {
                        value: self.store.values()[position],
                    }
                }
                SlotPlan::Alias { request } => {
                    self.stats.cache_hits += 1;
                    self.emit_query("alias", None, false);
                    Outcome::Simulated {
                        value: values[request],
                    }
                }
                SlotPlan::Simulate { request } => {
                    self.emit_query("simulated", None, false);
                    Outcome::Simulated {
                        value: values[request],
                    }
                }
                SlotPlan::Krige { start, end, .. } => match solved[s] {
                    Some(Solved::Kriged {
                        value,
                        variance,
                        jitter_retries,
                    }) => {
                        let neighbors = end - start;
                        self.stats.kriged += 1;
                        self.stats.neighbor_sum += neighbors as u64;
                        self.stats.variance_sum += variance;
                        if let Some(obs) = &self.obs {
                            obs.variance.record(variance);
                            if jitter_retries > 0 {
                                obs.jitter_retries.add(u64::from(jitter_retries));
                            }
                        }
                        self.emit_query("kriged", Some((neighbors, jitter_retries)), false);
                        let true_value = self.settings.audit.map(|metric| {
                            let t = audit_values
                                .next()
                                .expect("one audit value per kriged slot");
                            self.stats.errors.record(audit_error(metric, value, t));
                            t
                        });
                        Outcome::Kriged {
                            value,
                            variance,
                            neighbors,
                            true_value,
                        }
                    }
                    Some(Solved::Simulated {
                        gate_rejected,
                        request,
                    }) => {
                        if gate_rejected {
                            self.stats.gate_rejections += 1;
                            self.emit_query("gate_rejected", None, false);
                        } else {
                            self.stats.kriging_failures += 1;
                            self.emit_query("fallback", None, false);
                        }
                        Outcome::Simulated {
                            value: fallback_values[request],
                        }
                    }
                    None => unreachable!("every krige slot is solved"),
                },
            };
            outcomes.push(outcome);
        }
        for &fit in fits.iter() {
            self.note_fit(fit);
        }
        let mut refitted = !fits.is_empty();
        for (request, &value) in fallback_requests.iter().zip(&fallback_values) {
            self.stats.simulated += 1;
            refitted |= self.store_site(request.config.clone(), value);
        }
        self.maybe_revalidate_approx(refitted);
        if let Some(before) = before {
            self.publish(&before);
        }
        Ok(())
    }

    /// Publishes the `hybrid_*` counters that mirror [`HybridStats`] from
    /// the change since `before` — the only way those counters move.
    fn publish(&self, before: &HybridStats) {
        let Some(obs) = &self.obs else {
            return;
        };
        let s = &self.stats;
        for (counter, now, was) in [
            (&obs.queries, s.queries, before.queries),
            (&obs.simulated, s.simulated, before.simulated),
            (&obs.kriged, s.kriged, before.kriged),
            (&obs.cache_hits, s.cache_hits, before.cache_hits),
            (&obs.fallbacks, s.kriging_failures, before.kriging_failures),
            (
                &obs.gate_rejections,
                s.gate_rejections,
                before.gate_rejections,
            ),
            (&obs.neighbors, s.neighbor_sum, before.neighbor_sum),
        ] {
            if now > was {
                counter.add(now - was);
            }
        }
    }

    /// Records one optimizer-iteration marker: counts it and, when
    /// tracing, emits an `opt_iteration` event that segments the query
    /// stream by iteration (see
    /// [`DseEvaluator::observe_iteration`](crate::opt::DseEvaluator::observe_iteration)).
    pub(crate) fn record_iteration(&self, phase: &'static str, iteration: u64) {
        if let Some(obs) = &self.obs {
            obs.iterations.inc();
            if obs.tracer.enabled() {
                obs.tracer.emit(
                    "opt_iteration",
                    vec![("phase", phase.into()), ("iteration", iteration.into())],
                );
            }
        }
    }

    /// Emits one `query` decision event; kriged queries carry their
    /// `(neighbours, jitter retries)`.
    fn emit_query(&self, decision: &'static str, kriged: Option<(usize, u32)>, forced: bool) {
        let Some(obs) = self.obs.as_ref().filter(|o| o.tracer.enabled()) else {
            return;
        };
        let mut fields: Vec<krigeval_obs::trace::Field> = vec![("decision", decision.into())];
        if let Some((neighbors, retries)) = kriged {
            fields.push(("neighbors", neighbors.into()));
            fields.push(("jitter_retries", retries.into()));
        }
        if forced {
            fields.push(("forced", true.into()));
        }
        obs.tracer.emit("query", fields);
    }

    /// Counts one variogram (re-)identification and emits its events.
    fn note_fit(&self, fit: FitEvent) {
        if let Some(obs) = &self.obs {
            obs.fits.inc();
            if obs.tracer.enabled() {
                obs.tracer
                    .emit("variogram_fit", vec![("at", fit.at.into())]);
                if fit.converged && self.settings.selection == ModelSelection::LeaveOneOut {
                    obs.tracer.emit(
                        "model_selected",
                        vec![("family", fit.model.family_name().into())],
                    );
                }
            }
        }
    }

    /// Forces a **simulation** of `config`, bypassing kriging, and stores
    /// the result in the simulated set (duplicates return the cached value).
    /// Used by the optimizers' tie-break-by-simulation fidelity mode: when
    /// several kriged candidates are indistinguishable, resolving the tie
    /// with one real simulation restores decision fidelity at bounded cost.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`EvalError`]; on error nothing is
    /// committed.
    pub fn simulate_exact(&mut self, config: &Config) -> Result<f64, EvalError> {
        let before = self.stats.clone();
        let value = match self.store.position_of(config) {
            Some(position) => {
                self.stats.cache_hits += 1;
                self.emit_query("cache_hit", None, true);
                self.store.values()[position]
            }
            None => {
                let request = SimulationRequest::new(config.clone());
                let value = self.fulfill(std::slice::from_ref(&request))?[0];
                self.stats.simulated += 1;
                self.emit_query("simulated", None, true);
                let refitted = self.store_site(request.config, value);
                self.maybe_revalidate_approx(refitted);
                value
            }
        };
        self.stats.queries += 1;
        self.publish(&before);
        Ok(value)
    }

    /// Stores one simulated site and runs the variogram (re-)identification
    /// if it is now due, returning the fit that fired. Emits nothing, so
    /// a commit can still roll the insertion back.
    fn insert_site(&mut self, config: Config, value: f64) -> Option<FitEvent> {
        self.store.insert(config, value);
        let len = self.store.len();
        if !self
            .settings
            .variogram
            .fit_due(self.model.is_some(), self.fitted_at, len)
        {
            return None;
        }
        let nugget = self.effective_nugget();
        let (families, fallback) = match &self.settings.variogram {
            VariogramPolicy::FitAfter {
                families, fallback, ..
            }
            | VariogramPolicy::Refit {
                families, fallback, ..
            } => (families, *fallback),
            VariogramPolicy::Fixed(_) => unreachable!("fixed models are never due"),
        };
        // Fold only the sites simulated since the last sync into the running
        // bin sums — O(new·N) pair updates instead of a full O(N²) pass.
        let metric = self.settings.metric;
        let acc = self
            .vario_acc
            .get_or_insert_with(|| VariogramAccumulator::new(metric));
        acc.sync(self.store.configs(), self.store.values());
        let fitted = acc
            .snapshot()
            .and_then(|emp| match self.settings.selection {
                ModelSelection::WeightedSse => fit_model(&emp, families),
                ModelSelection::LeaveOneOut => fit_model_loo(
                    &emp,
                    families,
                    self.store.configs(),
                    self.store.values(),
                    metric,
                    nugget,
                ),
            });
        self.fitted_at = len;
        let (model, converged) = match fitted {
            Ok(report) => {
                let model = report.model;
                self.fit_report = Some(report);
                (model, true)
            }
            Err(_) => (fallback, false),
        };
        self.model = Some(model);
        Some(FitEvent {
            at: len,
            model,
            converged,
        })
    }

    /// [`insert_site`](Self::insert_site) that notes the fit at once;
    /// returns whether one fired.
    fn store_site(&mut self, config: Config, value: f64) -> bool {
        let fit = self.insert_site(config, value);
        if let Some(fit) = fit {
            self.note_fit(fit);
        }
        fit.is_some()
    }

    /// Whether the opt-in approximate prediction path is currently active —
    /// `true` only when [`HybridSettings::approx`] is set *and* the last
    /// leave-one-out validation stayed within its declared `epsilon`.
    pub fn approx_active(&self) -> bool {
        self.approx_active
    }

    /// Re-runs the approximate-path validation after insertions: always
    /// when the variogram was re-identified (`refitted`; a refit can shift
    /// every prediction), when the store has grown by
    /// [`ApproxSettings::check_every`] sites since the last check (the
    /// refit-free trigger, e.g. under [`VariogramPolicy::Fixed`]), or if a
    /// model is present but no validation has ever seen it — sessions born
    /// with a fixed model have no fit event, and without this trigger they
    /// would krige exactly for their first `check_every` insertions.
    fn maybe_revalidate_approx(&mut self, refitted: bool) {
        let Some(approx) = &self.settings.approx else {
            return;
        };
        let first_opportunity =
            !self.approx_validated && self.model.is_some() && !self.store.is_empty();
        if refitted
            || first_opportunity
            || self.store.len() >= self.approx_checked_at + approx.check_every.max(1)
        {
            self.revalidate_approx();
        }
    }

    /// Fast leave-one-out cross-validation of the screened-neighbour
    /// approximation (Le Gratiet & Cannamela's cheap accuracy check): a
    /// stride sample of stored sites is predicted from its own neighbours
    /// twice — once with the exact neighbour cap, once screened to
    /// [`ApproxSettings::screen_to`] — and the approximate path stays
    /// active only if every sampled deviation is within the declared
    /// `epsilon`. Sites whose neighbourhoods never exceed `screen_to`
    /// exercise no approximation and impose no constraint.
    fn revalidate_approx(&mut self) {
        let Some(approx) = self.settings.approx else {
            return;
        };
        self.approx_checked_at = self.store.len();
        let Some(model) = self.model else {
            self.approx_active = false;
            return;
        };
        self.approx_validated = true;
        let metric = self.settings.metric;
        let distance = self.settings.distance;
        let min_neighbors = self.settings.min_neighbors;
        let max_neighbors = self.settings.max_neighbors;
        let gate = self.settings.gate;
        let nugget = self.effective_nugget();
        let screen_to = approx.screen_to.max(1);
        let store = &self.store;
        let scratch = &mut self.krige_scratch;
        let value_buf = &mut self.value_buf;
        let neighbor_buf = &mut self.neighbor_buf;
        let table = gamma_table_for(&mut self.gamma_table, model, metric);
        let len = store.len();
        let step = (len / approx.loo_samples.max(1)).max(1);
        let mut active = true;
        let mut i = 0;
        while i < len && active {
            let target = &store.configs()[i];
            store.within_into(target, distance, neighbor_buf);
            // Leave-one-out: the site itself (distance 0) must not predict
            // itself.
            neighbor_buf.retain(|&(p, _)| p != i);
            if let Some(cap) = max_neighbors {
                neighbor_buf.truncate(cap);
            }
            if neighbor_buf.len() > screen_to && gate.admits(neighbor_buf.len(), min_neighbors) {
                let exact = krige_with(
                    scratch,
                    table,
                    store,
                    value_buf,
                    neighbor_buf,
                    target,
                    nugget,
                );
                let screened = krige_with(
                    scratch,
                    table,
                    store,
                    value_buf,
                    &neighbor_buf[..screen_to],
                    target,
                    nugget,
                );
                active = match (exact, screened) {
                    (Ok((ev, _)), Ok((av, _))) => {
                        (av - ev).abs() <= approx.epsilon * ev.abs().max(1.0)
                    }
                    // An exact-path failure is not the approximation's
                    // fault; only converged exact solves judge it.
                    (Err(_), _) => true,
                    (Ok(_), Err(_)) => false,
                };
            }
            i += step;
        }
        self.approx_active = active;
        if let Some(obs) = &self.obs {
            if obs.tracer.enabled() {
                obs.tracer.emit(
                    "approx_validation",
                    vec![("active", active.into()), ("at", len.into())],
                );
            }
        }
    }

    /// Ingests one **observed** `(configuration, value)` pair directly into
    /// the simulated store, bypassing both kriging and the duplicate cache
    /// — the entry point for replicated observations of a noisy metric
    /// (e.g. repeated measurements of a classification rate). Repeats of
    /// the same configuration land as distinct distance-0 sites, and under
    /// [`NuggetPolicy::Estimate`] they feed the pooled within-site variance
    /// that becomes the session nugget.
    ///
    /// Observations are out-of-band data, not queries: they leave
    /// [`HybridStats`] untouched (only the store and, when due, the
    /// variogram identification advance).
    pub fn record_observation(&mut self, config: &Config, value: f64) {
        self.track_replicate(config, value);
        let refitted = self.store_site(config.clone(), value);
        self.maybe_revalidate_approx(refitted);
    }

    /// Folds one observation into the per-configuration Welford state and
    /// the incrementally maintained pooled sums. No-op unless the session
    /// runs under [`NuggetPolicy::Estimate`]. The delta updates keep the
    /// pooled estimate a pure function of the observation sequence —
    /// deterministic across worker counts.
    fn track_replicate(&mut self, config: &Config, value: f64) {
        if !matches!(self.settings.nugget, Some(NuggetPolicy::Estimate)) {
            return;
        }
        let entry = self
            .replicates
            .entry(config.clone())
            .or_insert((0, 0.0, 0.0));
        let (n, mean, m2) = *entry;
        if n >= 1 {
            self.pooled_m2 -= m2;
            self.pooled_dof -= n - 1;
        }
        let n1 = n + 1;
        let delta = value - mean;
        let mean1 = mean + delta / n1 as f64;
        let m21 = m2 + delta * (value - mean1);
        *entry = (n1, mean1, m21);
        self.pooled_m2 += m21;
        self.pooled_dof += n1 - 1;
    }

    /// The nugget variance `c` in effect for the next solve: the fixed
    /// value, the pooled replicate estimate `Σᵢ M2ᵢ / Σᵢ (nᵢ − 1)`, or 0
    /// when nugget handling is off (or no replicates have been seen yet).
    pub fn effective_nugget(&self) -> f64 {
        match self.settings.nugget {
            None => 0.0,
            Some(NuggetPolicy::Fixed { value }) => value,
            Some(NuggetPolicy::Estimate) => {
                if self.pooled_dof == 0 {
                    0.0
                } else {
                    self.pooled_m2 / self.pooled_dof as f64
                }
            }
        }
    }

    /// Session statistics (Table I raw material).
    pub fn stats(&self) -> &HybridStats {
        &self.stats
    }

    /// The settings in use.
    pub fn settings(&self) -> &HybridSettings {
        &self.settings
    }

    /// The identified (or fixed) variogram model, once available.
    pub fn model(&self) -> Option<&VariogramModel> {
        self.model.as_ref()
    }

    /// The identification report, if a fit was performed.
    pub fn fit_report(&self) -> Option<&FitReport> {
        self.fit_report.as_ref()
    }

    /// Configurations simulated so far (the matrix `W_sim`).
    pub fn simulated_configs(&self) -> &[Config] {
        self.store.configs()
    }

    /// Metric values of the simulated configurations (`λ_sim`).
    pub fn simulated_values(&self) -> &[f64] {
        self.store.values()
    }

    /// Restores session state from a snapshot (internal; see
    /// [`crate::hybrid_snapshot::SessionSnapshot`]).
    pub(crate) fn restore(&mut self, snapshot: crate::hybrid_snapshot::SessionSnapshot) {
        for (config, value) in snapshot.configs.into_iter().zip(snapshot.values) {
            // Rebuild the replicate (nugget-estimation) state from the
            // stored sites, so estimation continues seamlessly after resume.
            self.track_replicate(&config, value);
            self.store.insert(config, value);
        }
        if snapshot.model.is_some() {
            self.model = snapshot.model;
        }
        self.fitted_at = self.store.len();
        self.stats = snapshot.stats;
    }

    /// Borrows the inner simulation evaluator.
    pub fn inner_ref(&self) -> &E {
        &self.inner
    }

    /// Consumes the wrapper and returns the inner evaluator.
    pub fn into_inner(self) -> E {
        self.inner
    }
}

/// One kriged prediction of a stored site for the approximate path's
/// leave-one-out validation: solve the neighbour system through the
/// γ-table, interpolate, and apply the plausibility envelope (an
/// implausible prediction is a [`CoreError::SingularSystem`]).
///
/// Free function over disjoint `HybridEvaluator` fields so the borrow of the
/// neighbour buffer can coexist with the mutable scratch borrows.
fn krige_with(
    scratch: &mut KrigingScratch,
    table: &mut GammaTable,
    store: &NeighborIndex,
    value_buf: &mut Vec<f64>,
    neighbors: &[(usize, f64)],
    target: &Config,
    nugget: f64,
) -> Result<(f64, f64), crate::CoreError> {
    let configs = store.configs();
    let values = store.values();
    let n = neighbors.len();
    value_buf.clear();
    value_buf.extend(neighbors.iter().map(|&(j, _)| values[j]));
    scratch.solve_with(n, |i, j| {
        let a = &configs[neighbors[i].0];
        let g = if j == n {
            table.gamma_pair(a, target)
        } else {
            table.gamma_pair(a, &configs[neighbors[j].0])
        };
        with_nugget(g, nugget)
    })?;
    let value = scratch.interpolate(value_buf);
    let variance = scratch.variance();
    if !plausible(value, variance, value_buf) {
        return Err(crate::CoreError::SingularSystem { sites: n });
    }
    Ok((value, variance))
}

/// The plausibility envelope of a kriged prediction. A short-range
/// interpolation has no business leaving the neighbourhood's value range
/// by more than twice its spread; violations indicate a mis-fit variogram
/// or ill conditioning, and the query falls back to simulation (counted as
/// a kriging failure).
fn plausible(value: f64, variance: f64, neighbor_values: &[f64]) -> bool {
    let lo = neighbor_values
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let hi = neighbor_values
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let spread = (hi - lo).max(1e-9);
    value.is_finite()
        && variance.is_finite()
        && value >= lo - 2.0 * spread
        && value <= hi + 2.0 * spread
}

/// Adds a non-zero nugget `c` to a between-site or target semi-variogram
/// value; the `!= 0.0` branch keeps the nugget-free path bitwise
/// untouched.
fn with_nugget(gamma: f64, nugget: f64) -> f64 {
    if nugget != 0.0 {
        gamma + nugget
    } else {
        gamma
    }
}

/// The session γ-table, re-targeted at `model` (its memoized entries
/// survive while the model is unchanged).
fn gamma_table_for(
    slot: &mut Option<GammaTable>,
    model: VariogramModel,
    metric: DistanceMetric,
) -> &mut GammaTable {
    match slot {
        Some(t) => {
            if !t.matches(&model, metric) {
                t.reset(model, metric);
            }
            t
        }
        empty @ None => empty.insert(GammaTable::new(model, metric)),
    }
}

/// Encodes a variogram model as an orderable bit pattern so batch groups can
/// key on it (`f64` is not `Ord`; two models are the same group exactly when
/// every parameter is bit-identical). Zero-padded fixed array: models with
/// different tags differ in the first element, and equal tags imply equal
/// arity, so the ordering matches the previous variable-length encoding.
fn model_bits(m: &VariogramModel) -> [u64; 4] {
    match *m {
        VariogramModel::Nugget { nugget } => [0, nugget.to_bits(), 0, 0],
        VariogramModel::Linear { nugget, slope } => [1, nugget.to_bits(), slope.to_bits(), 0],
        VariogramModel::Power {
            nugget,
            scale,
            exponent,
        } => [2, nugget.to_bits(), scale.to_bits(), exponent.to_bits()],
        VariogramModel::Spherical {
            nugget,
            sill,
            range,
        } => [3, nugget.to_bits(), sill.to_bits(), range.to_bits()],
        VariogramModel::Exponential {
            nugget,
            sill,
            range,
        } => [4, nugget.to_bits(), sill.to_bits(), range.to_bits()],
        VariogramModel::Gaussian {
            nugget,
            sill,
            range,
        } => [5, nugget.to_bits(), sill.to_bits(), range.to_bits()],
    }
}

/// Computes the audit error in the units of `metric` (Eq. 11 or Eq. 12).
fn audit_error(metric: AuditMetric, interpolated: f64, real: f64) -> f64 {
    match metric {
        // λ = −P_dB, so λ̂ − λ = P_dB − P̂_dB and
        // |log₂(P̂/P)| = |P̂_dB − P_dB| / (10·log₁₀ 2).
        AuditMetric::NoisePowerDb => (interpolated - real).abs() / (10.0 * 2f64.log10()),
        AuditMetric::Relative => (interpolated - real).abs() / real.abs().max(f64::MIN_POSITIVE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::AccuracyEvaluator;
    use crate::FnEvaluator;

    fn smooth_eval() -> FnEvaluator<impl FnMut(&Config) -> Result<f64, EvalError>> {
        // The additive quantization-noise model of the word-length
        // benchmarks: accuracy −10·log₁₀(Σ gᵢ·2^(−2wᵢ)) — smooth, monotone,
        // ~6 dB per bit on the dominant variable.
        FnEvaluator::new(2, |w: &Config| {
            let p = 1.5 * 2f64.powi(-2 * w[0]) + 0.8 * 2f64.powi(-2 * w[1]);
            Ok(-10.0 * p.log10())
        })
    }

    fn settings(d: f64) -> HybridSettings {
        HybridSettings {
            distance: d,
            ..HybridSettings::default()
        }
    }

    #[test]
    fn invalid_settings_are_rejected_with_typed_errors() {
        let cases = [
            HybridSettings {
                distance: 0.0,
                ..HybridSettings::default()
            },
            HybridSettings {
                distance: f64::NAN,
                ..HybridSettings::default()
            },
            HybridSettings {
                distance: f64::INFINITY,
                ..HybridSettings::default()
            },
            HybridSettings {
                min_neighbors: 0,
                ..HybridSettings::default()
            },
            HybridSettings {
                gate: GatePolicy::Variance {
                    threshold: f64::NAN,
                },
                ..HybridSettings::default()
            },
            HybridSettings {
                gate: GatePolicy::Variance { threshold: 0.0 },
                ..HybridSettings::default()
            },
            HybridSettings {
                nugget: Some(NuggetPolicy::Fixed { value: -0.5 }),
                ..HybridSettings::default()
            },
        ];
        for bad in cases {
            let err = HybridEvaluator::try_new(smooth_eval(), bad.clone())
                .map(|_| ())
                .unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidSettings { .. }),
                "{bad:?} -> {err}"
            );
        }
        // An infinite variance threshold is legal (degenerates to Fixed).
        let ok = HybridSettings {
            gate: GatePolicy::Variance {
                threshold: f64::INFINITY,
            },
            ..HybridSettings::default()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid hybrid settings")]
    fn new_panics_on_invalid_settings() {
        let _ = HybridEvaluator::new(
            smooth_eval(),
            HybridSettings {
                min_neighbors: 0,
                ..HybridSettings::default()
            },
        );
    }

    #[test]
    fn gate_labels_are_stable() {
        assert_eq!(GatePolicy::Fixed.label(), "fixed");
        assert_eq!(
            GatePolicy::Variance { threshold: 0.5 }.label(),
            "variance(0.5)"
        );
    }

    #[test]
    fn record_observation_feeds_nugget_estimate_without_counting_queries() {
        let mut h = HybridEvaluator::new(
            smooth_eval(),
            HybridSettings {
                nugget: Some(NuggetPolicy::Estimate),
                ..settings(3.0)
            },
        );
        // Three replicates at one site with a known spread: sample variance
        // of {1.0, 2.0, 3.0} is 1.0.
        h.record_observation(&vec![8, 8], 1.0);
        h.record_observation(&vec![8, 8], 2.0);
        h.record_observation(&vec![8, 8], 3.0);
        // A non-replicated observation contributes no degrees of freedom.
        h.record_observation(&vec![9, 9], 5.0);
        assert!((h.effective_nugget() - 1.0).abs() < 1e-12);
        assert_eq!(h.stats().queries, 0, "observations are not queries");
        assert_eq!(h.simulated_configs().len(), 4);
    }

    #[test]
    fn zero_fixed_nugget_matches_no_nugget_bitwise() {
        let run = |nugget: Option<NuggetPolicy>| -> Vec<u64> {
            let mut h = HybridEvaluator::new(
                smooth_eval(),
                HybridSettings {
                    nugget,
                    ..settings(3.0)
                },
            );
            let mut bits = Vec::new();
            for a in 6..11 {
                for b in 6..10 {
                    bits.push(h.evaluate(&vec![a, b]).unwrap().value().to_bits());
                }
            }
            for b in 6..10 {
                bits.push(h.evaluate(&vec![11, b]).unwrap().value().to_bits());
            }
            bits
        };
        assert_eq!(run(None), run(Some(NuggetPolicy::Fixed { value: 0.0 })));
    }

    #[test]
    fn first_queries_are_simulated() {
        let mut h = HybridEvaluator::new(smooth_eval(), settings(3.0));
        for i in 0..5 {
            let out = h.evaluate(&vec![8 + i, 8]).unwrap();
            assert!(matches!(out, Outcome::Simulated { .. }));
        }
        assert_eq!(h.stats().simulated, 5);
        assert_eq!(h.stats().kriged, 0);
    }

    #[test]
    fn dense_sampling_enables_kriging() {
        let mut h = HybridEvaluator::new(smooth_eval(), settings(3.0));
        for a in 6..11 {
            for b in 6..10 {
                h.evaluate(&vec![a, b]).unwrap();
            }
        }
        let before = h.stats().kriged;
        let out = h.evaluate(&vec![8, 10]).unwrap();
        assert!(matches!(out, Outcome::Kriged { .. }), "{out:?}");
        assert_eq!(h.stats().kriged, before + 1);
    }

    #[test]
    fn kriged_configs_are_not_stored() {
        let mut h = HybridEvaluator::new(smooth_eval(), settings(3.0));
        for a in 6..11 {
            for b in 6..10 {
                h.evaluate(&vec![a, b]).unwrap();
            }
        }
        let stored_before = h.simulated_configs().len();
        let out = h.evaluate(&vec![8, 10]).unwrap();
        assert!(matches!(out, Outcome::Kriged { .. }));
        assert_eq!(h.simulated_configs().len(), stored_before);
    }

    #[test]
    fn duplicate_queries_hit_the_cache() {
        let mut h = HybridEvaluator::new(smooth_eval(), settings(2.0));
        let w = vec![9, 9];
        let first = h.evaluate(&w).unwrap().value();
        let inner_calls = {
            let s = h.stats().clone();
            s.simulated
        };
        let second = h.evaluate(&w).unwrap().value();
        assert_eq!(first, second);
        assert_eq!(h.stats().cache_hits, 1);
        assert_eq!(h.stats().simulated, inner_calls, "no extra simulation");
    }

    #[test]
    fn kriging_accuracy_on_smooth_surface() {
        // Defer identification until the whole 25-point grid is simulated so
        // the test measures pure interpolation accuracy, not the (legitimate
        // but noisy) cold-start extrapolation the paper also exhibits.
        let mut s = settings(4.0);
        s.variogram = VariogramPolicy::FitAfter {
            min_samples: 25,
            families: ModelFamily::all().to_vec(),
            fallback: VariogramModel::linear(1.0),
        };
        let mut h = HybridEvaluator::new(smooth_eval(), s);
        for a in (4..14).step_by(2) {
            for b in (4..14).step_by(2) {
                h.evaluate(&vec![a, b]).unwrap();
            }
        }
        // Interpolate odd lattice points and compare against the truth.
        let mut reference = smooth_eval();
        let mut worst: f64 = 0.0;
        let mut kriged_count = 0;
        for a in [5, 7, 9, 11] {
            for b in [5, 7, 9, 11] {
                let w = vec![a, b];
                if let Outcome::Kriged { value, .. } = h.evaluate(&w).unwrap() {
                    let truth = reference.evaluate(&w).unwrap();
                    worst = worst.max((value - truth).abs());
                    kriged_count += 1;
                }
            }
        }
        assert!(kriged_count >= 12, "only {kriged_count} kriged");
        // The paper's own max ε at d = 4 reaches 2.3 bits (≈7 dB); interior
        // interpolation here must stay well inside that envelope.
        assert!(worst < 3.5, "worst abs error {worst} dB (≈1.2 bit budget)");
    }

    #[test]
    fn min_neighbors_is_strict() {
        // With min_neighbors = usize::MAX nothing can ever be kriged.
        let mut s = settings(10.0);
        s.min_neighbors = usize::MAX;
        let mut h = HybridEvaluator::new(smooth_eval(), s);
        for a in 4..12 {
            h.evaluate(&vec![a, 8]).unwrap();
        }
        assert_eq!(h.stats().kriged, 0);
    }

    #[test]
    fn larger_distance_interpolates_more() {
        let run = |d: f64| -> f64 {
            let mut h = HybridEvaluator::new(smooth_eval(), settings(d));
            // A fixed query stream mimicking an optimizer trajectory.
            for a in 4..14 {
                h.evaluate(&vec![a, 8]).unwrap();
                h.evaluate(&vec![a, 9]).unwrap();
                h.evaluate(&vec![8, a]).unwrap();
            }
            h.stats().interpolated_fraction()
        };
        let p2 = run(2.0);
        let p5 = run(5.0);
        assert!(p5 >= p2, "p(d=5) = {p5} < p(d=2) = {p2}");
        assert!(p5 > 0.0);
    }

    #[test]
    fn audit_mode_records_errors_without_storing() {
        let mut s = settings(4.0);
        s.audit = Some(AuditMetric::NoisePowerDb);
        s.variogram = VariogramPolicy::FitAfter {
            min_samples: 25,
            families: ModelFamily::all().to_vec(),
            fallback: VariogramModel::linear(1.0),
        };
        let mut h = HybridEvaluator::new(smooth_eval(), s);
        for a in (4..14).step_by(2) {
            for b in (4..14).step_by(2) {
                h.evaluate(&vec![a, b]).unwrap();
            }
        }
        let stored = h.simulated_configs().len();
        for a in [5, 7, 9] {
            h.evaluate(&vec![a, 7]).unwrap();
        }
        assert!(h.stats().errors.count() > 0, "audit recorded nothing");
        assert_eq!(h.simulated_configs().len(), stored);
        // Interior interpolation on a smooth surface: well under 1 bit.
        assert!(h.stats().errors.mean() < 1.0, "{:?}", h.stats().errors);
    }

    #[test]
    fn fixed_model_kriges_immediately_once_neighbors_exist() {
        let mut s = settings(5.0);
        s.variogram = VariogramPolicy::Fixed(VariogramModel::linear(1.0));
        let mut h = HybridEvaluator::new(smooth_eval(), s);
        for a in 6..10 {
            h.evaluate(&vec![a, 8]).unwrap();
        }
        let out = h.evaluate(&vec![7, 9]).unwrap();
        assert!(matches!(out, Outcome::Kriged { .. }), "{out:?}");
    }

    #[test]
    fn fit_report_is_available_after_identification() {
        let mut h = HybridEvaluator::new(smooth_eval(), settings(3.0));
        for a in 4..15 {
            h.evaluate(&vec![a, a]).unwrap();
        }
        assert!(h.model().is_some());
        assert!(h.fit_report().is_some());
    }

    #[test]
    fn near_duplicate_sites_do_not_escalate_to_errors() {
        // A restored session can hold the same configuration twice with
        // noisy values (merged journals of a stochastic simulator). The
        // kriging matrix then has duplicate rows — classically singular.
        // The per-prediction contract: the system is either regularized or
        // the query falls back to simulation (counted in
        // `kriging_failures`); a `CoreError::SingularSystem` must never
        // surface as an optimizer-level error.
        let mut s = settings(5.0);
        s.variogram = VariogramPolicy::Fixed(VariogramModel::linear(1.0));
        let mut h = HybridEvaluator::new(smooth_eval(), s);
        h.restore(crate::hybrid_snapshot::SessionSnapshot {
            configs: vec![vec![8, 8], vec![8, 8], vec![9, 8], vec![8, 9], vec![7, 8]],
            values: vec![60.0, 60.3, 54.0, 55.0, 66.0],
            model: None,
            stats: HybridStats {
                queries: 5,
                simulated: 5,
                ..HybridStats::default()
            },
        });
        let out = h.evaluate(&vec![9, 9]).expect("query must not error");
        // Whichever way the solver resolved it, the query was answered and
        // the accounting stayed consistent.
        let s = h.stats();
        assert_eq!(s.queries, 6);
        assert_eq!(s.queries, s.simulated + s.kriged + s.cache_hits);
        let _ = out;
    }

    #[test]
    fn implausible_prediction_falls_back_to_simulation_per_query() {
        // Colinear sites under an ultra-smooth Gaussian model make the
        // extrapolation weights oscillate (polynomial-extrapolation
        // behaviour); with near-constant jittered values the prediction
        // leaves the plausibility envelope. That must be a *per-query*
        // fall-back-to-simulation decision counted in `kriging_failures`,
        // not an error.
        let mut s = settings(10.0);
        s.variogram =
            VariogramPolicy::Fixed(VariogramModel::gaussian(0.0, 1.0, 50.0).expect("valid model"));
        let configs: Vec<Config> = (4..=11).map(|a| vec![a, 8]).collect();
        let values: Vec<f64> = (0..configs.len())
            .map(|i| 60.0 + if i % 2 == 0 { 1e-3 } else { -1e-3 })
            .collect();
        let n = configs.len() as u64;
        let mut h = HybridEvaluator::new(FnEvaluator::new(2, |_: &Config| Ok(60.0)), s);
        h.restore(crate::hybrid_snapshot::SessionSnapshot {
            configs,
            values,
            model: None,
            stats: HybridStats {
                queries: n,
                simulated: n,
                ..HybridStats::default()
            },
        });
        // Extrapolate past the end of the line.
        let out = h.evaluate(&vec![14, 8]).expect("fallback, not an error");
        assert!(
            matches!(out, Outcome::Simulated { .. }),
            "expected simulation fallback, got {out:?}"
        );
        assert_eq!(h.stats().kriging_failures, 1, "fallback must be counted");
        // The session remains usable: an interior query still kriges.
        let interior = h.evaluate(&vec![7, 8]).unwrap();
        let _ = interior;
        assert_eq!(
            h.stats().queries,
            h.stats().simulated + h.stats().kriged + h.stats().cache_hits
        );
    }

    #[test]
    fn audit_error_units() {
        // 3.0103 dB difference = exactly 1 equivalent bit.
        let e = audit_error(AuditMetric::NoisePowerDb, 63.0103, 60.0);
        assert!((e - 1.0).abs() < 1e-6, "e = {e}");
        let r = audit_error(AuditMetric::Relative, 0.9, 1.0);
        assert!((r - 0.1).abs() < 1e-12);
    }

    #[test]
    fn stats_fractions() {
        let mut s = HybridStats::default();
        assert_eq!(s.interpolated_fraction(), 0.0);
        assert_eq!(s.mean_neighbors(), 0.0);
        s.queries = 10;
        s.kriged = 4;
        s.neighbor_sum = 14;
        assert!((s.interpolated_fraction() - 0.4).abs() < 1e-12);
        assert!((s.mean_neighbors() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn refit_policy_reidentifies_periodically() {
        let mut s = settings(3.0);
        s.variogram = VariogramPolicy::Refit {
            min_samples: 6,
            every: 10,
            families: ModelFamily::all().to_vec(),
            fallback: VariogramModel::linear(1.0),
        };
        let mut h = HybridEvaluator::new(smooth_eval(), s);
        for a in 4..10 {
            h.evaluate(&vec![a, 8]).unwrap();
        }
        let first_model = *h.model().expect("fitted after min_samples");
        // Feed a structurally different region so the refit sees new pairs.
        for a in 4..16 {
            h.evaluate(&vec![8, a]).unwrap();
            h.evaluate(&vec![a, 14]).unwrap();
        }
        assert!(h.model().is_some());
        // At least one refit happened (fitted_at advanced past min_samples).
        assert!(
            h.fitted_at > 6,
            "no refit occurred (fitted_at {})",
            h.fitted_at
        );
        let _ = first_model;
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn stats_invariants_hold_on_random_query_streams(
                queries in proptest::collection::vec((4i32..14, 4i32..14), 5..60),
                d in 2.0f64..5.0,
            ) {
                let mut h = HybridEvaluator::new(smooth_eval(), settings(d));
                for (a, b) in queries {
                    let _ = h.evaluate(&vec![a, b]).unwrap();
                }
                let s = h.stats();
                // Every query is exactly one of: simulated, kriged, cached.
                prop_assert_eq!(s.queries, s.simulated + s.kriged + s.cache_hits);
                // The store holds exactly the simulated configurations.
                prop_assert_eq!(h.simulated_configs().len() as u64, s.simulated);
                // Kriged queries each used more than min_neighbors sites.
                if s.kriged > 0 {
                    prop_assert!(s.mean_neighbors() > 3.0);
                }
                // No duplicates in the simulated store.
                let mut seen = std::collections::HashSet::new();
                for c in h.simulated_configs() {
                    prop_assert!(seen.insert(c.clone()), "duplicate stored: {:?}", c);
                }
            }

            #[test]
            fn evaluate_batch_matches_sequential_evaluate(
                warm in proptest::collection::vec((4i32..14, 4i32..14), 8..30),
                batch in proptest::collection::vec((4i32..14, 4i32..14), 1..20),
                d in 2.0f64..5.0,
            ) {
                let mut seq = HybridEvaluator::new(smooth_eval(), settings(d));
                let mut bat = HybridEvaluator::new(smooth_eval(), settings(d));
                for &(a, b) in &warm {
                    seq.evaluate(&vec![a, b]).unwrap();
                    bat.evaluate(&vec![a, b]).unwrap();
                }
                let configs: Vec<Config> =
                    batch.iter().map(|&(a, b)| vec![a, b]).collect();
                let batched = bat.evaluate_batch(&configs).unwrap();
                let sequential: Vec<Outcome> = configs
                    .iter()
                    .map(|c| seq.evaluate(c).unwrap())
                    .collect();
                // The batch rule: a slot whose solve fails (or is
                // gate-rejected) is simulated and stored at the end of the
                // batch, so later slots of the batch do not see it, while
                // one-slot calls store it at once. The streams agree
                // exactly when no fallback fired on either side.
                prop_assume!(
                    bat.stats().kriging_failures == 0
                        && seq.stats().kriging_failures == 0
                );
                prop_assert_eq!(batched.len(), sequential.len());
                for (b_out, s_out) in batched.iter().zip(&sequential) {
                    prop_assert_eq!(b_out.source(), s_out.source());
                    // The batched path solves through a shared factorization;
                    // values agree with the one-shot solver to solver noise.
                    let diff = (b_out.value() - s_out.value()).abs();
                    prop_assert!(
                        diff < 1e-9 * s_out.value().abs().max(1.0),
                        "batch {} vs sequential {}",
                        b_out.value(),
                        s_out.value()
                    );
                }
                prop_assert_eq!(bat.stats().queries, seq.stats().queries);
                prop_assert_eq!(bat.stats().simulated, seq.stats().simulated);
                prop_assert_eq!(bat.stats().kriged, seq.stats().kriged);
                prop_assert_eq!(bat.stats().cache_hits, seq.stats().cache_hits);
                prop_assert_eq!(
                    bat.simulated_configs().len(),
                    seq.simulated_configs().len()
                );
            }

            #[test]
            fn evaluate_value_equals_outcome_value(
                a in 4i32..14, b in 4i32..14,
            ) {
                let mut h1 = HybridEvaluator::new(smooth_eval(), settings(3.0));
                let mut h2 = HybridEvaluator::new(smooth_eval(), settings(3.0));
                for x in 4..10 {
                    h1.evaluate(&vec![x, 8]).unwrap();
                    h2.evaluate(&vec![x, 8]).unwrap();
                }
                let v1 = h1.evaluate(&vec![a, b]).unwrap().value();
                let v2 = h2.evaluate_value(&vec![a, b]).unwrap();
                prop_assert_eq!(v1, v2);
            }
        }
    }

    #[test]
    fn failed_batch_commits_nothing() {
        // Satellite contract: a batch that errors is all-or-nothing — no
        // counters, no stored configurations, no model state.
        let mut h = HybridEvaluator::new(
            FnEvaluator::new(2, |w: &Config| {
                if w[0] >= 12 {
                    Err(EvalError::msg("simulator rejects w0 >= 12"))
                } else {
                    let p = 1.5 * 2f64.powi(-2 * w[0]) + 0.8 * 2f64.powi(-2 * w[1]);
                    Ok(-10.0 * p.log10())
                }
            }),
            settings(3.0),
        );
        h.evaluate(&vec![8, 8]).unwrap();
        let stats_before = h.stats().clone();
        let stored_before = h.simulated_configs().to_vec();
        let err = h
            .evaluate_batch(&[vec![9, 8], vec![12, 8], vec![10, 8]])
            .unwrap_err();
        assert!(err.to_string().contains("rejects"), "{err}");
        assert_eq!(h.stats(), &stats_before, "counters must be untouched");
        assert_eq!(h.simulated_configs(), stored_before.as_slice());
        assert!(h.model().is_none(), "no fit may have been committed");
        // The session stays fully usable afterwards.
        let ok = h.evaluate_batch(&[vec![9, 8], vec![10, 8]]).unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(h.stats().queries, stats_before.queries + 2);
    }

    #[test]
    fn planning_is_pure_and_classifies_slots() {
        let mut h = HybridEvaluator::new(smooth_eval(), settings(3.0));
        for a in 4..12 {
            h.evaluate(&vec![a, 8]).unwrap();
        }
        let stats = h.stats().clone();
        let stored = h.simulated_configs().to_vec();
        let batch: Vec<Config> = vec![vec![7, 9], vec![5, 8], vec![13, 9], vec![5, 8]];
        let mut plan = BatchPlan::default();
        h.plan(&batch, &mut plan);
        assert_eq!(h.stats(), &stats, "planning must not mutate state");
        assert_eq!(h.simulated_configs(), stored.as_slice());
        assert_eq!(plan.slots.len(), 4);
        assert_eq!(plan.num_cache_hits(), 2, "[5,8] is stored; both copies hit");
        assert_eq!(plan.num_krigeable() + plan.requests.len(), 2);
    }

    #[test]
    fn mid_batch_fits_match_sequential() {
        // A batch long enough to cross the FitAfter threshold mid-way: the
        // planner schedules the fit, commit runs it as the requests are
        // inserted, and both the model and the post-fit kriging decisions
        // match a stream of single queries. A linear surface keeps every
        // prediction inside the plausibility envelope, so the batch rule
        // for fallback simulations does not come into play.
        let lin = || {
            FnEvaluator::new(2, |w: &Config| {
                Ok(6.0 * f64::from(w[0]) + 3.0 * f64::from(w[1]))
            })
        };
        let mut seq = HybridEvaluator::new(lin(), settings(4.0));
        let mut bat = HybridEvaluator::new(lin(), settings(4.0));
        // Warm both sessions one short of the 10-sample fit threshold with a
        // well-spread 2-D grid (stable kriging geometry), then stream a
        // batch whose first simulation triggers the fit.
        for a in [4, 6, 8] {
            for b in [4, 6, 8] {
                seq.evaluate(&vec![a, b]).unwrap();
                bat.evaluate(&vec![a, b]).unwrap();
            }
        }
        let stream: Vec<Config> = vec![
            vec![5, 5],
            vec![5, 6],
            vec![6, 5],
            vec![6, 6],
            vec![7, 6],
            vec![6, 7],
            vec![5, 7],
            vec![7, 5],
        ];
        for c in &stream {
            seq.evaluate(c).unwrap();
        }
        let outcomes = bat.evaluate_batch(&stream).unwrap();
        assert_eq!(seq.stats().kriging_failures, 0, "{:?}", seq.stats());
        assert_eq!(bat.stats().kriging_failures, 0, "{:?}", bat.stats());
        assert!(seq.model().is_some() && bat.model().is_some());
        assert_eq!(bat.model(), seq.model(), "replayed fit must match");
        assert_eq!(bat.stats().kriged, seq.stats().kriged);
        assert_eq!(bat.stats().simulated, seq.stats().simulated);
        assert!(outcomes.iter().any(|o| o.source() == Source::Kriged));
    }

    #[test]
    fn into_inner_returns_the_simulator() {
        let h = HybridEvaluator::new(smooth_eval(), settings(2.0));
        let inner = h.into_inner();
        assert_eq!(AccuracyEvaluator::num_variables(&inner), 2);
    }

    #[test]
    fn fixed_model_sessions_validate_approx_before_the_growth_window() {
        // A session born with a fixed model (the campaign pilot-variogram
        // path) has no fit event to trigger the first leave-one-out check;
        // it must validate at the first insertion rather than silently
        // kriging exactly for its first `check_every` insertions.
        let fixed = VariogramModel::linear(1.0);
        let mut h = HybridEvaluator::new(
            smooth_eval(),
            HybridSettings {
                distance: 3.0,
                variogram: VariogramPolicy::Fixed(fixed),
                approx: Some(ApproxSettings {
                    screen_to: 2,
                    epsilon: 1e9,
                    loo_samples: 8,
                    check_every: 1000,
                }),
                ..HybridSettings::default()
            },
        );
        for a in 4..8 {
            for b in 4..8 {
                h.simulate_exact(&vec![a, b]).unwrap();
            }
        }
        assert!(
            h.approx_active(),
            "16 insertions with a fixed model and ε = 1e9 must leave the \
             approximation active long before check_every = 1000"
        );
        let out = h.evaluate(&vec![8, 6]).unwrap();
        let Outcome::Kriged { neighbors, .. } = out else {
            panic!("a target beside the block must krige, got {out:?}");
        };
        assert_eq!(
            neighbors, 2,
            "active screening must cap the system at screen_to"
        );
    }
}
