//! The `cnn-frontier` workload: seeded descent-style frontiers of the two
//! CNN problems (squeezenet noise budgeting, quantized_cnn word lengths)
//! through an audited `HybridEvaluator` over the 2-thread
//! `EngineBackend`, the engine's parallel in-run backend.
//!
//! A stream starts where the problem's optimizer starts (squeezenet with
//! no injected noise, quantized_cnn at the narrowest word lengths), sends
//! the frontier one step up in every variable as one batch, then moves to
//! a random member of it, as the descent and min+1 optimizers do.
//! Every step raises the sum of the configuration by one, so no
//! configuration repeats, and with audit on every configuration is
//! simulated exactly once: the work is the same for every seed, while the
//! networks, images and walk come from it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use krigeval_core::hybrid::{HybridEvaluator, HybridSettings, NuggetPolicy};
use krigeval_core::{AccuracyEvaluator, Config, EvalBackend, FiniteGuard, Outcome};
use krigeval_engine::suite::{build_seeded, Problem};
use krigeval_engine::{EngineBackend, Scale, SimCache};

use crate::layers::{self, short_name, LayerInputs};
use crate::stats::{derive_seed, median, peak_rss_mib, process_cpu_s, Metric, Report, SplitMix};
use crate::trace::{traced_pool, Recorder};
use crate::Args;

const NAME: &str = "cnn-frontier";
/// Worker threads of the backend pool.
const THREADS: usize = 2;
/// Instances per invocation, each one stream per problem.
const INSTANCES: u64 = 2;
/// Frontier batches per stream.
const FRONTIERS: usize = 12;
const PROBLEMS: [Problem; 2] = [Problem::Squeezenet, Problem::QuantizedCnn];

/// One problem instance and the frontiers sent to it.
struct Stream {
    problem: Problem,
    seed: u64,
    frontiers: Vec<Vec<Config>>,
}

impl Stream {
    fn namespace(&self) -> String {
        format!("{}/fast/{:016x}", self.problem.label(), self.seed)
    }
}

/// Every stream of instance `k`, generated from the workload seed.
fn streams(seed: u64, k: u64) -> Vec<Stream> {
    PROBLEMS
        .iter()
        .enumerate()
        .map(|(i, &problem)| {
            let tag = 2 * k + i as u64;
            let instance_seed = derive_seed(seed, 300 + tag);
            let instance = build_seeded(problem, Scale::Fast, instance_seed);
            let (start, max) = match (&instance.minplusone, &instance.descent) {
                (Some(o), _) => (o.w_floor, o.w_max),
                (None, Some(o)) => (o.level_floor, o.level_max),
                (None, None) => unreachable!("every problem has an optimizer"),
            };
            let mut rng = SplitMix(derive_seed(seed, 400 + tag));
            let mut point = vec![start; problem.nv()];
            let frontiers = (0..FRONTIERS)
                .map(|_| {
                    let frontier: Vec<Config> = (0..point.len())
                        .filter(|&v| point[v] < max)
                        .map(|v| {
                            let mut c = point.clone();
                            c[v] += 1;
                            c
                        })
                        .collect();
                    point = frontier[rng.below(frontier.len())].clone();
                    frontier
                })
                .collect();
            Stream {
                problem,
                seed: instance_seed,
                frontiers,
            }
        })
        .collect()
}

/// The hybrid settings of the CNN cells of the Table-I matrix: d = 3,
/// N_n,min = 3, audit on, estimated nugget.
fn settings(problem: Problem) -> HybridSettings {
    HybridSettings {
        distance: 3.0,
        min_neighbors: 3,
        audit: Some(problem.audit_metric()),
        nugget: Some(NuggetPolicy::Estimate),
        ..HybridSettings::default()
    }
}

/// Sends every frontier of `stream` through a hybrid evaluator over
/// `backend`, checking each value, and returns the outcomes.
fn replay<B: EvalBackend>(stream: &Stream, backend: B, report: &mut Report) -> Vec<Outcome> {
    let mut hybrid = HybridEvaluator::new(backend, settings(stream.problem));
    let mut outcomes = Vec::new();
    for (n, frontier) in stream.frontiers.iter().enumerate() {
        let name = short_name(stream.problem);
        match hybrid.evaluate_batch(frontier) {
            Ok(batch) => {
                // A classification rate is in [0, 1]; a kriged estimate of
                // one need not be, so only simulated values are bounded.
                let ok = batch.iter().all(|o| match o {
                    Outcome::Simulated { value } => (0.0..=1.0).contains(value),
                    Outcome::Kriged { value, .. } => value.is_finite(),
                });
                report.check(ok, || format!("{name} frontier {n}: value out of range"));
                outcomes.extend(batch);
            }
            Err(e) => report.check(false, || format!("{name} frontier {n} failed: {e}")),
        }
    }
    outcomes
}

fn plain_backend(stream: &Stream) -> EngineBackend {
    let (problem, seed) = (stream.problem, stream.seed);
    EngineBackend::new(
        move || {
            Box::new(FiniteGuard::new(
                build_seeded(problem, Scale::Fast, seed).evaluator,
            )) as Box<dyn AccuracyEvaluator + Send>
        },
        THREADS,
        Arc::new(SimCache::new()),
        stream.namespace(),
    )
}

/// Checks the first frontier (nothing to krige from yet, so simulated)
/// against the problem's own evaluator on this thread, bitwise.
fn check_inline(stream: &Stream, outcomes: &[Outcome], report: &mut Report) {
    let mut evaluator = build_seeded(stream.problem, Scale::Fast, stream.seed).evaluator;
    let ok = stream.frontiers[0]
        .iter()
        .zip(outcomes)
        .all(|(config, outcome)| {
            evaluator
                .evaluate(config)
                .is_ok_and(|v| v.to_bits() == outcome.value().to_bits())
        });
    report.check(ok, || {
        format!(
            "{}: pool values differ from inline simulation",
            short_name(stream.problem)
        )
    });
}

fn same(a: &[Outcome], b: &[Outcome]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.value().to_bits() == y.value().to_bits() && x.source() == y.source())
}

fn kriged_share(outcomes: &[Outcome]) -> (u64, u64) {
    let kriged = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Kriged { .. }))
        .count();
    (kriged as u64, outcomes.len() as u64)
}

/// Runs the workload and reports its metrics.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let instances: Vec<Vec<Stream>> = (0..INSTANCES).map(|k| streams(args.seed, k)).collect();
    if args.trace {
        traced(&instances, args.seed, &mut report);
        return report;
    }
    let mut setups = Vec::new();
    while setups.len() < 9 || setups.iter().sum::<f64>() < 1.0 {
        let started = Instant::now();
        for stream in instances.iter().flatten() {
            std::hint::black_box(build_seeded(stream.problem, Scale::Fast, stream.seed));
        }
        setups.push(started.elapsed().as_secs_f64());
    }
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); instances.len()];
    let mut cpus: Vec<Vec<f64>> = vec![Vec::new(); instances.len()];
    let mut firsts: Vec<Vec<Vec<Outcome>>> = vec![Vec::new(); instances.len()];
    let (mut kriged, mut total) = (0, 0);
    let mut peak_rss = 0.0;
    let mut pass = 0;
    while pass < instances.len() || started.elapsed() < budget {
        let k = pass % instances.len();
        pass += 1;
        let (wall_start, cpu_start) = (Instant::now(), process_cpu_s());
        let outcomes: Vec<Vec<Outcome>> = instances[k]
            .iter()
            .map(|stream| replay(stream, plain_backend(stream), &mut report))
            .collect();
        walls[k].push(wall_start.elapsed().as_secs_f64());
        cpus[k].push(process_cpu_s() - cpu_start);
        if pass == instances.len() {
            peak_rss = peak_rss_mib();
        }
        if firsts[k].is_empty() {
            for (stream, got) in instances[k].iter().zip(&outcomes) {
                check_inline(stream, got, &mut report);
                let (a, b) = kriged_share(got);
                kriged += a;
                total += b;
            }
            firsts[k] = outcomes;
        } else {
            let ok = firsts[k].iter().zip(&outcomes).all(|(a, b)| same(a, b));
            report.check(ok, || {
                format!("instance {k} outcomes differ between passes")
            });
        }
    }
    let instance_walls: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    let instance_cpus: Vec<f64> = cpus.iter().map(|c| median(c)).collect();
    let configs = total as f64 / instances.len() as f64;
    report.metrics = vec![
        Metric::median_of("setup_s", "s", &setups),
        Metric::instance_mean("wall_s", "s", &instance_walls),
        Metric::instance_mean("cpu_s", "s", &instance_cpus),
        Metric::single(
            "p_percent",
            "%",
            100.0 * kriged as f64 / total.max(1) as f64,
            total as usize,
        ),
        Metric::single("peak_rss_mib", "MiB", peak_rss, 1),
    ];
    report.extra = vec![Metric::single(
        "requests_per_s",
        "1/s",
        configs * instances.len() as f64 / instance_walls.iter().sum::<f64>(),
        pass,
    )];
    report.notes.push(format!(
        "workload {NAME}: {pass} pass(es) over {} instance(s) of {} frontier(s) per problem, {configs} configurations per instance",
        instances.len(),
        FRONTIERS,
    ));
    report
}

fn traced(instances: &[Vec<Stream>], seed: u64, report: &mut Report) {
    // Untraced passes before and after the traced one, so warm-up falls
    // on both sides of `trace.overhead`.
    let untraced_pass = |report: &mut Report| {
        let started = Instant::now();
        let outcomes: Vec<Vec<Outcome>> = instances
            .iter()
            .flatten()
            .map(|stream| replay(stream, plain_backend(stream), report))
            .collect();
        (outcomes, started.elapsed().as_secs_f64())
    };
    let (reference, before) = untraced_pass(report);

    let rec = Arc::new(Recorder::new());
    let cache = Arc::new(SimCache::new());
    let mut stats = (0u64, 0u64, 0u64, 0u64, 0u64);
    let traced_start = Instant::now();
    for (req, (stream, want)) in instances.iter().flatten().zip(&reference).enumerate() {
        let req = req as u64;
        let _run = rec.open("run", short_name(stream.problem), req, 1, 0);
        let backend = traced_pool(
            &rec,
            "hybrid",
            req,
            THREADS,
            &cache,
            stream.namespace(),
            (stream.problem, Scale::Fast, stream.seed),
        );
        let mut hybrid = HybridEvaluator::new(backend, settings(stream.problem));
        let mut got = Vec::new();
        for frontier in &stream.frontiers {
            let _query = rec.open("query", "hybrid", req, frontier.len(), 0);
            match hybrid.evaluate_batch(frontier) {
                Ok(batch) => got.extend(batch),
                Err(e) => report.check(false, || format!("traced frontier failed: {e}")),
            }
        }
        report.check(same(&got, want), || {
            "traced composition differs from the untraced pass".to_string()
        });
        let s = hybrid.stats();
        stats.0 += s.queries;
        stats.1 += s.kriged;
        stats.2 += s.simulated;
        stats.3 += s.errors.count();
        stats.4 += s.neighbor_sum;
    }
    let traced_wall = traced_start.elapsed().as_secs_f64();
    let untraced_wall = (before + untraced_pass(report).1) / 2.0;
    let spans = rec.take();
    let trace_path = crate::out_dir().join(format!("trace-{NAME}-s{seed}.jsonl"));
    if let Err(e) = crate::trace::write_jsonl(&spans, &trace_path) {
        report
            .notes
            .push(format!("could not write {}: {e}", trace_path.display()));
    }
    let (queries, kriged, simulated, audits, neighbor_sum) = stats;
    let inputs = LayerInputs {
        spans: &spans,
        callers: 1,
        traced_wall_s: traced_wall,
        untraced_wall_s: untraced_wall,
        pool_workers: THREADS,
        hybrid_queries: queries,
        hybrid_kriged: kriged,
        hybrid_simulated: simulated,
        audit_sims: audits,
        mean_neighbors: neighbor_sum as f64 / kriged.max(1) as f64,
        opt_iterations: 0,
        cache: cache.stats(),
        executor: None,
        sink: None,
        serve: None,
    };
    let (metrics, notes) = layers::per_layer(&inputs);
    report.metrics = metrics;
    report.notes.extend(notes);
    report.notes.push(format!(
        "trace written to {}; traced wall {traced_wall:.3} s vs untraced {untraced_wall:.3} s",
        trace_path.display()
    ));
}
