//! The `table1-noise` workload: the Table-I protocol (pilot variogram
//! identification, then the audited hybrid min+1) over the six
//! noise-power kernels.
//!
//! The untraced run drives the engine's own entry point,
//! `run_specs_opts`. The traced run composes the same public calls the
//! engine's runner makes for an inline run — `build_seeded`,
//! `CachedEvaluator` over a shared `SimCache`, the `SimulateAll` pilot,
//! `fit_model`, then a `HybridEvaluator` driven by `optimize` — with span
//! wrappers at each seam, and checks that its records equal the engine's.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use krigeval_core::hybrid::{HybridEvaluator, HybridSettings, VariogramPolicy};
use krigeval_core::opt::minplusone::{optimize, MinPlusOneOptions};
use krigeval_core::opt::{DseEvaluator, OptError, OptimizationResult, SimulateAll};
use krigeval_core::variogram::{fit_model, EmpiricalVariogram, ModelFamily};
use krigeval_core::{AccuracyEvaluator, FiniteGuard, VariogramModel};
use krigeval_engine::executor::{parallel_map_workers, run_specs_opts, ExecOptions};
use krigeval_engine::runner::cache_namespace;
use krigeval_engine::suite::{build_seeded, Problem};
use krigeval_engine::{
    check_table_shape, summarize, CachedEvaluator, CampaignSpec, OptimizerSpec, RunRecord, RunSpec,
    SimCache, SinkOptions, SummaryRecord, VariogramSpec,
};

use crate::layers::{self, short_name, LayerInputs};
use crate::stats::{
    derive_seed, mean_quantile, median, peak_rss_mib, process_cpu_s, Metric, Report,
};
use crate::trace::{Recorder, TimedSim, TracedDse};
use crate::Args;

const NAME: &str = "table1-noise";
/// Run workers of the campaign executor.
const WORKERS: usize = 2;
/// Campaign instances per invocation. Each instance is the whole
/// campaign on its own seed; averaging over several keeps the wall clock
/// steady from one workload seed to the next.
const INSTANCES: u64 = 4;
const PROBLEMS: [Problem; 6] = [
    Problem::Fir,
    Problem::Iir,
    Problem::Fft,
    Problem::Hevc,
    Problem::Dct,
    Problem::Lms,
];

/// The campaign's 48 runs for one campaign seed.
fn runs(campaign_seed: u64) -> Vec<RunSpec> {
    CampaignSpec {
        name: NAME.to_string(),
        benchmarks: PROBLEMS
            .iter()
            .map(|p| short_name(*p).to_string())
            .collect(),
        scale: "fast".to_string(),
        distances: vec![2.0, 3.0, 4.0, 5.0],
        min_neighbors: vec![3],
        seed: campaign_seed,
        repeats: 2,
        audit: true,
        threads: Some(1),
        ..CampaignSpec::default()
    }
    .expand()
    .expect("the workload's campaign spec is valid")
}

/// The seed of campaign instance `k`; derives from the workload seed only.
fn campaign_seed(seed: u64, k: u64) -> u64 {
    derive_seed(seed, 100 + k)
}

/// One set-up: expand every campaign instance and construct each problem
/// instance its runs use. Returns seconds.
fn setup_once(seeds: &[u64]) -> f64 {
    let started = Instant::now();
    let mut seen = BTreeSet::new();
    for &seed in seeds {
        for run in runs(seed) {
            if seen.insert((run.problem.label(), run.run_seed)) {
                std::hint::black_box(build_seeded(run.problem, run.scale, run.run_seed));
            }
        }
    }
    started.elapsed().as_secs_f64()
}

/// Set-ups per invocation: at least this many, and at least this much
/// set-up time in total; the reported `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
const SETUP_SECONDS: f64 = 1.0;

fn strip(mut r: RunRecord) -> RunRecord {
    r.wall_ms = None;
    r
}

/// Shape checks on one campaign's records: every benchmark of the
/// workload present once in the summary, `p ∈ [0, 100]`, finite ε.
fn check_shape(records: &[RunRecord], report: &mut Report) {
    let rows = summarize(records);
    let expected: Vec<&str> = PROBLEMS.iter().map(|p| p.label()).collect();
    // `check_table_shape` expects all eight matrix benchmarks; the
    // workload runs six, and the second check pins exactly which.
    let violations: Vec<String> = check_table_shape(&rows)
        .into_iter()
        .filter(|v| !v.ends_with("missing from the matrix"))
        .collect();
    report.check(violations.is_empty(), || violations.join("; "));
    let present: Vec<&str> = rows.iter().map(|r| r.benchmark.as_str()).collect();
    report.check(present == expected, || {
        format!("benchmarks {present:?}, expected {expected:?}")
    });
}

/// Totals over one campaign's records.
struct Totals {
    queries: u64,
    kriged: u64,
    simulated: u64,
    audits: u64,
    audit_eps_sum: f64,
    neighbor_mean_sum: f64,
    iterations: u64,
}

fn totals(records: &[RunRecord]) -> Totals {
    let mut t = Totals {
        queries: 0,
        kriged: 0,
        simulated: 0,
        audits: 0,
        audit_eps_sum: 0.0,
        neighbor_mean_sum: 0.0,
        iterations: 0,
    };
    for r in records {
        t.queries += r.queries;
        t.kriged += r.kriged;
        t.simulated += r.simulated;
        t.audits += r.audit_count;
        t.audit_eps_sum += r.audit_mean_eps * r.audit_count as f64;
        t.neighbor_mean_sum += r.mean_neighbors * r.kriged as f64;
        t.iterations += r.iterations;
    }
    t
}

impl Totals {
    fn p_percent(&self) -> f64 {
        100.0 * self.kriged as f64 / self.queries.max(1) as f64
    }

    fn audit_mean_eps(&self) -> f64 {
        self.audit_eps_sum / self.audits.max(1) as f64
    }
}

/// Runs the workload and reports its metrics.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let seeds: Vec<u64> = (0..INSTANCES)
        .map(|k| campaign_seed(args.seed, k))
        .collect();
    if args.trace {
        traced(args, seeds[0], &mut report);
        return report;
    }
    let mut setups = Vec::new();
    while setups.len() < SETUP_REPEATS || setups.iter().sum::<f64>() < SETUP_SECONDS {
        setups.push(setup_once(&seeds));
    }
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    // Per campaign instance: wall clocks of its passes and its records.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut cpus: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut records: Vec<Vec<RunRecord>> = vec![Vec::new(); seeds.len()];
    let mut run_ms: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut peak_rss = 0.0;
    let mut pass = 0;
    while pass < seeds.len() || started.elapsed() < budget {
        let k = pass % seeds.len();
        pass += 1;
        let runs = runs(seeds[k]);
        let n = runs.len() as u64;
        let pass_start = Instant::now();
        let cpu_start = process_cpu_s();
        let outcome = run_specs_opts(
            runs,
            ExecOptions {
                workers: WORKERS,
                ..ExecOptions::default()
            },
        );
        let wall = pass_start.elapsed().as_secs_f64();
        cpus[k].push(process_cpu_s() - cpu_start);
        report.attempted += n;
        let outcome = match outcome {
            Ok(outcome) => outcome,
            Err(e) => {
                report.failed += n;
                report.notes.push(format!("campaign failed: {e}"));
                break;
            }
        };
        report.failed += outcome.failures.len() as u64;
        if pass == seeds.len() {
            peak_rss = peak_rss_mib();
        }
        walls[k].push(wall);
        run_ms[k].extend(outcome.records.iter().filter_map(|r| r.wall_ms));
        check_shape(&outcome.records, &mut report);
        let stripped: Vec<RunRecord> = outcome.records.into_iter().map(strip).collect();
        if records[k].is_empty() {
            records[k] = stripped;
        } else {
            report.check(records[k] == stripped, || {
                format!("campaign instance {k} records differ between passes")
            });
        }
    }
    let t = totals(&records.concat());
    let instance_walls: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    let instance_cpus: Vec<f64> = cpus.iter().map(|c| median(c)).collect();
    let total_wall: f64 = instance_walls.iter().sum();
    let samples = run_ms.iter().map(Vec::len).sum();
    report.metrics = vec![
        Metric::median_of("setup_s", "s", &setups),
        Metric::instance_mean("wall_s", "s", &instance_walls),
        Metric::instance_mean("cpu_s", "s", &instance_cpus),
        Metric::single("p_percent", "%", t.p_percent(), t.queries as usize),
        Metric::single("peak_rss_mib", "MiB", peak_rss, 1),
    ];
    report.extra = vec![
        Metric::single("requests_per_s", "1/s", t.queries as f64 / total_wall, pass),
        Metric::single("latency_p50_ms", "ms", mean_quantile(&run_ms, 0.5), samples),
        Metric::single(
            "latency_p99_ms",
            "ms",
            mean_quantile(&run_ms, 0.99),
            samples,
        ),
        Metric::single(
            "audit_mean_eps",
            "eps",
            t.audit_mean_eps(),
            t.audits as usize,
        ),
    ];
    report.notes.push(format!(
        "workload {NAME}: {pass} campaign pass(es) over {} instance(s) of {} runs; {} optimizer queries per instance on average",
        seeds.len(),
        records[0].len(),
        t.queries / seeds.len() as u64,
    ));
    report
}

/// The inline simulator stack, with every simulation timed.
fn inline_stack(
    run: &RunSpec,
    cache: &Arc<SimCache>,
    rec: &Arc<Recorder>,
) -> FiniteGuard<CachedEvaluator<TimedSim<Box<dyn AccuracyEvaluator + Send>>>> {
    FiniteGuard::new(CachedEvaluator::new(
        TimedSim {
            inner: build_seeded(run.problem, run.scale, run.run_seed).evaluator,
            rec: Arc::clone(rec),
            label: short_name(run.problem),
            req: run.index,
            pool_parent: Arc::new(AtomicU64::new(0)),
        },
        Arc::clone(cache),
        cache_namespace(run),
    ))
}

/// Drives min+1 over `evaluator` inside an `opt` span, its queries in
/// `query` spans labelled `phase`.
fn drive_traced<D: DseEvaluator>(
    rec: &Arc<Recorder>,
    req: u64,
    phase: &'static str,
    evaluator: D,
    opts: &MinPlusOneOptions,
) -> Result<(OptimizationResult, D), OptError> {
    let mut traced = TracedDse {
        inner: evaluator,
        rec: Arc::clone(rec),
        phase,
        req,
    };
    let result = {
        let _opt = rec.open("opt", phase, req, 1, 0);
        optimize(&mut traced, opts)?
    };
    Ok((result, traced.inner))
}

/// One run through the traced composition.
fn traced_run(
    run: &RunSpec,
    cache: &Arc<SimCache>,
    rec: &Arc<Recorder>,
) -> Result<RunRecord, OptError> {
    assert_eq!(
        run.optimizer,
        OptimizerSpec::Auto,
        "workload runs use the auto optimizer"
    );
    assert_eq!(
        run.variogram,
        VariogramSpec::Pilot,
        "workload runs use the pilot variogram"
    );
    assert!(
        run.lambda_min.is_none() && run.threads == 1,
        "workload runs keep the canonical constraint and run inline"
    );
    let req = run.index;
    let _run_span = rec.open("run", short_name(run.problem), req, 1, 0);
    let started = Instant::now();
    let opts = build_seeded(run.problem, run.scale, run.run_seed)
        .minplusone
        .expect("noise-power problems optimize with min+1");

    // Pilot: pure simulation of the same optimizer, then a fit over the
    // deduplicated trajectory.
    let (model, pilot_sims) = {
        let _pilot = rec.open("pilot", short_name(run.problem), req, 1, 0);
        let pilot = SimulateAll(inline_stack(run, cache, rec));
        let result = drive_traced(rec, req, "pilot", pilot, &opts)?.0;
        let mut configs: Vec<Vec<i32>> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for step in &result.trace.steps {
            if !configs.contains(&step.config) {
                configs.push(step.config.clone());
                values.push(step.lambda);
            }
        }
        let _fit = rec.open("fit", short_name(run.problem), req, configs.len(), 0);
        let model = EmpiricalVariogram::from_configs(&configs, &values, run.metric)
            .and_then(|emp| fit_model(&emp, &ModelFamily::all()))
            .map(|report| report.model)
            .unwrap_or_else(|_| VariogramModel::linear(1.0));
        (model, configs.len() as u64)
    };

    let settings = HybridSettings {
        distance: run.distance,
        min_neighbors: run.min_neighbors,
        metric: run.metric,
        variogram: VariogramPolicy::Fixed(model),
        max_neighbors: run.max_neighbors,
        audit: run.audit.then(|| run.problem.audit_metric()),
        approx: run.approx,
        gate: run.gate,
        selection: run.selection,
        nugget: run.nugget,
    };
    let hybrid = HybridEvaluator::new(inline_stack(run, cache, rec), settings);
    let (result, hybrid) = drive_traced(rec, req, "hybrid", hybrid, &opts)?;
    let stats = hybrid.stats();
    Ok(RunRecord {
        index: run.index,
        benchmark: run.problem.label().to_string(),
        metric: run.problem.metric_label().to_string(),
        scale: run.scale.label().to_string(),
        optimizer: run.optimizer.label(),
        variogram: run.variogram.label(),
        nv: run.problem.nv(),
        d: run.distance,
        min_neighbors: run.min_neighbors,
        lambda_min: opts.lambda_min,
        seed: run.run_seed,
        repeat: run.repeat,
        solution: result.solution.clone(),
        lambda: result.lambda,
        iterations: result.iterations,
        queries: stats.queries,
        simulated: stats.simulated,
        kriged: stats.kriged,
        session_cache_hits: stats.cache_hits,
        kriging_failures: stats.kriging_failures,
        gate: run.gate.label(),
        gate_rejections: stats.gate_rejections,
        p_percent: stats.interpolated_fraction() * 100.0,
        mean_neighbors: stats.mean_neighbors(),
        mean_variance: stats.mean_variance(),
        audit_mean_eps: stats.errors.mean(),
        audit_max_eps: stats.errors.max(),
        audit_count: stats.errors.count(),
        pilot_sims,
        wall_ms: Some(started.elapsed().as_secs_f64() * 1000.0),
    })
}

/// Writes the records through the engine's sink as a plain and a
/// DEFLATE-compressed artifact. Returns (write seconds, plain bytes,
/// encode seconds, compressed bytes).
fn write_artifacts(name: &str, records: &[RunRecord], dir: &Path) -> (f64, usize, f64, usize) {
    std::fs::create_dir_all(dir).expect("the benchmark output directory is writable");
    let summary = SummaryRecord::from_records(name, records, &[], Default::default(), 0, None);
    let write_start = Instant::now();
    let mut plain = Vec::new();
    krigeval_engine::write_jsonl(&mut plain, records, &[], &summary, SinkOptions::default())
        .expect("writing to memory cannot fail");
    std::fs::write(dir.join(format!("{name}.jsonl")), &plain).expect("artifact is writable");
    let write_s = write_start.elapsed().as_secs_f64();
    let encode_start = Instant::now();
    let packed = krigeval_flate::compress(&plain);
    std::fs::write(dir.join(format!("{name}.jsonl.z")), &packed).expect("artifact is writable");
    let encode_s = encode_start.elapsed().as_secs_f64();
    (write_s, plain.len(), encode_s, packed.len())
}

fn traced(args: &Args, campaign_seed: u64, report: &mut Report) {
    // Reference: the engine's own executor, untraced.
    let runs = runs(campaign_seed);
    report.attempted += runs.len() as u64;
    let engine_pass = || {
        let started = Instant::now();
        let outcome = run_specs_opts(
            runs.clone(),
            ExecOptions {
                workers: WORKERS,
                ..ExecOptions::default()
            },
        );
        outcome.map(|o| (o, started.elapsed().as_secs_f64()))
    };
    let (reference, ref_wall) = match engine_pass() {
        Ok(pass) => pass,
        Err(e) => {
            report.failed += runs.len() as u64;
            report.notes.push(format!("reference campaign failed: {e}"));
            return;
        }
    };
    check_shape(&reference.records, report);

    // Traced composition over the executor's own worker pool helper.
    let rec = Arc::new(Recorder::new());
    let cache = Arc::new(SimCache::new());
    let traced_start = Instant::now();
    let outcomes = parallel_map_workers(&runs, WORKERS, |_, run| traced_run(run, &cache, &rec));
    let traced_wall = traced_start.elapsed().as_secs_f64();
    // A second untraced pass after the traced one, so warm-up falls on
    // both sides of `trace.overhead`.
    let untraced_wall = engine_pass().map_or(ref_wall, |(_, wall)| (ref_wall + wall) / 2.0);
    let mut records = Vec::new();
    for (run, outcome) in runs.iter().zip(outcomes) {
        match outcome {
            Ok(record) => records.push(record),
            Err(e) => report.check(false, || format!("traced run {} failed: {e}", run.index)),
        }
    }
    let same = records.len() == reference.records.len()
        && records
            .iter()
            .zip(&reference.records)
            .all(|(a, b)| strip(a.clone()) == strip(b.clone()));
    report.check(same, || {
        "traced composition records differ from run_specs_opts".to_string()
    });

    let dir = crate::out_dir();
    let (write_s, bytes, encode_s, packed) =
        write_artifacts(&format!("{NAME}-s{}", args.seed), &records, &dir);
    let spans = rec.take();
    let trace_path = dir.join(format!("trace-{NAME}-s{}.jsonl", args.seed));
    if let Err(e) = crate::trace::write_jsonl(&spans, &trace_path) {
        report
            .notes
            .push(format!("could not write {}: {e}", trace_path.display()));
    }

    let t = totals(&records);
    let busy_ms: f64 = reference.records.iter().filter_map(|r| r.wall_ms).sum();
    let inputs = LayerInputs {
        spans: &spans,
        callers: WORKERS,
        traced_wall_s: traced_wall,
        untraced_wall_s: untraced_wall,
        pool_workers: 1,
        hybrid_queries: t.queries,
        hybrid_kriged: t.kriged,
        hybrid_simulated: t.simulated,
        audit_sims: t.audits,
        mean_neighbors: t.neighbor_mean_sum / t.kriged.max(1) as f64,
        opt_iterations: t.iterations,
        cache: reference.cache,
        executor: Some((
            reference.records.len() as u64,
            busy_ms / 1000.0,
            busy_ms / 1000.0 / (WORKERS as f64 * ref_wall),
        )),
        sink: Some((write_s, bytes, encode_s, packed)),
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
