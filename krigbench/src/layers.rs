//! Per-layer metrics and the layer reconciliation of a traced run.
//!
//! Self time of a span is its duration minus the durations of its
//! children *on the same thread* (children a worker pool runs for a
//! `fulfill` overlap it and are reported as pool busy time instead).
//! The caller threads' time — `callers × traced wall` — is split into
//! the layers' self times plus the gaps no layer span covers: run or
//! frame glue (instance construction, record assembly, stream
//! bookkeeping) and caller idle time (executor tail, replay loop).

use std::collections::HashMap;

use krigeval_engine::suite::Problem;
use krigeval_engine::CacheStats;

use crate::stats::{median, Metric};
use crate::trace::Span;

/// Benchmarks simulated by the `kernels` layer.
pub const KERNELS: [&str; 6] = ["fir", "iir", "fft", "hevc", "dct", "lms"];
/// Benchmarks simulated by the `neural` layer.
pub const NETS: [&str; 2] = ["squeezenet", "quantized_cnn"];

/// Short benchmark name used in metric names.
pub fn short_name(problem: Problem) -> &'static str {
    match problem {
        Problem::Fir => "fir",
        Problem::Iir => "iir",
        Problem::Fft => "fft",
        Problem::Hevc => "hevc",
        Problem::Squeezenet => "squeezenet",
        Problem::QuantizedCnn => "quantized_cnn",
        Problem::Dct => "dct",
        Problem::Lms => "lms",
    }
}

/// What a workload's traced run hands to the layer analysis.
pub struct LayerInputs<'a> {
    pub spans: &'a [Span],
    /// Threads driving runs or frames.
    pub callers: usize,
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
    /// Worker threads of the pool backend, when one is used.
    pub pool_workers: usize,
    pub hybrid_queries: u64,
    pub hybrid_kriged: u64,
    pub hybrid_simulated: u64,
    pub audit_sims: u64,
    pub mean_neighbors: f64,
    pub opt_iterations: u64,
    pub cache: CacheStats,
    /// (runs, busy seconds, utilization) of the engine's executor.
    pub executor: Option<(u64, f64, f64)>,
    /// (write seconds, plain bytes, encode seconds, compressed bytes).
    pub sink: Option<(f64, usize, f64, usize)>,
    /// (session evaluate p50 µs, wire p50 µs, frame codec p50 µs).
    pub serve: Option<(f64, f64, f64)>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Computes every per-layer metric (in the order `BENCHMARK.json` lists
/// them) and the reconciliation notes.
pub fn per_layer(inputs: &LayerInputs<'_>) -> (Vec<Metric>, Vec<String>) {
    let spans = inputs.spans;
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let parent_of = |s: &Span| index.get(&s.parent).map(|&i| &spans[i]);
    let mut child_secs = vec![0.0f64; spans.len()];
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(&pi) = index.get(&s.parent) {
            has_child[pi] = true;
            if spans[pi].thread == s.thread {
                child_secs[pi] += s.secs();
            }
        }
    }
    let self_secs = |i: usize| (spans[i].secs() - child_secs[i]).max(0.0);
    // A span runs on a caller thread when it is a root or nests in a
    // span of its own thread; pool-thread simulations hang off a
    // `fulfill` span of another thread.
    let on_caller = |s: &Span| parent_of(s).is_none_or(|p| p.thread == s.thread);
    let sum_self = |pred: &dyn Fn(&Span) -> bool| -> f64 {
        (0..spans.len())
            .filter(|&i| pred(&spans[i]) && on_caller(&spans[i]))
            .map(self_secs)
            .sum()
    };

    let mut metrics = Vec::new();
    for (layer, names) in [("kernels", &KERNELS[..]), ("neural", &NETS[..])] {
        for &b in names {
            let durs: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == "sim" && s.label == b)
                .map(Span::secs)
                .collect();
            let (p50, unit, scale) = if layer == "neural" {
                ("sim_p50_ms", "ms", 1e3)
            } else {
                ("sim_p50_us", "us", 1e6)
            };
            metrics.push(Metric::single(
                &format!("{layer}.{b}.sims"),
                "count",
                durs.len() as f64,
                durs.len(),
            ));
            metrics.push(Metric::single(
                &format!("{layer}.{b}.sim_s"),
                "s",
                durs.iter().sum(),
                durs.len(),
            ));
            metrics.push(Metric::single(
                &format!("{layer}.{b}.{p50}"),
                unit,
                median(&durs) * scale,
                durs.len(),
            ));
        }
    }
    let hybrid_self = sum_self(&|s| s.name == "query" && s.label == "hybrid");
    let kriged_self_us: Vec<f64> = (0..spans.len())
        .filter(|&i| spans[i].name == "query" && spans[i].label == "hybrid" && !has_child[i])
        .map(|i| self_secs(i) * 1e6 / f64::from(spans[i].items.max(1)))
        .collect();
    metrics.extend([
        Metric::single("hybrid.queries", "count", inputs.hybrid_queries as f64, 1),
        Metric::single("hybrid.kriged", "count", inputs.hybrid_kriged as f64, 1),
        Metric::single(
            "hybrid.simulated",
            "count",
            inputs.hybrid_simulated as f64,
            1,
        ),
        Metric::single("hybrid.audit_sims", "count", inputs.audit_sims as f64, 1),
        Metric::single("hybrid.self_s", "s", hybrid_self, 1),
        Metric::single(
            "hybrid.kriged_self_p50_us",
            "us",
            median(&kriged_self_us),
            kriged_self_us.len(),
        ),
        Metric::single("hybrid.mean_neighbors", "count", inputs.mean_neighbors, 1),
        Metric::single(
            "hybrid.kriged_ratio",
            "ratio",
            ratio(inputs.hybrid_kriged as f64, inputs.hybrid_queries as f64),
            1,
        ),
    ]);

    let opt_self = sum_self(&|s| s.name == "opt");
    metrics.push(Metric::single("opt.self_s", "s", opt_self, 1));
    metrics.push(Metric::single(
        "opt.iterations",
        "count",
        inputs.opt_iterations as f64,
        1,
    ));

    let fits: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "fit")
        .map(Span::secs)
        .collect();
    let fit_s: f64 = fits.iter().sum();
    metrics.push(Metric::single(
        "variogram.fits",
        "count",
        fits.len() as f64,
        1,
    ));
    metrics.push(Metric::single("variogram.fit_s", "s", fit_s, 1));

    let c = inputs.cache;
    metrics.extend([
        Metric::single("cache.lookups", "count", c.lookups as f64, 1),
        Metric::single("cache.hits", "count", c.hits as f64, 1),
        Metric::single(
            "cache.hit_ratio",
            "ratio",
            ratio(c.hits as f64, c.lookups as f64),
            1,
        ),
    ]);

    let (runs, busy, utilization) = inputs.executor.unwrap_or((0, 0.0, 0.0));
    metrics.extend([
        Metric::single("executor.runs", "count", runs as f64, 1),
        Metric::single("executor.busy_s", "s", busy, 1),
        Metric::single("executor.utilization", "ratio", utilization, 1),
    ]);

    let fulfills: Vec<&Span> = spans.iter().filter(|s| s.name == "fulfill").collect();
    let fulfill_s: f64 = fulfills.iter().map(|s| s.secs()).sum();
    let fulfill_items: f64 = fulfills.iter().map(|s| f64::from(s.items)).sum();
    let fulfill_self = sum_self(&|s| s.name == "fulfill");
    let fulfill_work: f64 = spans
        .iter()
        .filter(|s| s.name == "sim" && parent_of(s).is_some_and(|p| p.name == "fulfill"))
        .map(Span::secs)
        .sum();
    metrics.extend([
        Metric::single("backend.fulfills", "count", fulfills.len() as f64, 1),
        Metric::single(
            "backend.mean_batch",
            "count",
            ratio(fulfill_items, fulfills.len() as f64),
            1,
        ),
        Metric::single("backend.fulfill_s", "s", fulfill_s, 1),
        Metric::single(
            "backend.efficiency",
            "ratio",
            ratio(fulfill_work, inputs.pool_workers.max(1) as f64 * fulfill_s),
            1,
        ),
    ]);

    let (write_s, bytes, encode_s, packed) = inputs.sink.unwrap_or((0.0, 0, 0.0, 0));
    metrics.extend([
        Metric::single("sink.write_s", "s", write_s, 1),
        Metric::single("sink.bytes", "B", bytes as f64, 1),
        Metric::single("flate.encode_s", "s", encode_s, 1),
        Metric::single(
            "flate.ratio",
            "ratio",
            ratio(packed as f64, bytes as f64),
            1,
        ),
    ]);

    let (session_us, wire_us, codec_us) = inputs.serve.unwrap_or((0.0, 0.0, 0.0));
    metrics.extend([
        Metric::single("serve.session_eval_p50_us", "us", session_us, 1),
        Metric::single("serve.wire_p50_us", "us", wire_us, 1),
        Metric::single("serve.frame_codec_p50_us", "us", codec_us, 1),
    ]);

    // Reconciliation of the caller threads' time.
    let capacity = inputs.callers as f64 * inputs.traced_wall_s;
    let kernels_self = sum_self(&|s| s.name == "sim" && KERNELS.contains(&s.label));
    let neural_self = sum_self(&|s| s.name == "sim" && NETS.contains(&s.label));
    let pool_busy: f64 = spans
        .iter()
        .filter(|s| s.name == "sim" && !on_caller(s))
        .map(Span::secs)
        .sum();
    let pilot_query_self = sum_self(&|s| s.name == "query" && s.label == "pilot");
    let root_s: f64 = spans
        .iter()
        .filter(|s| s.parent == 0 && on_caller(s) && s.name != "sim")
        .map(Span::secs)
        .sum();
    let mut gaps: Vec<(String, f64)> = Vec::new();
    let mut glue: HashMap<String, f64> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if matches!(s.name, "run" | "pilot" | "frame") {
            *glue
                .entry(format!("{} glue ({})", s.name, s.label))
                .or_default() += self_secs(i);
        }
    }
    gaps.extend(glue);
    gaps.push((
        "caller idle (executor tail / replay loop)".to_string(),
        (capacity - root_s).max(0.0),
    ));
    gaps.sort_by(|a, b| b.1.total_cmp(&a.1));
    let unattributed: f64 = gaps.iter().map(|g| g.1).sum();
    let unattributed_share = ratio(unattributed, capacity);
    let overhead = ratio(inputs.traced_wall_s, inputs.untraced_wall_s);
    metrics.push(Metric::single("trace.overhead", "ratio", overhead, 1));
    metrics.push(Metric::single(
        "trace.unattributed_share",
        "ratio",
        unattributed_share,
        1,
    ));

    let mut notes = vec![format!(
        "layer reconciliation over {} caller thread(s) x {:.3} s traced wall = {:.3} s:",
        inputs.callers, inputs.traced_wall_s, capacity
    )];
    let rows = [
        ("kernels (inline simulation)", kernels_self),
        ("neural (inline simulation)", neural_self),
        ("engine.backend (fulfill wait)", fulfill_self),
        ("engine.cache (pilot lookups, waits)", pilot_query_self),
        ("core.hybrid (self)", hybrid_self),
        ("core.opt (self)", opt_self),
        ("core.variogram (pilot fit)", fit_s),
        ("unattributed", unattributed),
    ];
    for (name, secs) in rows {
        let secs = secs + 0.0;
        notes.push(format!(
            "  {name:<34} {secs:>10.4} s {:>7.2} %",
            100.0 * ratio(secs, capacity)
        ));
    }
    if pool_busy > 0.0 {
        notes.push(format!(
            "  (pool threads: {pool_busy:.4} s of simulation inside fulfill spans, not on the caller timeline)"
        ));
    }
    if let Some((name, secs)) = gaps.first() {
        notes.push(format!(
            "  largest unattributed gap: {name} = {secs:.4} s ({:.2} % of caller time)",
            100.0 * ratio(*secs, capacity)
        ));
    }
    (metrics, notes)
}
