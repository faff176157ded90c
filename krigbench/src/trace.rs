//! In-memory span recording around calls into the program's public API.
//!
//! Every span is recorded from this benchmark's own wrappers — the
//! program itself is not instrumented. A span has a name (the layer
//! boundary), a label (usually the benchmark), the request it belongs to
//! (run index or frame number), the thread it ran on, and its parent:
//! the innermost open span on the same thread, or — for simulations that
//! a worker pool runs on behalf of a batch — the batch's `fulfill` span.

use std::cell::RefCell;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use krigeval_core::opt::DseEvaluator;
use krigeval_core::trace::Source;
use krigeval_core::{
    AccuracyEvaluator, Config, EvalBackend, EvalError, FiniteGuard, SimulationRequest,
};
use krigeval_engine::suite::{build_seeded, Problem};
use krigeval_engine::{EngineBackend, Scale, SimCache};

use crate::layers::short_name;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub label: &'static str,
    pub req: u64,
    pub thread: u32,
    /// Configurations carried (batch size); 1 for single calls.
    pub items: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// Collects spans from every thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// An open span; records itself when dropped.
pub struct Open<'a> {
    rec: &'a Recorder,
    id: u64,
    parent: u64,
    name: &'static str,
    label: &'static str,
    req: u64,
    items: u32,
    start: u64,
}

impl Open<'_> {
    /// This span's id.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end = self.rec.now();
        STACK.with(|s| s.borrow_mut().pop());
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            label: self.label,
            req: self.req,
            thread: THREAD.with(|t| *t),
            items: self.items,
            start: self.start,
            end,
        };
        self.rec
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span on this
    /// thread, or `fallback_parent` when there is none.
    pub fn open(
        &self,
        name: &'static str,
        label: &'static str,
        req: u64,
        items: usize,
        fallback_parent: u64,
    ) -> Open<'_> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(fallback_parent);
            s.push(id);
            parent
        });
        Open {
            rec: self,
            id,
            parent,
            name,
            label,
            req,
            items: u32::try_from(items).unwrap_or(u32::MAX),
            start: self.now(),
        }
    }

    /// Takes every recorded span, sorted by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"label\":\"{}\",\"req\":{},\"thread\":{},\"items\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.label, s.req, s.thread, s.items, s.start, s.end
        )?;
    }
    out.flush()
}

/// Times every simulation of a benchmark evaluator (`sim` spans).
pub struct TimedSim<E> {
    pub inner: E,
    pub rec: Arc<Recorder>,
    pub label: &'static str,
    pub req: u64,
    /// Parent for simulations run on a pool thread (the open `fulfill`).
    pub pool_parent: Arc<AtomicU64>,
}

impl<E: AccuracyEvaluator> AccuracyEvaluator for TimedSim<E> {
    fn evaluate(&mut self, config: &Config) -> Result<f64, EvalError> {
        let parent = self.pool_parent.load(Ordering::Relaxed);
        let _span = self.rec.open("sim", self.label, self.req, 1, parent);
        self.inner.evaluate(config)
    }

    fn num_variables(&self) -> usize {
        self.inner.num_variables()
    }

    fn evaluations(&self) -> u64 {
        self.inner.evaluations()
    }
}

/// Times every batch an evaluation backend fulfills (`fulfill` spans)
/// and publishes the open span so pool-thread simulations attach to it.
pub struct TracedBackend<B> {
    pub inner: B,
    pub rec: Arc<Recorder>,
    pub label: &'static str,
    pub req: u64,
    pub pool_parent: Arc<AtomicU64>,
}

impl<B: EvalBackend> EvalBackend for TracedBackend<B> {
    fn fulfill(&mut self, requests: &[SimulationRequest]) -> Result<Vec<f64>, EvalError> {
        if requests.is_empty() {
            return self.inner.fulfill(requests);
        }
        let span = self
            .rec
            .open("fulfill", self.label, self.req, requests.len(), 0);
        self.pool_parent.store(span.id(), Ordering::Relaxed);
        let result = self.inner.fulfill(requests);
        self.pool_parent.store(0, Ordering::Relaxed);
        result
    }

    fn fulfill_one(&mut self, config: &Config) -> Result<f64, EvalError> {
        let _span = self.rec.open("fulfill", self.label, self.req, 1, 0);
        self.inner.fulfill_one(config)
    }

    fn num_variables(&self) -> usize {
        self.inner.num_variables()
    }

    fn evaluations(&self) -> u64 {
        self.inner.evaluations()
    }
}

/// Times every query an optimizer makes (`query` spans, labelled by the
/// phase: `pilot` or `hybrid`).
pub struct TracedDse<D> {
    pub inner: D,
    pub rec: Arc<Recorder>,
    pub phase: &'static str,
    pub req: u64,
}

impl<D: DseEvaluator> DseEvaluator for TracedDse<D> {
    fn query(&mut self, config: &Config) -> Result<(f64, Source), EvalError> {
        let _span = self.rec.open("query", self.phase, self.req, 1, 0);
        self.inner.query(config)
    }

    fn query_exact(&mut self, config: &Config) -> Result<f64, EvalError> {
        let _span = self.rec.open("query", self.phase, self.req, 1, 0);
        self.inner.query_exact(config)
    }

    fn query_batch(&mut self, configs: &[Config]) -> Result<Vec<(f64, Source)>, EvalError> {
        let _span = self
            .rec
            .open("query", self.phase, self.req, configs.len(), 0);
        self.inner.query_batch(configs)
    }

    fn num_variables(&self) -> usize {
        self.inner.num_variables()
    }

    fn observe_iteration(&mut self, phase: &'static str, iteration: u64) {
        self.inner.observe_iteration(phase, iteration);
    }
}

/// An `EngineBackend` over `cache` whose per-worker simulators (built as
/// the engine builds them, from `build_seeded` behind a `FiniteGuard`)
/// time every simulation, behind a traced `fulfill`.
pub fn traced_pool(
    rec: &Arc<Recorder>,
    label: &'static str,
    req: u64,
    threads: usize,
    cache: &Arc<SimCache>,
    namespace: String,
    (problem, scale, seed): (Problem, Scale, u64),
) -> TracedBackend<EngineBackend> {
    let pool_parent = Arc::new(AtomicU64::new(0));
    let factory = {
        let rec = Arc::clone(rec);
        let pool_parent = Arc::clone(&pool_parent);
        move || {
            Box::new(FiniteGuard::new(TimedSim {
                inner: build_seeded(problem, scale, seed).evaluator,
                rec: Arc::clone(&rec),
                label: short_name(problem),
                req,
                pool_parent: Arc::clone(&pool_parent),
            })) as Box<dyn AccuracyEvaluator + Send>
        }
    };
    TracedBackend {
        inner: EngineBackend::new(factory, threads, Arc::clone(cache), namespace),
        rec: Arc::clone(rec),
        label,
        req,
        pool_parent,
    }
}
