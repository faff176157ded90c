//! The `serve-dse` workload: an in-process `Server` on loopback with two
//! closed-loop clients, each an optimizer that waits for every reply.
//! Each client opens a production-mode session (hevc and fft, online
//! `refit:20:10` variogram, no audit) and replays a seeded design-space
//! exploration stream: about 80 % single `evaluate` frames probing
//! word-length configurations near the optimizer's current design point
//! and about 20 % `evaluate_batch` frames of the Nv-wide frontier around
//! it, after which the design point may move into the frontier.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use krigeval_core::hybrid::{HybridEvaluator, HybridSettings, VariogramPolicy};
use krigeval_core::variogram::ModelFamily;
use krigeval_core::{GatePolicy, ModelSelection, Outcome, VariogramModel};
use krigeval_engine::suite::{build_seeded, Problem};
use krigeval_engine::{Scale, SimCache};
use krigeval_serve::session::BackendPool;
use krigeval_serve::{HelloParams, OutcomeFrame, Request, Response, Server, ServerConfig, Session};

use crate::layers::{self, short_name, LayerInputs};
use crate::stats::{
    derive_seed, mean_quantile, median, peak_rss_mib, process_cpu_s, Metric, Report, SplitMix,
};
use crate::trace::{traced_pool, Recorder};
use crate::Args;

/// Frames each client sends per pass.
const FRAMES_PER_CLIENT: usize = 500;
/// Share of frames that are `evaluate_batch`.
const BATCH_SHARE: f64 = 0.2;
/// Chance that a frontier batch moves the design point.
const CENTRE_MOVE: f64 = 0.3;
const VARIOGRAM: &str = "refit:20:10";

/// One client's session parameters and request stream.
struct ClientPlan {
    problem: Problem,
    hello: HelloParams,
    frames: Vec<Request>,
}

fn is_batch(frame: &Request) -> bool {
    matches!(frame, Request::EvaluateBatch { .. })
}

fn configs_of(frame: &Request) -> usize {
    match frame {
        Request::EvaluateBatch { configs } => configs.len(),
        _ => 1,
    }
}

/// Generates both clients' streams from the workload seed.
fn plan(seed: u64) -> Vec<ClientPlan> {
    [Problem::Hevc, Problem::Fft]
        .into_iter()
        .enumerate()
        .map(|(client, problem)| {
            let session_seed = derive_seed(seed, 10 + client as u64);
            let instance = build_seeded(problem, Scale::Fast, session_seed);
            let opts = instance
                .minplusone
                .expect("word-length problems carry min+1 bounds");
            let (floor, max) = (opts.w_floor, opts.w_max);
            let mut rng = SplitMix(derive_seed(seed, 20 + client as u64));
            let nv = problem.nv();
            let step_down = |w: &mut Vec<i32>, i: usize| {
                w[i] = if w[i] > floor { w[i] - 1 } else { w[i] + 1 };
            };
            // An optimizer's view: a current design point, probes at L1
            // distance 1-2 around it, and now and then its whole
            // one-step-down frontier, after which it may move to one of
            // the frontier's points.
            let mut centre = vec![max; nv];
            let frames = (0..FRAMES_PER_CLIENT)
                .map(|_| {
                    if rng.unit() < BATCH_SHARE {
                        let configs: Vec<Vec<i32>> = (0..nv)
                            .map(|i| {
                                let mut c = centre.clone();
                                step_down(&mut c, i);
                                c
                            })
                            .collect();
                        if rng.unit() < CENTRE_MOVE {
                            centre = configs[rng.below(nv)].clone();
                        }
                        Request::EvaluateBatch { configs }
                    } else {
                        let mut config = centre.clone();
                        for _ in 0..1 + rng.below(2) {
                            let i = rng.below(nv);
                            if rng.unit() < 0.5 {
                                step_down(&mut config, i);
                            } else if config[i] < max {
                                config[i] += 1;
                            } else {
                                config[i] -= 1;
                            }
                        }
                        Request::Evaluate { config }
                    }
                })
                .collect();
            ClientPlan {
                problem,
                hello: HelloParams {
                    benchmark: short_name(problem).to_string(),
                    scale: Some("fast".to_string()),
                    seed: Some(session_seed),
                    variogram: Some(VARIOGRAM.to_string()),
                    ..HelloParams::default()
                },
                frames,
            }
        })
        .collect()
}

/// Bitwise equality of two outcomes as carried on the wire.
fn same(a: &OutcomeFrame, b: &OutcomeFrame) -> bool {
    a.source == b.source
        && a.value.to_bits() == b.value.to_bits()
        && a.variance.map(f64::to_bits) == b.variance.map(f64::to_bits)
        && a.neighbors == b.neighbors
}

fn outcome_frame(outcome: &Outcome) -> OutcomeFrame {
    match outcome {
        Outcome::Simulated { value } => OutcomeFrame {
            source: "simulated".to_string(),
            value: *value,
            variance: None,
            neighbors: None,
        },
        Outcome::Kriged {
            value,
            variance,
            neighbors,
            ..
        } => OutcomeFrame {
            source: "kriged".to_string(),
            value: *value,
            variance: Some(*variance),
            neighbors: Some(*neighbors as u64),
        },
    }
}

/// Outcomes of one frame, or `None` when the reply was not a value.
fn response_outcomes(response: &Response) -> Option<Vec<OutcomeFrame>> {
    match response {
        Response::Value(outcome) => Some(vec![outcome.clone()]),
        Response::Values { outcomes } => Some(outcomes.clone()),
        _ => None,
    }
}

/// Per client, per frame: the outcomes and the in-process session time.
type Reference = Vec<Vec<(Vec<OutcomeFrame>, f64)>>;

/// The in-process reference: a `Session` per client fed the same stream.
fn in_process(plans: &[ClientPlan]) -> Result<Reference, String> {
    let pool = BackendPool::new(1, Default::default(), krigeval_obs::Tracer::disabled());
    plans
        .iter()
        .enumerate()
        .map(|(id, plan)| {
            let mut session = Session::open(id as u64 + 1, &plan.hello, &pool)
                .map_err(|e| format!("session open failed: {e:?}"))?;
            plan.frames
                .iter()
                .map(|frame| {
                    let started = Instant::now();
                    let outcomes = match frame {
                        Request::Evaluate { config } => session.evaluate(config).map(|o| vec![o]),
                        Request::EvaluateBatch { configs } => session.evaluate_batch(configs),
                        _ => unreachable!("streams carry only evaluation frames"),
                    }
                    .map_err(|e| format!("in-process evaluation failed: {e:?}"))?;
                    Ok((outcomes, started.elapsed().as_secs_f64()))
                })
                .collect()
        })
        .collect()
}

/// What one pass over the server measured.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    /// Per client, per frame: (round-trip seconds, reply).
    replies: Vec<Vec<(f64, Response)>>,
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Result<Response, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("server closed the connection".to_string()),
        Ok(_) => Response::from_line(line.trim_end()).map_err(|e| format!("bad reply: {e}")),
        Err(e) => Err(format!("read failed: {e}")),
    }
}

fn send(stream: &mut TcpStream, request: &Request) -> Result<(), String> {
    let mut line = request.to_line();
    line.push('\n');
    stream
        .write_all(line.as_bytes())
        .map_err(|e| format!("write failed: {e}"))
}

/// One connected client: the write half and a buffered read half.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Starts a fresh server, opens both sessions, replays both streams
/// concurrently and drains the server.
fn server_pass(plans: &[ClientPlan]) -> Result<Pass, String> {
    let start = Instant::now();
    let server = Server::start(ServerConfig {
        threads: 1,
        max_sessions: 4,
        max_inflight: 8,
        drain_grace_ms: 0,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start failed: {e}"))?;
    let start_s = start.elapsed().as_secs_f64();
    // A ping per connection first: its reply waits for the server's
    // accept loop to pick the connection up (a poll of up to 25 ms),
    // which set-up time leaves out.
    let mut clients = Vec::new();
    for _ in plans {
        let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut client = Client { stream, reader };
        send(&mut client.stream, &Request::Ping)?;
        match read_reply(&mut client.reader)? {
            Response::Pong => {}
            other => return Err(format!("ping refused: {other:?}")),
        }
        clients.push(client);
    }
    let hello = Instant::now();
    for (client, plan) in clients.iter_mut().zip(plans) {
        send(&mut client.stream, &Request::Hello(plan.hello.clone()))?;
        match read_reply(&mut client.reader)? {
            Response::Session { .. } => {}
            other => return Err(format!("hello refused: {other:?}")),
        }
    }
    let setup_s = start_s + hello.elapsed().as_secs_f64();

    let replay_start = Instant::now();
    let replies: Vec<Result<Vec<(f64, Response)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plans)
            .map(|(client, plan)| {
                scope.spawn(move || {
                    plan.frames
                        .iter()
                        .map(|frame| {
                            let sent = Instant::now();
                            send(&mut client.stream, frame)?;
                            let reply = read_reply(&mut client.reader)?;
                            Ok((sent.elapsed().as_secs_f64(), reply))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let wall_s = replay_start.elapsed().as_secs_f64();
    drop(clients);
    server
        .join()
        .map_err(|e| format!("server drain failed: {e}"))?;
    Ok(Pass {
        setup_s,
        wall_s,
        replies: replies.into_iter().collect::<Result<_, _>>()?,
    })
}

/// Checks every reply of a pass against the in-process reference and
/// returns (kriged configurations, total configurations).
fn check_pass(
    pass: &Pass,
    plans: &[ClientPlan],
    reference: &Reference,
    report: &mut Report,
) -> (u64, u64) {
    let (mut kriged, mut total) = (0u64, 0u64);
    for ((replies, plan), expected) in pass.replies.iter().zip(plans).zip(reference) {
        for (i, ((_, reply), (want, _))) in replies.iter().zip(expected).enumerate() {
            report.attempted += 1;
            let ok = response_outcomes(reply).is_some_and(|got| {
                got.len() == want.len() && got.iter().zip(want).all(|(a, b)| same(a, b))
            });
            if !ok {
                report.failed += 1;
                if report.failed <= 5 {
                    report.notes.push(format!(
                        "CHECK FAILED: {} frame {i}: reply {reply:?} differs from the in-process session",
                        short_name(plan.problem)
                    ));
                }
            }
            for o in want {
                total += 1;
                kriged += u64::from(o.source == "kriged");
            }
        }
    }
    (kriged, total)
}

fn count(groups: &[Vec<f64>]) -> usize {
    groups.iter().map(Vec::len).sum()
}

/// Stream sets per invocation: each set is both clients' streams on its
/// own seed. Averaging over the sets keeps the wall clock steady from
/// one workload seed to the next.
const STREAM_SETS: u64 = 32;

/// Runs the workload and reports its metrics.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut sets = Vec::new();
    for k in 0..STREAM_SETS {
        let plans = plan(derive_seed(args.seed, 200 + k));
        match in_process(&plans) {
            Ok(reference) => sets.push((plans, reference)),
            Err(e) => {
                report.check(false, || e);
                return report;
            }
        }
    }
    if args.trace {
        traced(&sets, args.seed, &mut report);
        return report;
    }
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); sets.len()];
    let mut cpus: Vec<Vec<f64>> = vec![Vec::new(); sets.len()];
    let mut setups = Vec::new();
    // Round trips per stream set: all frames (ms), evaluate and batch
    // frames (µs).
    let mut all_ms: Vec<Vec<f64>> = vec![Vec::new(); sets.len()];
    let mut eval_us: Vec<Vec<f64>> = vec![Vec::new(); sets.len()];
    let mut batch_us: Vec<Vec<f64>> = vec![Vec::new(); sets.len()];
    let (mut kriged, mut total) = (0, 0);
    let mut peak_rss = 0.0;
    let mut pass = 0;
    while pass < sets.len() || started.elapsed() < budget {
        let k = pass % sets.len();
        pass += 1;
        let (plans, reference) = &sets[k];
        let cpu_start = process_cpu_s();
        let result = match server_pass(plans) {
            Ok(result) => result,
            Err(e) => {
                report.check(false, || e);
                break;
            }
        };
        cpus[k].push(process_cpu_s() - cpu_start);
        let share = check_pass(&result, plans, reference, &mut report);
        if walls[k].is_empty() {
            kriged += share.0;
            total += share.1;
        }
        if pass == sets.len() {
            peak_rss = peak_rss_mib();
        }
        setups.push(result.setup_s);
        walls[k].push(result.wall_s);
        for (replies, plan) in result.replies.iter().zip(plans) {
            for ((rtt, _), frame) in replies.iter().zip(&plan.frames) {
                all_ms[k].push(rtt * 1e3);
                if is_batch(frame) {
                    batch_us[k].push(rtt * 1e6);
                } else {
                    eval_us[k].push(rtt * 1e6);
                }
            }
        }
    }
    let set_walls: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    let total_wall: f64 = set_walls.iter().sum();
    // CPU time is read in 10 ms ticks, so a set's figure is the mean over
    // its passes, which averages the rounding out.
    let set_cpus: Vec<f64> = cpus
        .iter()
        .map(|c| c.iter().sum::<f64>() / c.len().max(1) as f64)
        .collect();
    let eval_kriged = sets
        .iter()
        .flat_map(|(plans, reference)| plans.iter().zip(reference))
        .flat_map(|(plan, frames)| plan.frames.iter().zip(frames))
        .filter(|(frame, _)| !is_batch(frame))
        .map(|(_, (outcomes, _))| f64::from(u8::from(outcomes[0].source == "kriged")))
        .collect::<Vec<f64>>();
    report.metrics = vec![
        Metric::median_of("setup_s", "s", &setups),
        Metric::instance_mean("wall_s", "s", &set_walls),
        Metric::instance_mean("cpu_s", "s", &set_cpus),
        Metric::single(
            "p_percent",
            "%",
            100.0 * kriged as f64 / total.max(1) as f64,
            total as usize,
        ),
        Metric::single("peak_rss_mib", "MiB", peak_rss, 1),
    ];
    let frames = (2 * FRAMES_PER_CLIENT * sets.len()) as f64;
    let evaluate_kriged = 100.0 * eval_kriged.iter().sum::<f64>() / eval_kriged.len().max(1) as f64;
    report.extra = vec![
        Metric::single("requests_per_s", "1/s", frames / total_wall, pass),
        Metric::single(
            "latency_p50_ms",
            "ms",
            mean_quantile(&all_ms, 0.5),
            count(&all_ms),
        ),
        Metric::single(
            "latency_p99_ms",
            "ms",
            mean_quantile(&all_ms, 0.99),
            count(&all_ms),
        ),
        Metric::single(
            "evaluate_p50_us",
            "us",
            mean_quantile(&eval_us, 0.5),
            count(&eval_us),
        ),
        Metric::single(
            "evaluate_p99_us",
            "us",
            mean_quantile(&eval_us, 0.99),
            count(&eval_us),
        ),
        Metric::single(
            "batch_p50_us",
            "us",
            mean_quantile(&batch_us, 0.5),
            count(&batch_us),
        ),
        Metric::single(
            "batch_p99_us",
            "us",
            mean_quantile(&batch_us, 0.99),
            count(&batch_us),
        ),
        Metric::single(
            "evaluate_kriged_percent",
            "%",
            evaluate_kriged,
            eval_kriged.len(),
        ),
    ];
    report.notes.push(format!(
        "workload serve-dse: {pass} pass(es) over {STREAM_SETS} stream sets of 2 clients x {FRAMES_PER_CLIENT} frames"
    ));
    report
}

/// The session's settings, as `Session::open` derives them from the
/// stream's `hello`.
fn session_settings() -> HybridSettings {
    let defaults = HybridSettings::default();
    HybridSettings {
        variogram: VariogramPolicy::Refit {
            min_samples: 20,
            every: 10,
            families: ModelFamily::all().to_vec(),
            fallback: VariogramModel::linear(1.0),
        },
        audit: None,
        gate: GatePolicy::Fixed,
        selection: ModelSelection::WeightedSse,
        nugget: None,
        ..defaults
    }
}

fn traced(sets: &[(Vec<ClientPlan>, Reference)], seed: u64, report: &mut Report) {
    // Session time, wire time and frame codec time per frame.
    let (mut session_us, mut wire_us, mut codec_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut untraced_wall = 0.0;
    for (plans, reference) in sets {
        let pass = match server_pass(plans) {
            Ok(pass) => pass,
            Err(e) => return report.check(false, || e),
        };
        check_pass(&pass, plans, reference, report);
        for ((replies, plan), expected) in pass.replies.iter().zip(plans).zip(reference) {
            for (((rtt, reply), frame), (_, session_s)) in
                replies.iter().zip(&plan.frames).zip(expected)
            {
                untraced_wall += session_s;
                let line = frame.to_line();
                let codec = Instant::now();
                let parsed = Request::from_line(&line);
                let rendered = reply.to_line();
                codec_us.push(codec.elapsed().as_secs_f64() * 1e6);
                let _ = std::hint::black_box((parsed, rendered));
                if !is_batch(frame) {
                    session_us.push(session_s * 1e6);
                    wire_us.push((rtt - session_s) * 1e6);
                }
            }
        }
    }

    // The session's composition with span wrappers: a HybridEvaluator
    // over the pooled EngineBackend, timing every simulation.
    let rec = Arc::new(Recorder::new());
    let cache = Arc::new(SimCache::new());
    let (mut queries, mut kriged, mut simulated, mut neighbor_sum) = (0, 0, 0, 0u64);
    let traced_start = Instant::now();
    let clients = sets
        .iter()
        .flat_map(|(plans, reference)| plans.iter().zip(reference));
    for (id, (plan, expected)) in clients.enumerate() {
        let problem = plan.problem;
        let seed = plan.hello.seed.expect("streams carry a session seed");
        let namespace = format!("{}/{}/{seed:016x}", problem.label(), Scale::Fast.label());
        let backend = traced_pool(
            &rec,
            "hybrid",
            id as u64,
            1,
            &cache,
            namespace,
            (problem, Scale::Fast, seed),
        );
        let mut hybrid = HybridEvaluator::new(backend, session_settings());
        for (n, (frame, (want, _))) in plan.frames.iter().zip(expected).enumerate() {
            let req = (id * FRAMES_PER_CLIENT + n) as u64;
            let _frame = rec.open("frame", short_name(problem), req, configs_of(frame), 0);
            let got = {
                let _query = rec.open("query", "hybrid", req, configs_of(frame), 0);
                match frame {
                    Request::Evaluate { config } => hybrid.evaluate(config).map(|o| vec![o]),
                    Request::EvaluateBatch { configs } => hybrid.evaluate_batch(configs),
                    _ => unreachable!("streams carry only evaluation frames"),
                }
            };
            let ok = got.is_ok_and(|got| {
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(a, b)| same(&outcome_frame(a), b))
            });
            report.check(ok, || {
                format!("traced composition differs from the session at frame {req}")
            });
        }
        let stats = hybrid.stats();
        queries += stats.queries;
        kriged += stats.kriged;
        simulated += stats.simulated;
        neighbor_sum += stats.neighbor_sum;
    }
    let traced_wall = traced_start.elapsed().as_secs_f64();
    // The in-process sessions again, after the traced replay, so warm-up
    // falls on both sides of `trace.overhead`.
    let again_start = Instant::now();
    for (plans, _) in sets {
        if let Err(e) = in_process(plans) {
            report.check(false, || e);
        }
    }
    let untraced_wall = (untraced_wall + again_start.elapsed().as_secs_f64()) / 2.0;
    let spans = rec.take();
    let dir = crate::out_dir();
    let trace_path = dir.join(format!("trace-serve-dse-s{seed}.jsonl"));
    if let Err(e) = crate::trace::write_jsonl(&spans, &trace_path) {
        report
            .notes
            .push(format!("could not write {}: {e}", trace_path.display()));
    }
    let inputs = LayerInputs {
        spans: &spans,
        callers: 1,
        traced_wall_s: traced_wall,
        untraced_wall_s: untraced_wall,
        pool_workers: 1,
        hybrid_queries: queries,
        hybrid_kriged: kriged,
        hybrid_simulated: simulated,
        audit_sims: 0,
        mean_neighbors: neighbor_sum as f64 / kriged.max(1) as f64,
        opt_iterations: 0,
        cache: cache.stats(),
        executor: None,
        sink: None,
        serve: Some((median(&session_us), median(&wire_us), median(&codec_us))),
    };
    let (metrics, notes) = layers::per_layer(&inputs);
    report.metrics = metrics;
    report.notes.extend(notes);
    report.notes.push(format!(
        "trace written to {}; traced replay {traced_wall:.3} s vs in-process session {untraced_wall:.3} s",
        trace_path.display()
    ));
}
