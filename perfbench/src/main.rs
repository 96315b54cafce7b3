//! The benchmark's command-line entry point.
//!
//! ```text
//! krisp-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times, runs one
//! untimed warm-up pass (which also counts simulated kernels), then as
//! many timed passes as fit `--seconds` at the workload's nominal pass
//! time (see `Workload::passes`), and prints the end-to-end metrics,
//! scaled to the reference machine's speed by a yardstick timed before
//! every set-up and operation (see `calib`).
//! With `--trace 1` it runs one untraced pass and one traced pass of the
//! same seed, replays each run's layer calls, writes the span file and
//! the per-layer ledger, and prints the per-layer metrics. The last line
//! of standard output is the result object.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use krisp_obs::{Event, EventBus, EventKind, Metrics, Obs, Sink};
use krisp_perfbench::calib::Yardstick;
use krisp_perfbench::check::{self, Verdict};
use krisp_perfbench::layers::{self, Counts, Recorded};
use krisp_perfbench::reference;
use krisp_perfbench::trace::Tracer;
use krisp_perfbench::workload::{self, Env, Op, Output, Rng, Workload};
use krisp_server::run_server_observed;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Kernels per reference replay, and how many runs are replayed.
const REFERENCE_KERNELS: usize = 4000;
const REFERENCE_RUNS: usize = 2;
/// Events kept per recorded run (the first ones).
const RECORD_EVENTS: usize = 1 << 18;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The result object printed as the last line.
struct Report {
    verdict: Verdict,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.verdict.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.verdict.note(Err(format!("metric {name} is {value}")));
        }
        self.metrics
            .push((name, if value.is_finite() { value } else { -1.0 }, unit));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: krisp-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let scratch = out_dir().join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let report = if args.trace {
        traced(&args, &scratch)
    } else {
        untraced(&args, &scratch)
    };
    // The scratch dir holds only the per-run perfdb caches.
    let _ = std::fs::remove_dir_all(&scratch);
    for p in report.verdict.problems() {
        println!("check failed: {p}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// Where runs leave their artifacts: the build directory, so nothing
/// lands in the source tree.
fn out_dir() -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench");
    std::fs::create_dir_all(&dir).expect("create the benchmark's output dir");
    dir
}

fn fresh_dir(dir: &Path) -> &Path {
    let _ = std::fs::remove_dir_all(dir);
    dir
}

/// One set-up: the workload's perfdb, traces and capacity, then the
/// golden replay.
fn setup(args: &Args, dir: &Path, tr: &mut Tracer, verdict: &mut Verdict) -> Env {
    let env = workload::setup(args.workload, args.seed, fresh_dir(dir), tr);
    for outcome in tr.span("check.golden_replay", |_| {
        check::golden_replay(&check::goldens_dir())
    }) {
        verdict.note(outcome);
    }
    env
}

fn metrics_obs(w: Workload) -> Obs {
    if w.records_metrics() {
        Obs {
            bus: EventBus::disabled(),
            metrics: Metrics::recording(),
        }
    } else {
        Obs::disabled()
    }
}

fn span_name(op: &Op) -> &'static str {
    match op {
        Op::Baseline { .. } => "bench.isolated_baseline",
        Op::Server { .. } => "server.run_server",
        Op::Cluster { .. } => "server.run_cluster",
    }
}

/// Runs one operation inside its span; a panic becomes an error.
fn run_one(op: &Op, env: &Env, obs: Obs, tr: &mut Tracer) -> (Result<Output, String>, u64) {
    let t0 = Instant::now();
    let out = tr.span(span_name(op), |_| {
        catch_unwind(AssertUnwindSafe(|| workload::run_op(op, env, obs)))
    });
    let ns = t0.elapsed().as_nanos() as u64;
    (
        out.map_err(|p| {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            format!("{}: panicked: {msg}", op.label())
        }),
        ns,
    )
}

struct Pass {
    /// The operations' host time, yardstick timings excluded.
    ns: u64,
    op_ns: Vec<u64>,
    outputs: Vec<Result<Output, String>>,
}

/// Runs every operation once, each right after a yardstick timing.
fn run_pass(
    ops: &[Op],
    env: &Env,
    obs: &mut dyn FnMut() -> Obs,
    tr: &mut Tracer,
    yard: &mut Yardstick,
) -> Pass {
    let mut op_ns = Vec::with_capacity(ops.len());
    let mut outputs = Vec::with_capacity(ops.len());
    for op in ops {
        yard.sample();
        let (out, ns) = run_one(op, env, obs(), tr);
        op_ns.push(ns);
        outputs.push(out);
    }
    Pass {
        ns: op_ns.iter().sum(),
        op_ns,
        outputs,
    }
}

/// Checks every result of a pass against the warm-up pass's digests;
/// returns how many operations failed.
fn check_pass(ops: &[Op], pass: &Pass, warm: &[Warm], verdict: &mut Verdict) -> u64 {
    let mut failed = 0;
    for ((op, out), w) in ops.iter().zip(&pass.outputs).zip(warm) {
        let outcome = out.as_ref().map_err(Clone::clone).and_then(|out| {
            check::check_output(out)
                .map_err(|e| format!("{}: {e}", op.label()))
                .and_then(|()| check::check_digest(op.label(), w.digest, check::digest(out)))
        });
        if outcome.is_err() {
            failed += 1;
        }
        verdict.note(outcome);
    }
    failed
}

/// Counts kernel completions on the event bus.
struct KernelCounter(u64);

impl Sink for KernelCounter {
    fn record(&mut self, event: Event) {
        if matches!(event.kind, EventKind::KernelComplete { .. }) {
            self.0 += 1;
        }
    }
}

/// What the warm-up pass learned about one operation.
struct Warm {
    digest: u64,
    kernels: u64,
    requests: u64,
}

/// Runs `cfg` with a kernel-counting bus.
fn counted(
    cfg: &krisp_server::ServerConfig,
    env: &Env,
    metrics: Metrics,
) -> (krisp_server::ExperimentResult, u64) {
    let counter = Arc::new(Mutex::new(KernelCounter(0)));
    let obs = Obs {
        bus: EventBus::to_sink(counter.clone()),
        metrics,
    };
    let r = run_server_observed(cfg, &env.perfdb, obs);
    let n = counter.lock().expect("counter lock").0;
    (r, n)
}

/// The untimed first pass: every operation's digest (the reference the
/// timed passes must reproduce), its simulated kernel completions and
/// resolved requests. Server runs here carry a live event bus, so the
/// timed passes also check that observing a run does not change it.
fn warm_pass(w: Workload, ops: &[Op], env: &Env, verdict: &mut Verdict) -> Vec<Warm> {
    ops.iter()
        .map(|op| {
            let run = catch_unwind(AssertUnwindSafe(|| match op {
                Op::Server { cfg, .. } => {
                    let (r, kernels) = counted(cfg, env, metrics_obs(w).metrics);
                    let out = Output::Server(r);
                    (
                        check::digest(&out),
                        kernels,
                        out.requests_resolved().unwrap_or(0),
                    )
                }
                Op::Baseline { .. } => {
                    let out = workload::run_op(op, env, Obs::disabled());
                    let (r, kernels) = counted(&op.device_config(), env, Metrics::disabled());
                    let requests = Output::Server(r).requests_resolved().unwrap_or(0);
                    (check::digest(&out), kernels, requests)
                }
                Op::Cluster { cfg, .. } => {
                    // Cluster GPUs emit no kernel events: count each
                    // completed request at its models' mean trace length.
                    let out = workload::run_op(op, env, metrics_obs(w));
                    let Output::Cluster(r) = &out else {
                        unreachable!("a cluster op yields a cluster result")
                    };
                    let mean_len = cfg
                        .models
                        .iter()
                        .map(|m| env.traces[m].len())
                        .sum::<usize>() as f64
                        / cfg.models.len() as f64;
                    let kernels = ((r.completed as u64 + r.drained) as f64 * mean_len) as u64;
                    (
                        check::digest(&out),
                        kernels,
                        out.requests_resolved().unwrap_or(0),
                    )
                }
            }));
            match run {
                Ok((digest, kernels, requests)) => Warm {
                    digest,
                    kernels,
                    requests,
                },
                Err(_) => {
                    verdict.note(Err(format!("{}: panicked in the warm-up pass", op.label())));
                    Warm {
                        digest: 0,
                        kernels: 0,
                        requests: 0,
                    }
                }
            }
        })
        .collect()
}

/// Keeps the first `cap` events of a run. A cut at the end leaves every
/// kept event's cause in the record, where a ring buffer's cut at the
/// start would split requests and kernels.
struct Recorder {
    cap: usize,
    events: Vec<Event>,
}

impl Sink for Recorder {
    fn record(&mut self, event: Event) {
        if self.events.len() < self.cap {
            self.events.push(event);
        }
    }
}

fn recording_obs(metrics: Metrics) -> (Obs, Arc<Mutex<Recorder>>) {
    let sink = Arc::new(Mutex::new(Recorder {
        cap: RECORD_EVENTS,
        events: Vec::new(),
    }));
    let obs = Obs {
        bus: EventBus::to_sink(sink.clone()),
        metrics,
    };
    (obs, sink)
}

fn drain(sink: &Arc<Mutex<Recorder>>) -> Vec<Event> {
    std::mem::take(&mut sink.lock().expect("sink lock").events)
}

/// Records the single-GPU run standing for `op` (see
/// [`Op::device_config`]) and returns its result and events.
fn record_device(op: &Op, env: &Env) -> (krisp_server::ExperimentResult, Vec<Event>) {
    let (obs, sink) = recording_obs(Metrics::disabled());
    let r = run_server_observed(&op.device_config(), &env.perfdb, obs);
    (r, drain(&sink))
}

/// Replays seed-chosen runs' kernel/mask streams against the from-scratch
/// reference, and checks that recording a server run left its result
/// unchanged.
fn reference_check(
    ops: &[Op],
    env: &Env,
    warm: &[Warm],
    seed: u64,
    tr: &mut Tracer,
    verdict: &mut Verdict,
) {
    let mut rng = Rng::new(seed ^ 0x00FF_5EED);
    let mut picks: Vec<usize> = (0..ops.len()).collect();
    rng.shuffle(&mut picks);
    for &i in picks.iter().take(REFERENCE_RUNS) {
        let op = &ops[i];
        let cfg = op.device_config();
        let (r, events) = record_device(op, env);
        if let Op::Server { .. } = op {
            verdict.note(check::check_digest(
                &format!("{} (recorded)", op.label()),
                warm[i].digest,
                check::digest(&Output::Server(r)),
            ));
        }
        let stream = reference::kernel_stream(&events, &cfg.models, &env.traces);
        let window = reference::sample(&stream, REFERENCE_KERNELS, rng.next_u64());
        let outcome = tr.span("check.reference_replay", |_| {
            reference::replay(window, cfg.sharing_penalty, true)
        });
        verdict.note(match outcome {
            Ok(s) if s.completions > 0 => Ok(()),
            Ok(_) => Err(format!("{}: no kernels to replay", op.label())),
            Err(e) => Err(format!("{}: {e}", op.label())),
        });
    }
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `v` (sorted ascending).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest of a fixed ladder of percentiles with at least ten
/// samples beyond it: `(percentile, value)`.
fn tail(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let p = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (p, percentile(&v, p))
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The paper-fidelity errors. The colocate sweep computes them from its
/// own Fig 13 cells; the other workloads' runs contain no such cells, so
/// they run those cells once, untimed, after measuring.
fn fidelity(args: &Args, ops: &[Op], outputs: &[Output], scratch: &Path) -> Option<(f64, f64)> {
    if args.workload == Workload::ColocateSweep {
        return workload::fidelity(ops, outputs);
    }
    let fid_ops = workload::fidelity_ops(args.seed);
    let env = Env {
        perfdb: workload::profiled_perfdb(fresh_dir(&scratch.join("fidelity"))),
        traces: Default::default(),
        capacity_rps: None,
    };
    let outs: Vec<Output> = fid_ops
        .iter()
        .map(|op| workload::run_op(op, &env, Obs::disabled()))
        .collect();
    workload::fidelity(&fid_ops, &outs)
}

fn untraced(args: &Args, scratch: &Path) -> Report {
    let mut verdict = Verdict::default();
    let mut tr = Tracer::off();
    let mut setup_s = Vec::new();
    let mut setup_yard = Yardstick::new();
    let mut env = None;
    for rep in 0..SETUP_REPS {
        setup_yard.sample();
        let t0 = Instant::now();
        let e = setup(
            args,
            &scratch.join(format!("setup{rep}")),
            &mut tr,
            &mut verdict,
        );
        setup_s.push(t0.elapsed().as_secs_f64());
        env = Some(e);
    }
    let env = env.expect("at least one set-up");
    let ops = workload::plan(args.workload, args.seed, &env);
    let warm = warm_pass(args.workload, &ops, &env, &mut verdict);

    let mut yard = Yardstick::new();
    let (mut pass_s, mut op_ms) = (Vec::new(), Vec::new());
    let mut per_op: Vec<Vec<f64>> = vec![Vec::new(); ops.len()];
    let (mut attempted, mut failed) = (0, 0);
    let mut first: Option<Vec<Output>> = None;
    for _ in 0..args.workload.passes(args.seconds) {
        let pass = run_pass(
            &ops,
            &env,
            &mut || metrics_obs(args.workload),
            &mut tr,
            &mut yard,
        );
        attempted += ops.len() as u64;
        failed += check_pass(&ops, &pass, &warm, &mut verdict);
        pass_s.push(pass.ns as f64 / 1e9);
        op_ms.extend(pass.op_ns.iter().map(|&ns| ns as f64 / 1e6));
        for (times, &ns) in per_op.iter_mut().zip(&pass.op_ns) {
            times.push(ns as f64 / 1e9);
        }
        if first.is_none() {
            first = pass.outputs.into_iter().collect::<Result<Vec<_>, _>>().ok();
        }
    }
    let rss = peak_rss_mb();
    reference_check(&ops, &env, &warm, args.seed, &mut tr, &mut verdict);
    let fid = first
        .as_deref()
        .and_then(|outs| fidelity(args, &ops, outs, scratch));
    if fid.is_none() {
        verdict.note(Err("the fidelity cells produced no comparison".into()));
    }
    let (fid_thr, fid_energy) = fid.unwrap_or((f64::NAN, f64::NAN));

    // One pass's host time, from each operation's median over the
    // passes: a noisy moment slows a few operations of one pass, and the
    // per-operation median discards it where a median of whole-pass
    // times would not. Every timed metric is then scaled to the
    // reference machine's speed by the yardstick timed before each
    // operation (see `calib`), so a slow minute on a shared host does
    // not read as a slow program.
    let scale = yard.scale();
    let wall_s: f64 = per_op.iter().map(|t| median(t)).sum();
    let host_s = wall_s * scale;
    let kernels: u64 = warm.iter().map(|w| w.kernels).sum();
    let requests: u64 = warm.iter().map(|w| w.requests).sum();
    let (tail_p, tail_ms) = tail(&op_ms);
    let setup_scale = setup_yard.scale();
    let wall_setup_s = median(&setup_s);
    println!(
        "yardstick: nominal {:.4} ms; timed passes: {} timings, scale {scale:.4}, unscaled \
         host_s {wall_s:.4} s; set-ups: {} timings, scale {setup_scale:.4}, unscaled \
         setup_s {wall_setup_s:.4} s",
        Yardstick::NOMINAL_NS / 1e6,
        yard.samples_ns().len(),
        setup_yard.samples_ns().len(),
    );
    println!(
        "{}: seed {}, {} ops per pass, {} timed passes (median pass {:.3} s), {kernels} \
         simulated kernels and {requests} requests per pass, pass digest {:016x}",
        args.workload.name(),
        args.seed,
        ops.len(),
        pass_s.len(),
        median(&pass_s),
        check::pass_digest(&warm.iter().map(|w| w.digest).collect::<Vec<_>>())
    );
    println!(
        "run_ms_p50 over {} operations; run_ms_tail is p{tail_p} with {} operations beyond it",
        op_ms.len(),
        (op_ms.len() as f64 * (1.0 - tail_p / 100.0)).floor()
    );
    let mut report = Report {
        verdict,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    report.metric("host_s", host_s, "s");
    report.metric("sim_kernels_per_host_s", kernels as f64 / host_s, "1/s");
    report.metric("sim_requests_per_host_s", requests as f64 / host_s, "1/s");
    report.metric("run_ms_p50", median(&op_ms) * scale, "ms");
    report.metric("run_ms_tail", tail_ms * scale, "ms");
    report.metric("setup_s", wall_setup_s * setup_scale, "s");
    report.metric("peak_rss_mb", rss, "MiB");
    report.metric("fid_krisp_i_vs_static_w4_err", fid_thr, "ratio");
    report.metric("fid_energy_w4_err", fid_energy, "ratio");
    report
}

fn traced(args: &Args, scratch: &Path) -> Report {
    let w = args.workload;
    let mut verdict = Verdict::default();
    let mut tr = Tracer::recording();
    let env = tr.span("perfbench.setup", |tr| {
        setup(args, &scratch.join("setup"), tr, &mut verdict)
    });
    let ops = workload::plan(w, args.seed, &env);
    let db = Arc::new(env.perfdb.clone());
    let warm = warm_pass(w, &ops, &env, &mut verdict);

    // Metrics registries of the runs that record into one.
    let registries = Mutex::new(Vec::new());
    let mut with_metrics = || {
        let m = Metrics::recording();
        registries.lock().expect("registry list").push(m.clone());
        Obs {
            bus: EventBus::disabled(),
            metrics: m,
        }
    };

    // Untraced: the timing the overhead ratio divides by. Ratios of
    // host times need no yardstick scaling.
    let mut yard = Yardstick::new();
    let untraced = if w.records_metrics() {
        run_pass(&ops, &env, &mut with_metrics, &mut Tracer::off(), &mut yard)
    } else {
        run_pass(
            &ops,
            &env,
            &mut Obs::disabled,
            &mut Tracer::off(),
            &mut yard,
        )
    };
    let mut failed = check_pass(&ops, &untraced, &warm, &mut verdict);

    // Traced: every run records its events, then its layer calls replay.
    let mut counts = Counts::default();
    let mut traced_ns = 0;
    let mut rng = Rng::new(args.seed ^ 0x7EA_CED);
    tr.span("perfbench.traced_pass", |tr| {
        for (i, op) in ops.iter().enumerate() {
            tr.set_run(i as u32 + 1);
            let (obs, sink) = recording_obs(metrics_obs(w).metrics);
            let (out, ns) = run_one(op, &env, obs, tr);
            traced_ns += ns;
            let outcome = out.as_ref().map_err(Clone::clone).and_then(|out| {
                check::check_digest(
                    &format!("{} (traced)", op.label()),
                    warm[i].digest,
                    check::digest(out),
                )
            });
            if outcome.is_err() {
                failed += 1;
            }
            verdict.note(outcome);
            match op {
                Op::Baseline { model, .. } => {
                    counts.baseline_calls += 1;
                    counts.baseline_models.insert(*model);
                }
                Op::Server { .. } => counts.run_server_calls += 1,
                Op::Cluster { .. } => counts.run_cluster_calls += 1,
            }
            if let Ok(out) = &out {
                counts.add_output(out);
            }
            let own = drain(&sink);
            let device = match op {
                Op::Server { .. } => own.clone(),
                _ => tr.span("perfbench.device_slice", |_| record_device(op, &env).1),
            };
            let rec = Recorded {
                op,
                device: &device,
                own: &own,
                pick: rng.next_u64(),
            };
            tr.span("perfbench.replay", |tr| {
                layers::replay_op(&rec, &env, &db, tr, &mut counts)
            });
        }
    });
    tr.set_run(0);
    if counts.baseline_calls == 0 {
        // The harness layer has no calls on this workload: time one
        // baseline per model it serves.
        let models: BTreeSet<_> = ops.iter().flat_map(Op::models).collect();
        for m in models {
            tr.span("bench.isolated_baseline", |_| {
                krisp_bench::isolated_baseline(m, workload::BATCH, &env.perfdb)
            });
        }
    }

    // Metrics recording vs disabled observability, same runs untraced.
    let (on_ns, off_ns) = if w.records_metrics() {
        let off = run_pass(
            &ops,
            &env,
            &mut Obs::disabled,
            &mut Tracer::off(),
            &mut yard,
        );
        (untraced.ns, off.ns)
    } else {
        let on = run_pass(&ops, &env, &mut with_metrics, &mut Tracer::off(), &mut yard);
        (on.ns, untraced.ns)
    };
    let observations: u64 = registries
        .into_inner()
        .expect("registry list")
        .iter()
        .filter_map(Metrics::snapshot)
        .map(|r| r.histograms().map(|(_, h)| h.count()).sum::<u64>())
        .sum();

    reference_check(&ops, &env, &warm, args.seed, &mut tr, &mut verdict);
    let overhead = traced_ns as f64 / untraced.ns as f64;
    let spans_file = out_dir().join(format!("spans-{}-{}.json", w.name(), args.seed));
    let ledger_file = out_dir().join(format!("ledger-{}-{}.json", w.name(), args.seed));
    let ledger = tr.layer_self_ns();
    let ledger_json: Vec<String> = ledger
        .iter()
        .map(|(layer, ns)| format!("{layer:?}: {{\"self_ms\": {}}}", *ns as f64 / 1e6))
        .collect();
    verdict.note(
        std::fs::write(&spans_file, tr.to_json())
            .and_then(|()| {
                std::fs::write(&ledger_file, format!("{{{}}}\n", ledger_json.join(", ")))
            })
            .map_err(|e| format!("cannot write the span file: {e}")),
    );
    println!(
        "spans: {} ({} spans); ledger: {}",
        spans_file.display(),
        tr.spans().len(),
        ledger_file.display()
    );
    for (layer, ns) in &ledger {
        println!("  {layer:<10} self {:>10.1} ms", *ns as f64 / 1e6);
    }

    let c = &counts;
    let per = |name: &str, n: u64| ratio(tr.total(name).1 as f64, n as f64);
    let mut waits = c.queue_waits_ms.clone();
    waits.sort_by(f64::total_cmp);
    let wait = |p: f64| {
        if waits.is_empty() {
            0.0
        } else {
            percentile(&waits, p)
        }
    };
    let run_ns = (tr.total("server.run_server").1 + tr.total("server.run_cluster").1) as f64;
    let (baseline_calls, baseline_ns) = tr.total("bench.isolated_baseline");
    let mut report = Report {
        verdict,
        attempted: 2 * ops.len() as u64,
        failed,
        metrics: Vec::new(),
    };
    let r = &mut report;
    r.metric("models.tracegen.calls", c.tracegen_calls as f64, "count");
    r.metric(
        "models.tracegen.ns_per_kernel",
        per("models.generate_trace", c.tracegen_kernels),
        "ns",
    );
    r.metric("core.profiler.kernels", c.profiled_kernels as f64, "count");
    r.metric(
        "core.profiler.ns_per_kernel",
        per("core.profile_kernel", c.profiled_kernels),
        "ns",
    );
    r.metric("core.alloc.calls", c.alloc_calls as f64, "count");
    r.metric(
        "core.alloc.ns_per_call",
        per("core.alloc_replay", c.alloc_calls),
        "ns",
    );
    r.metric("sim.engine.kernels", c.engine_kernels as f64, "count");
    r.metric(
        "sim.engine.ns_per_kernel",
        per("sim.engine_replay", c.engine_kernels),
        "ns",
    );
    r.metric(
        "sim.engine.rerates_per_kernel",
        ratio(c.engine_rerates as f64, c.engine_kernels as f64),
        "ratio",
    );
    r.metric("sim.machine.steps", c.machine_steps as f64, "count");
    r.metric(
        "sim.machine.ns_per_step",
        per("sim.machine_replay", c.machine_steps),
        "ns",
    );
    r.metric(
        "sim.machine.barriers_per_kernel",
        ratio(c.recorded_barriers as f64, c.recorded_kernels as f64),
        "ratio",
    );
    r.metric("runtime.launches", c.runtime_launches as f64, "count");
    r.metric(
        "runtime.ns_per_event",
        per("runtime.replay", c.runtime_events),
        "ns",
    );
    r.metric(
        "runtime.reconfigs_per_kernel",
        ratio(c.recorded_reconfigs as f64, c.recorded_kernels as f64),
        "ratio",
    );
    r.metric("runtime.retries", c.recorded_retries as f64, "count");
    r.metric("runtime.timeouts", c.recorded_timeouts as f64, "count");
    r.metric("serve.arrivals", c.arrivals as f64, "count");
    r.metric("serve.admitted", c.admitted as f64, "count");
    r.metric("serve.completed", c.completed as f64, "count");
    r.metric("serve.shed", c.shed as f64, "count");
    r.metric("serve.timed_out", c.timed_out as f64, "count");
    r.metric(
        "serve.admit_ratio",
        ratio(c.admitted as f64, c.arrivals as f64),
        "ratio",
    );
    r.metric(
        "serve.goodput_ratio",
        ratio(c.completed as f64, c.arrivals as f64),
        "ratio",
    );
    r.metric("serve.queue_wait_ms_p50", wait(50.0), "sim_ms");
    r.metric("serve.queue_wait_ms_p99", wait(99.0), "sim_ms");
    r.metric(
        "serve.sentinel.transitions",
        c.sentinel_transitions as f64,
        "count",
    );
    r.metric(
        "serve.queue.ns_per_op",
        per("serve.queue_replay", c.queue_ops),
        "ns",
    );
    r.metric(
        "serve.admission.ns_per_call",
        per("serve.admission_replay", c.admission_calls),
        "ns",
    );
    r.metric(
        "serve.calendar.ns_per_refresh",
        per("serve.calendar_replay", c.calendar_refreshes),
        "ns",
    );
    r.metric(
        "server.run_server.calls",
        c.run_server_calls as f64,
        "count",
    );
    r.metric(
        "server.run_cluster.calls",
        c.run_cluster_calls as f64,
        "count",
    );
    r.metric(
        "server.host_ns_per_request",
        ratio(run_ns, c.requests_resolved as f64),
        "ns",
    );
    r.metric("server.cluster.retried", c.cluster_retried as f64, "count");
    r.metric("server.cluster.hedged", c.cluster_hedged as f64, "count");
    r.metric(
        "server.cluster.hedge_win_ratio",
        ratio(c.cluster_hedge_wins as f64, c.cluster_hedged as f64),
        "ratio",
    );
    r.metric(
        "server.cluster.breaker_trips",
        c.cluster_breaker_trips as f64,
        "count",
    );
    r.metric(
        "server.cluster.max_gpu_share",
        c.cluster_max_gpu_share,
        "ratio",
    );
    r.metric(
        "obs.metrics_over_off",
        ratio(on_ns as f64, off_ns as f64),
        "ratio",
    );
    r.metric("obs.metric_observations", observations as f64, "count");
    r.metric("bench.baseline.calls", c.baseline_calls as f64, "count");
    r.metric(
        "bench.baseline.distinct",
        c.baseline_models.len() as f64,
        "count",
    );
    r.metric(
        "bench.baseline.useful_ratio",
        ratio(c.baseline_models.len() as f64, c.baseline_calls as f64),
        "ratio",
    );
    r.metric(
        "bench.baseline.ms_per_call",
        ratio(baseline_ns as f64 / 1e6, baseline_calls as f64),
        "ms",
    );
    r.metric("trace.spans", tr.spans().len() as f64, "count");
    r.metric("trace.overhead_ratio", overhead, "ratio");
    report
}
