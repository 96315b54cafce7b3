//! Layer replays for the traced run.
//!
//! After each operation of the traced pass, the calls it made into the
//! lower layers are replayed from its recorded obs events, each batch of
//! calls inside a span named after its layer: trace generation, kernel
//! profiling, Algorithm 1 allocation, the contention engine, the
//! command-processor machine, the runtime, and the serve-core queue,
//! admission chain and event calendar. The spans give each layer's host
//! time; the counts gathered here give the work it did.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::sync::Arc;

use krisp::{KrispAllocator, Profiler};
use krisp_models::{generate_trace, ModelKind, TraceConfig};
use krisp_obs::{Event, EventKind};
use krisp_runtime::{PartitionMode, RequiredCusTable, Runtime, RuntimeConfig};
use krisp_serve_core::{AdmissionChain, EventCalendar, InferenceRequest, RequestQueue};
use krisp_server::{KrispEnforcement, ServerConfig};
use krisp_sim::{
    CuKernelCounters, CuMask, FullMaskAllocator, Machine, MachineConfig, MaskAllocator,
    SimDuration, SimTime,
};

use crate::reference::{self, Dispatch};
use crate::trace::Tracer;
use crate::workload::{Env, Op, Output, BATCH};

/// Kernels of a recorded stream the device-level replays run.
const REPLAY_KERNELS: usize = 3000;
/// Distinct kernels profiled per operation.
const PROFILED_PER_OP: usize = 2;

/// Work counts gathered across the traced run.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub tracegen_calls: u64,
    pub tracegen_kernels: u64,
    pub profiled_kernels: u64,
    pub alloc_calls: u64,
    pub engine_kernels: u64,
    pub engine_rerates: u64,
    pub machine_steps: u64,
    pub runtime_launches: u64,
    pub runtime_events: u64,
    pub recorded_kernels: u64,
    pub recorded_barriers: u64,
    pub recorded_reconfigs: u64,
    pub recorded_retries: u64,
    pub recorded_timeouts: u64,
    pub queue_ops: u64,
    pub queue_waits_ms: Vec<f64>,
    pub admission_calls: u64,
    pub calendar_refreshes: u64,
    pub arrivals: u64,
    pub admitted: u64,
    pub completed: u64,
    pub shed: u64,
    pub timed_out: u64,
    pub sentinel_transitions: u64,
    pub run_server_calls: u64,
    pub run_cluster_calls: u64,
    pub requests_resolved: u64,
    pub cluster_retried: u64,
    pub cluster_hedged: u64,
    pub cluster_hedge_wins: u64,
    pub cluster_breaker_trips: u64,
    pub cluster_max_gpu_share: f64,
    pub baseline_calls: u64,
    pub baseline_models: BTreeSet<ModelKind>,
}

impl Counts {
    /// Books one operation's own result.
    pub fn add_output(&mut self, out: &Output) {
        match out {
            Output::Baseline(_) => {}
            Output::Server(r) => {
                let f = r.flow.clone().unwrap_or_default();
                self.arrivals += f.arrivals;
                self.admitted += f.admitted;
                self.completed += f.completed;
                self.shed += f.shed_admission + f.shed_capacity + f.shed_codel;
                self.timed_out += f.timed_out;
                self.sentinel_transitions += r.sentinel.as_ref().map_or(0, |s| s.transitions);
            }
            Output::Cluster(r) => {
                let rob = &r.robustness;
                self.arrivals += r.arrivals;
                self.admitted += r.arrivals - rob.shed;
                self.completed += r.completed as u64 + r.drained;
                self.shed += rob.shed;
                self.timed_out += rob.timed_out;
                self.cluster_retried += rob.retried;
                self.cluster_hedged += rob.hedged;
                self.cluster_hedge_wins += rob.hedge_wins;
                self.cluster_breaker_trips += u64::from(rob.breaker_trips);
                let top = r.per_gpu.iter().copied().max().unwrap_or(0);
                if r.completed > 0 {
                    let share = top as f64 / r.completed as f64;
                    self.cluster_max_gpu_share = self.cluster_max_gpu_share.max(share);
                }
            }
        }
        self.requests_resolved += out.requests_resolved().unwrap_or(0);
    }
}

fn at(ns: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(ns)
}

fn partition_mode(cfg: &ServerConfig) -> PartitionMode {
    if !cfg.policy.is_kernel_scoped() {
        return PartitionMode::StreamMasking;
    }
    match cfg.enforcement {
        KrispEnforcement::Native => PartitionMode::KernelScopedNative,
        KrispEnforcement::Emulated(c) => PartitionMode::KernelScopedEmulated(c),
    }
}

fn krisp_allocator(cfg: &ServerConfig) -> KrispAllocator {
    let topo = cfg.topology;
    let limit = cfg
        .overlap_limit
        .or_else(|| cfg.policy.overlap_limit(&topo))
        .unwrap_or(topo.total_cus());
    KrispAllocator::new(limit).with_distribution(cfg.allocator_distribution)
}

/// Everything the replays of one operation read.
pub struct Recorded<'a> {
    /// The operation.
    pub op: &'a Op,
    /// Events of a single-GPU run standing for it (its own events for a
    /// server run; see [`Op::device_config`] otherwise).
    pub device: &'a [Event],
    /// Events the operation itself emitted (per-GPU tracks for a
    /// cluster).
    pub own: &'a [Event],
    /// Pick for the replay window.
    pub pick: u64,
}

/// Replays one operation's layer calls under `tr`, adding to `counts`.
pub fn replay_op(
    rec: &Recorded<'_>,
    env: &Env,
    db: &Arc<RequiredCusTable>,
    tr: &mut Tracer,
    counts: &mut Counts,
) {
    let cfg = rec.op.device_config();
    let stream = reference::kernel_stream(rec.device, &cfg.models, &env.traces);
    let window = reference::sample(&stream, REPLAY_KERNELS, rec.pick);

    tracegen(&cfg.models, tr, counts);
    profile(window, &cfg.models, env, tr, counts);
    if cfg.policy.is_kernel_scoped() {
        allocate(rec.device, &cfg, env, tr, counts);
    }
    tr.span("sim.engine_replay", |_| {
        let stats = reference::replay(window, cfg.sharing_penalty, false)
            .expect("an unchecked replay cannot disagree");
        counts.engine_kernels += stats.kernels;
        counts.engine_rerates += stats.rerates;
    });
    machine(window, &cfg, env, tr, counts);
    runtime(window, &cfg, env, db, tr, counts);
    for e in rec.device {
        match e.kind {
            EventKind::KernelComplete { .. } => counts.recorded_kernels += 1,
            EventKind::BarrierDrain { .. } => counts.recorded_barriers += 1,
            EventKind::ReconfigEnd { .. } => counts.recorded_reconfigs += 1,
            EventKind::KernelRetry { .. } => counts.recorded_retries += 1,
            EventKind::KernelTimeout { .. } => counts.recorded_timeouts += 1,
            _ => {}
        }
    }
    queue_and_admission(rec.device, &cfg, tr, counts);
    let devices = match rec.op {
        Op::Cluster { cfg, .. } => cfg.gpus,
        _ => 1,
    };
    calendar(rec.own, devices, tr, counts);
}

fn tracegen(models: &[ModelKind], tr: &mut Tracer, counts: &mut Counts) {
    let distinct: BTreeSet<ModelKind> = models.iter().copied().collect();
    for m in distinct {
        let trace = tr.span("models.generate_trace", |_| {
            black_box(generate_trace(
                black_box(m),
                &TraceConfig::with_batch(BATCH),
            ))
        });
        counts.tracegen_calls += 1;
        counts.tracegen_kernels += trace.len() as u64;
    }
}

fn profile(
    window: &[Dispatch],
    models: &[ModelKind],
    env: &Env,
    tr: &mut Tracer,
    counts: &mut Counts,
) {
    let profiler = Profiler::default();
    let mut seen = BTreeSet::new();
    for d in window {
        if seen.len() == PROFILED_PER_OP {
            break;
        }
        let k = &env.traces[&models[d.queue as usize]][d.tag as usize];
        if seen.insert(k.profile_key()) {
            tr.span("core.profile_kernel", |_| {
                black_box(profiler.profile_kernel(k))
            });
            counts.profiled_kernels += 1;
        }
    }
}

/// Replays Algorithm 1 for every recorded mask grant, with the device
/// load the run saw. Under emulated enforcement the packet carries no
/// size, so the request is the perfdb's size for the kernel, as the
/// runtime looks it up.
fn allocate(events: &[Event], cfg: &ServerConfig, env: &Env, tr: &mut Tracer, counts: &mut Counts) {
    let topo = cfg.topology;
    let mut alloc = krisp_allocator(cfg);
    let requested = |queue: u32, tag: u64, carried: u16| {
        if carried > 0 {
            return Some(carried);
        }
        let k = env
            .traces
            .get(cfg.models.get(queue as usize)?)?
            .get(tag as usize)?;
        env.perfdb.lookup(k)
    };
    tr.span("core.alloc_replay", |_| {
        let mut counters = CuKernelCounters::new(topo);
        let mut live: HashMap<(u32, u64), CuMask> = HashMap::new();
        for e in events {
            match e.kind {
                EventKind::MaskApplied {
                    queue,
                    tag,
                    mask,
                    required_cus,
                    ..
                } => {
                    let Some(required) = requested(queue, tag, required_cus) else {
                        continue;
                    };
                    black_box(alloc.allocate(required, &counters, &topo));
                    counts.alloc_calls += 1;
                    let mask = CuMask::from_raw_words(mask);
                    counters.assign(&mask);
                    if let Some(old) = live.insert((queue, tag), mask) {
                        counters.release(&old);
                    }
                }
                EventKind::KernelComplete { queue, tag, .. } => {
                    if let Some(mask) = live.remove(&(queue, tag)) {
                        counters.release(&mask);
                    }
                }
                _ => {}
            }
        }
    });
}

fn machine(
    window: &[Dispatch],
    cfg: &ServerConfig,
    env: &Env,
    tr: &mut Tracer,
    counts: &mut Counts,
) {
    let mut m = Machine::new(MachineConfig {
        topology: cfg.topology,
        seed: cfg.seed,
        sharing_penalty: cfg.sharing_penalty,
        ..MachineConfig::default()
    });
    let queues: Vec<_> = cfg.models.iter().map(|_| m.create_queue()).collect();
    for d in window {
        let k = env.traces[&cfg.models[d.queue as usize]][d.tag as usize].clone();
        m.push_dispatch(queues[d.queue as usize], k, d.tag);
    }
    tr.span("sim.machine_replay", |_| {
        while m.step().is_some() {
            counts.machine_steps += 1;
        }
    });
}

fn runtime(
    window: &[Dispatch],
    cfg: &ServerConfig,
    env: &Env,
    db: &Arc<RequiredCusTable>,
    tr: &mut Tracer,
    counts: &mut Counts,
) {
    let allocator: Box<dyn MaskAllocator> = if cfg.policy.is_kernel_scoped() {
        Box::new(krisp_allocator(cfg))
    } else {
        Box::new(FullMaskAllocator)
    };
    let mut rt = Runtime::new(RuntimeConfig {
        topology: cfg.topology,
        costs: cfg.costs,
        mode: partition_mode(cfg),
        allocator,
        perfdb: Arc::clone(db),
        seed: cfg.seed,
        jitter_sigma: cfg.jitter_sigma,
        sharing_penalty: cfg.sharing_penalty,
        ..RuntimeConfig::default()
    });
    let streams: Vec<_> = cfg.models.iter().map(|_| rt.create_stream()).collect();
    tr.span("runtime.replay", |_| {
        for d in window {
            let k = env.traces[&cfg.models[d.queue as usize]][d.tag as usize].clone();
            rt.launch(streams[d.queue as usize], k, d.tag);
            counts.runtime_launches += 1;
        }
        while rt.step().is_some() {
            counts.runtime_events += 1;
        }
    });
}

/// Replays the request stream through a serve-core queue and admission
/// chain per worker: arrivals are pushed when they were enqueued (for a
/// closed loop, when the request started), and the head is popped when
/// the worker dispatched a request's first kernel.
fn queue_and_admission(events: &[Event], cfg: &ServerConfig, tr: &mut Tracer, counts: &mut Counts) {
    let workers = cfg.models.len();
    let mut arrivals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); workers];
    let mut starts: Vec<Vec<u64>> = vec![Vec::new(); workers];
    let mut closed_loop_starts: Vec<Vec<(u64, u64)>> = vec![Vec::new(); workers];
    for e in events {
        let w = e.worker as usize;
        match e.kind {
            EventKind::RequestEnqueued { request_id } if w < workers => {
                arrivals[w].push((e.ts_ns, request_id));
            }
            EventKind::RequestDone {
                request_id,
                start_ns,
            } if w < workers => closed_loop_starts[w].push((start_ns, request_id)),
            EventKind::KernelDispatch { queue, tag: 0, .. } if (queue as usize) < workers => {
                starts[queue as usize].push(e.ts_ns);
            }
            _ => {}
        }
    }
    for (w, a) in arrivals.iter_mut().enumerate() {
        if a.is_empty() {
            *a = std::mem::take(&mut closed_loop_starts[w]);
            a.sort_unstable();
        }
    }
    let mut chain = AdmissionChain::new(cfg.sentinel.as_ref(), workers);
    tr.span("serve.admission_replay", |_| {
        for (w, a) in arrivals.iter().enumerate() {
            for &(ts, _) in a {
                black_box(chain.admit(w, at(ts), 0, true));
                counts.admission_calls += 1;
            }
        }
    });
    let codel = cfg.sentinel.as_ref().and_then(|s| s.codel);
    tr.span("serve.queue_replay", |_| {
        for w in 0..workers {
            let mut q = match cfg.queue_capacity {
                Some(c) => RequestQueue::bounded(c),
                None => RequestQueue::new(),
            };
            if let Some(c) = codel {
                q = q.with_codel(c);
            }
            let mut next = 0;
            for &start in &starts[w] {
                while let Some(&(ts, id)) = arrivals[w].get(next).filter(|(ts, _)| *ts <= start) {
                    let _ = q.push(InferenceRequest {
                        id,
                        model: cfg.models[w],
                        batch: cfg.batch,
                        enqueued_at: at(ts),
                    });
                    counts.queue_ops += 1;
                    next += 1;
                }
                let (_, served) = q.pop_at(at(start));
                counts.queue_ops += 1;
                if let Some(req) = served {
                    let wait = at(start).saturating_since(req.enqueued_at);
                    counts.queue_waits_ms.push(wait.as_millis_f64());
                }
            }
        }
    });
}

/// Drives an event calendar over `devices` slots with each device's
/// recorded event instants, as a multi-device dispatcher would.
fn calendar(events: &[Event], devices: usize, tr: &mut Tracer, counts: &mut Counts) {
    let mut per_device: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for e in events {
        per_device
            .entry(e.worker as usize % devices)
            .or_default()
            .push(e.ts_ns);
    }
    let times: Vec<Vec<u64>> = (0..devices)
        .map(|d| {
            let mut t = per_device.remove(&d).unwrap_or_default();
            t.sort_unstable();
            t
        })
        .collect();
    tr.span("serve.calendar_replay", |_| {
        let mut cursor = vec![0usize; devices];
        let mut cal = EventCalendar::new(devices);
        loop {
            cal.refresh(|i| times[i].get(cursor[i]).map(|&ns| at(ns)));
            counts.calendar_refreshes += 1;
            let Some((_, i)) = cal.earliest() else { break };
            cursor[i] += 1;
            cal.invalidate(i);
        }
    });
}
