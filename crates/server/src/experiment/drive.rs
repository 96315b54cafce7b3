//! The single-GPU dispatcher: one runtime machine driven through
//! [`krisp_serve_core::engine::drive`].
//!
//! The server schedules its open-loop arrivals as runtime timers (so
//! they interleave with kernel completions under the machine's own
//! deterministic tie-breaks), which makes its [`Dispatcher`] the trivial
//! one: no control events, no external arrivals — just device events
//! stepped until the machine drains.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use krisp::{
    prior_work_partitions, static_equal_masks, InstrumentedAllocator, KrispAllocator, Policy,
};
use krisp_models::{generate_trace, ModelKind, TraceConfig};
use krisp_obs::{CounterHandle, EventKind, GaugeHandle, HistogramHandle, Metrics, Obs};
use krisp_runtime::{PartitionMode, RequiredCusTable, RtEvent, Runtime, RuntimeConfig, StreamId};
use krisp_serve_core::engine::{drive, Dispatcher, ExternalArrival};
use krisp_serve_core::{exp_sample, AdmissionChain, InferenceRequest, Worker};
use krisp_sim::{KernelDesc, MaskAllocator, SimTime};

use super::config::{Arrival, KrispEnforcement, RightSizeSource, ServerConfig};
use super::perfdb::model_right_size;
use super::result;
use crate::metrics::ExperimentResult;

pub(super) const TOKEN_WARM: u64 = 0x7000_0000_0000_0001;
pub(super) const TOKEN_END: u64 = 0x7000_0000_0000_0002;
const TOKEN_ARRIVAL_BASE: u64 = 0x7000_0000_0001_0000;
const TOKEN_START_BASE: u64 = 0x7000_0000_0002_0000;
const TOKEN_BATCH_BASE: u64 = 0x7000_0000_0003_0000;

/// One worker's per-request metric series, resolved once per run.
pub(super) struct WorkerSeries {
    /// `krisp_requests_total{model,worker}`.
    requests: CounterHandle,
    /// `krisp_request_latency_ms{model,worker}`.
    latency_ms: HistogramHandle,
    /// `krisp_sentinel_admission_shed_total{worker}`.
    admission_shed: CounterHandle,
    /// `krisp_requests_shed_total{worker}`.
    queue_shed: CounterHandle,
    /// `krisp_request_queue_depth{worker}`.
    queue_depth: GaugeHandle,
}

impl WorkerSeries {
    fn resolve(metrics: &Metrics, worker: usize, model: ModelKind) -> WorkerSeries {
        let worker = worker.to_string();
        let by_worker = [("worker", worker.as_str())];
        let by_model = [("model", model.name()), ("worker", worker.as_str())];
        WorkerSeries {
            requests: metrics.counter("krisp_requests_total", &by_model),
            latency_ms: metrics.histogram("krisp_request_latency_ms", &by_model),
            admission_shed: metrics.counter("krisp_sentinel_admission_shed_total", &by_worker),
            queue_shed: metrics.counter("krisp_requests_shed_total", &by_worker),
            queue_depth: metrics.gauge("krisp_request_queue_depth", &by_worker),
        }
    }
}

/// All per-run state of the single-GPU server: the runtime machine, its
/// workers, the sentinel admission chain, and the measurement snapshots
/// taken at the warmup and window-end timers.
pub(super) struct ServerEngine<'a> {
    pub(super) config: &'a ServerConfig,
    pub(super) obs: Obs,
    pub(super) rt: Runtime,
    pub(super) workers: Vec<Worker>,
    /// Indexed like `workers`; empty when metrics are off.
    pub(super) series: Vec<WorkerSeries>,
    pub(super) stream_to_worker: HashMap<StreamId, usize>,
    pub(super) chain: AdmissionChain,
    pub(super) deadline_ms: Option<f64>,
    pub(super) arrivals: StdRng,
    pub(super) end: SimTime,
    pub(super) energy_at_warm: f64,
    pub(super) energy_at_end: f64,
    pub(super) busy_at_warm: f64,
    pub(super) busy_at_end: f64,
    pub(super) service_at_warm: f64,
    pub(super) service_at_end: f64,
    pub(super) flow_arrivals: u64,
    pub(super) flow_admitted: u64,
    pub(super) flow_shed_admission: u64,
}

impl Dispatcher for ServerEngine<'_> {
    fn next_control_at(&self) -> Option<SimTime> {
        None
    }

    fn step_control(&mut self) {
        unreachable!("the single-GPU server has no control events");
    }

    fn next_device_at(&self) -> Option<SimTime> {
        self.rt.next_event_at()
    }

    fn step_device(&mut self) -> bool {
        match self.rt.step() {
            Some(ev) => {
                self.handle(ev);
                true
            }
            None => false,
        }
    }

    fn on_arrival(&mut self, _arrival: ExternalArrival) {
        unreachable!("single-GPU arrivals are runtime timers, not external events");
    }
}

impl ServerEngine<'_> {
    /// Handles one runtime event: measurement snapshots, arrival and
    /// batch timers, and kernel completions/failures.
    fn handle(&mut self, ev: RtEvent) {
        let end = self.end;
        let deadline_ms = self.deadline_ms;
        let ServerEngine {
            config,
            obs,
            rt,
            workers,
            series,
            stream_to_worker,
            chain,
            arrivals,
            energy_at_warm,
            energy_at_end,
            busy_at_warm,
            busy_at_end,
            service_at_warm,
            service_at_end,
            flow_arrivals,
            flow_admitted,
            flow_shed_admission,
            ..
        } = self;
        match ev {
            RtEvent::TimerFired {
                token: TOKEN_WARM, ..
            } => {
                *energy_at_warm = rt.energy_joules();
                *busy_at_warm = rt.busy_cu_seconds();
                *service_at_warm = rt.service_cu_seconds();
            }
            RtEvent::TimerFired {
                token: TOKEN_END, ..
            } => {
                *energy_at_end = rt.energy_joules();
                *busy_at_end = rt.busy_cu_seconds();
                *service_at_end = rt.service_cu_seconds();
            }
            RtEvent::TimerFired { token, at } if token >= TOKEN_BATCH_BASE => {
                let wi = (token - TOKEN_BATCH_BASE) as usize;
                if let Arrival::OpenBatched {
                    max_batch,
                    batch_timeout,
                    ..
                } = config.arrival
                {
                    workers[wi].try_form_batch(rt, at, max_batch, batch_timeout);
                }
            }
            RtEvent::TimerFired { token, at } if token >= TOKEN_START_BASE => {
                let wi = (token - TOKEN_START_BASE) as usize;
                workers[wi].start_inference(rt, at);
            }
            RtEvent::TimerFired { token, at } if token >= TOKEN_ARRIVAL_BASE => {
                let wi = (token - TOKEN_ARRIVAL_BASE) as usize;
                match config.arrival {
                    Arrival::ClosedLoop => unreachable!("no arrival timers in closed loop"),
                    Arrival::Poisson { rps_per_worker } => {
                        let (model, batch, id) = {
                            let w = &mut workers[wi];
                            let id = w.next_request_id;
                            w.next_request_id += 1;
                            (w.model, config.batch, id)
                        };
                        *flow_arrivals += 1;
                        // Guardrails 1+2 compose in the admission chain:
                        // Shed-state policy (no token burned on a Shed
                        // rejection), then the token-bucket rate cap.
                        let depth = workers[wi].queue.len();
                        if !chain.admit(wi, at, depth, workers[wi].busy) {
                            *flow_shed_admission += 1;
                            let depth = workers[wi].queue.len() as u32;
                            workers[wi]
                                .bus
                                .emit(at.as_nanos(), || EventKind::RequestShed {
                                    request_id: id,
                                    depth,
                                });
                            if let Some(s) = series.get(wi) {
                                s.admission_shed.inc(1);
                            }
                            if at < end {
                                let gap = exp_sample(arrivals, rps_per_worker);
                                rt.add_timer(gap, token);
                            }
                            return;
                        }
                        let accepted = workers[wi]
                            .queue
                            .push(InferenceRequest {
                                id,
                                model,
                                batch,
                                enqueued_at: at,
                            })
                            .is_ok();
                        if accepted {
                            *flow_admitted += 1;
                            workers[wi]
                                .bus
                                .emit(at.as_nanos(), || EventKind::RequestEnqueued {
                                    request_id: id,
                                });
                            if !workers[wi].busy {
                                if let Some(req) = workers[wi].pop_runnable(at, config.deadline) {
                                    workers[wi].start_inference(rt, req.enqueued_at);
                                }
                            }
                        } else {
                            let depth = workers[wi].queue.len() as u32;
                            workers[wi]
                                .bus
                                .emit(at.as_nanos(), || EventKind::RequestShed {
                                    request_id: id,
                                    depth,
                                });
                            if let Some(s) = series.get(wi) {
                                s.queue_shed.inc(1);
                            }
                        }
                        if let Some(s) = series.get(wi) {
                            s.queue_depth.set(workers[wi].queue.len() as f64);
                        }
                        if at < end {
                            let gap = exp_sample(arrivals, rps_per_worker);
                            rt.add_timer(gap, token);
                        }
                    }
                    Arrival::OpenBatched {
                        samples_per_s,
                        max_batch,
                        batch_timeout,
                    } => {
                        let sample_id = workers[wi].next_request_id;
                        workers[wi].next_request_id += 1;
                        *flow_arrivals += 1;
                        *flow_admitted += 1;
                        workers[wi].sample_queue.push_back(at);
                        workers[wi]
                            .bus
                            .emit(at.as_nanos(), || EventKind::RequestEnqueued {
                                request_id: sample_id,
                            });
                        workers[wi].try_form_batch(rt, at, max_batch, batch_timeout);
                        if !workers[wi].sample_queue.is_empty() {
                            // Guarantee eventual formation even if no more
                            // samples arrive (stale timers are harmless).
                            rt.add_timer(batch_timeout, TOKEN_BATCH_BASE + wi as u64);
                        }
                        if at < end {
                            let gap = exp_sample(arrivals, samples_per_s);
                            rt.add_timer(gap, token);
                        }
                    }
                }
            }
            RtEvent::KernelCompleted { stream, tag, at } => {
                let wi = stream_to_worker[&stream];
                if workers[wi].busy && tag + 1 == workers[wi].inflight_kernels as u64 {
                    let w = &mut workers[wi];
                    for start in std::mem::take(&mut w.inflight_starts) {
                        let latency_ms = at.saturating_since(start).as_millis_f64();
                        let request_id = w.records.len() as u64;
                        w.bus.emit(at.as_nanos(), || EventKind::RequestDone {
                            request_id,
                            start_ns: start.as_nanos(),
                        });
                        if let Some(s) = series.get(wi) {
                            s.requests.inc(1);
                            s.latency_ms.observe(latency_ms);
                        }
                        w.records.push((at, latency_ms));
                        // Feed the brownout controller one headroom sample
                        // per completion; a transition re-sizes the whole
                        // runtime's masks (Normal → exact right-sizing,
                        // Brownout → widened, Shed → full device).
                        if let (Some(ctl), Some(dl)) = (chain.brownout.as_mut(), deadline_ms) {
                            if let Some((from, to)) = ctl.observe(latency_ms / dl) {
                                let p95_pct = (ctl.p95_ratio() * 100.0) as u32;
                                rt.set_mask_widening(ctl.widening());
                                w.bus.emit(at.as_nanos(), || EventKind::SentinelTransition {
                                    from: from.code(),
                                    to: to.code(),
                                    p95_pct,
                                });
                                obs.metrics.inc("krisp_sentinel_transitions_total", &[], 1);
                                obs.metrics.set_gauge(
                                    "krisp_sentinel_state",
                                    &[],
                                    f64::from(to.code()),
                                );
                            }
                        }
                    }
                    w.busy = false;
                    match config.arrival {
                        Arrival::ClosedLoop => {
                            if at < end {
                                w.start_inference(rt, at);
                            }
                        }
                        Arrival::Poisson { .. } => {
                            if let Some(req) = w.pop_runnable(at, config.deadline) {
                                w.start_inference(rt, req.enqueued_at);
                            }
                        }
                        Arrival::OpenBatched {
                            max_batch,
                            batch_timeout,
                            ..
                        } => {
                            w.try_form_batch(rt, at, max_batch, batch_timeout);
                        }
                    }
                }
            }
            RtEvent::KernelFailed {
                stream, tag, at, ..
            } => {
                // The watchdog abandoned this kernel after exhausting its
                // retries. Later kernels of the request still drain (the
                // queue was released), so only a *final* kernel's failure
                // loses the request — the worker then moves on instead of
                // waiting forever for a completion that cannot come.
                let wi = stream_to_worker[&stream];
                let w = &mut workers[wi];
                w.failed_kernels += 1;
                if w.busy && tag + 1 == w.inflight_kernels as u64 {
                    w.failed_requests += w.inflight_starts.len() as u64;
                    w.inflight_starts.clear();
                    w.busy = false;
                    match config.arrival {
                        Arrival::ClosedLoop => {
                            if at < end {
                                w.start_inference(rt, at);
                            }
                        }
                        Arrival::Poisson { .. } => {
                            if let Some(req) = w.pop_runnable(at, config.deadline) {
                                w.start_inference(rt, req.enqueued_at);
                            }
                        }
                        Arrival::OpenBatched {
                            max_batch,
                            batch_timeout,
                            ..
                        } => {
                            w.try_form_batch(rt, at, max_batch, batch_timeout);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Runs one experiment and reports window-filtered metrics.
///
/// `perfdb` supplies the kernel right-sizes for the KRISP policies
/// (either a measured table from [`krisp::Profiler::build_perfdb`] or
/// [`super::oracle_perfdb`]).
///
/// # Panics
///
/// Panics if `config.models` is empty or `config.batch` is zero.
pub fn run_server(config: &ServerConfig, perfdb: &RequiredCusTable) -> ExperimentResult {
    run_server_observed(config, perfdb, Obs::disabled())
}

/// [`run_server`] with observability: request/batch lifecycle events land
/// on `obs.bus` (one logical track per worker), the machine's kernel and
/// mask events ride the same bus, and the metrics registry accumulates
/// request-latency histograms, queue-depth gauges and the
/// `krisp_mask_generation_ns` histogram (via [`InstrumentedAllocator`]
/// around the policy's allocator).
///
/// Passing [`Obs::disabled`] makes this identical to [`run_server`].
///
/// # Panics
///
/// Panics if `config.models` is empty or `config.batch` is zero.
pub fn run_server_observed(
    config: &ServerConfig,
    perfdb: &RequiredCusTable,
    obs: Obs,
) -> ExperimentResult {
    assert!(!config.models.is_empty(), "need at least one worker");
    assert!(config.batch > 0, "batch size must be positive");
    let topo = config.topology;
    let (warmup, duration) = config.windows();
    let end = SimTime::ZERO + warmup + duration;

    // --- Runtime under the requested policy ---------------------------
    let mode = if config.policy.is_kernel_scoped() {
        match config.enforcement {
            KrispEnforcement::Native => PartitionMode::KernelScopedNative,
            KrispEnforcement::Emulated(costs) => PartitionMode::KernelScopedEmulated(costs),
        }
    } else {
        PartitionMode::StreamMasking
    };
    let limit = config
        .overlap_limit
        .or_else(|| config.policy.overlap_limit(&topo))
        .unwrap_or(topo.total_cus());
    // The ModelWise ablation rewrites the table so every kernel requests
    // its model's kneepoint (prior works' metric on KRISP's mechanism).
    let trace_cfg = TraceConfig {
        floor_scale: config.floor_scale,
        ..TraceConfig::with_batch(config.batch)
    };
    let effective_db: Arc<RequiredCusTable> = match config.right_size_source {
        RightSizeSource::KernelWise => Arc::new(perfdb.clone()),
        RightSizeSource::ModelWise => {
            let mut db = RequiredCusTable::new();
            let mut sorted_models = config.models.clone();
            sorted_models.sort();
            sorted_models.dedup();
            for &m in &sorted_models {
                let rs = model_right_size(m, config.batch, &topo);
                for k in generate_trace(m, &trace_cfg) {
                    db.insert(&k, rs);
                }
            }
            Arc::new(db)
        }
    };
    let krisp_alloc = KrispAllocator::new(limit).with_distribution(config.allocator_distribution);
    let allocator: Box<dyn MaskAllocator> = if obs.metrics.enabled() {
        Box::new(InstrumentedAllocator::new(krisp_alloc, obs.metrics.clone()))
    } else {
        Box::new(krisp_alloc)
    };
    let mut rt = Runtime::new(RuntimeConfig {
        topology: topo,
        costs: config.costs,
        mode,
        allocator,
        perfdb: effective_db,
        seed: config.seed,
        jitter_sigma: config.jitter_sigma,
        sharing_penalty: config.sharing_penalty,
        obs: obs.clone(),
        faults: Arc::new(config.faults.clone()),
        watchdog: config.watchdog,
        retry_budget: config.sentinel.as_ref().and_then(|s| s.retry_budget),
        ..RuntimeConfig::default()
    });

    // --- Sentinel guardrails ------------------------------------------
    let chain = AdmissionChain::new(config.sentinel.as_ref(), config.models.len());
    let codel_cfg = config.sentinel.as_ref().and_then(|s| s.codel);
    let deadline_ms = config.deadline.map(|d| d.as_millis_f64());

    // --- Workers and their stream masks -------------------------------
    // Same-model workers share one kernel trace through an Arc instead
    // of carrying per-worker copies.
    let mut trace_cache: HashMap<ModelKind, Arc<Vec<KernelDesc>>> = HashMap::new();
    let mut workers: Vec<Worker> = config
        .models
        .iter()
        .enumerate()
        .map(|(i, &model)| {
            let trace = Arc::clone(
                trace_cache
                    .entry(model)
                    .or_insert_with(|| Arc::new(generate_trace(model, &trace_cfg))),
            );
            let queue = {
                let q = config.queue_capacity.map_or_else(
                    krisp_serve_core::RequestQueue::new,
                    krisp_serve_core::RequestQueue::bounded,
                );
                match codel_cfg {
                    Some(c) => q.with_codel(c),
                    None => q,
                }
            };
            Worker::new(
                rt.create_stream(),
                model,
                trace,
                trace_cfg.launch_overhead,
                queue,
                obs.bus.for_worker(i as u32),
            )
        })
        .collect();
    let series = if obs.metrics.enabled() {
        workers
            .iter()
            .enumerate()
            .map(|(i, w)| WorkerSeries::resolve(&obs.metrics, i, w.model))
            .collect()
    } else {
        Vec::new()
    };
    let masks = match config.policy {
        Policy::MpsDefault | Policy::KrispO | Policy::KrispI => None,
        Policy::StaticEqual => Some(static_equal_masks(workers.len(), &topo)),
        Policy::ModelRightSize => {
            let sizes: Vec<u16> = config
                .models
                .iter()
                .map(|&m| model_right_size(m, config.batch, &topo))
                .collect();
            Some(prior_work_partitions(&sizes, &topo))
        }
    };
    // A rejected mask degrades that worker to the full device instead of
    // killing the run; the error is recorded in the result's books.
    let mut setup_errors: Vec<String> = Vec::new();
    if let Some(masks) = masks {
        for (w, mask) in workers.iter().zip(masks) {
            if let Err(e) = rt.set_stream_mask(w.stream, mask) {
                setup_errors.push(e.to_string());
            }
        }
    }
    if let Some(n) = config.cu_restriction {
        let mask = krisp::select_cus(krisp::DistributionPolicy::Conserved, n, &topo);
        for w in &workers {
            if let Err(e) = rt.set_stream_mask(w.stream, mask) {
                setup_errors.push(e.to_string());
            }
        }
    }
    let stream_to_worker: HashMap<StreamId, usize> = workers
        .iter()
        .enumerate()
        .map(|(i, w)| (w.stream, i))
        .collect();

    // --- Arrival process ----------------------------------------------
    let mut arrivals = StdRng::seed_from_u64(config.seed ^ 0xA77A_1BAD);
    match config.arrival {
        Arrival::ClosedLoop => {
            // Stagger worker start times across roughly one isolated
            // latency: co-located request streams are not phase-locked in
            // a real server, and synchronized identical traces would make
            // every worker hit its CU-hungry phases simultaneously,
            // hiding the fine-grain slack kernel-wise right-sizing
            // exploits. The warmup window absorbs the transient.
            for (i, w) in workers.iter_mut().enumerate() {
                if i == 0 {
                    w.start_inference(&mut rt, SimTime::ZERO);
                } else {
                    let offset = warmup * i as u64 / (2 * config.models.len() as u64);
                    rt.add_timer(offset, TOKEN_START_BASE + i as u64);
                }
            }
        }
        Arrival::Poisson { rps_per_worker } => {
            assert!(
                rps_per_worker > 0.0,
                "Poisson arrivals need a positive rate"
            );
            for (i, _) in workers.iter().enumerate() {
                let gap = exp_sample(&mut arrivals, rps_per_worker);
                rt.add_timer(gap, TOKEN_ARRIVAL_BASE + i as u64);
            }
        }
        Arrival::OpenBatched {
            samples_per_s,
            max_batch,
            ..
        } => {
            assert!(samples_per_s > 0.0, "need a positive sample rate");
            assert!(max_batch >= 1, "need a positive max batch");
            for (i, _) in workers.iter().enumerate() {
                let gap = exp_sample(&mut arrivals, samples_per_s);
                rt.add_timer(gap, TOKEN_ARRIVAL_BASE + i as u64);
            }
        }
    }

    rt.add_timer(warmup, TOKEN_WARM);
    rt.add_timer(warmup + duration, TOKEN_END);

    // --- Event loop ----------------------------------------------------
    // All arrivals ride runtime timers, so the shared loop sees only
    // device events: no control source, no external arrival stream.
    let mut engine = ServerEngine {
        config,
        obs,
        rt,
        workers,
        series,
        stream_to_worker,
        chain,
        deadline_ms,
        arrivals,
        end,
        energy_at_warm: 0.0,
        energy_at_end: f64::NAN,
        busy_at_warm: 0.0,
        busy_at_end: f64::NAN,
        service_at_warm: 0.0,
        service_at_end: f64::NAN,
        flow_arrivals: 0,
        flow_admitted: 0,
        flow_shed_admission: 0,
    };
    drive(&mut engine, Vec::new());

    result::finish(engine, warmup, duration, setup_errors)
}
