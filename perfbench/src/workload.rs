//! The three seeded workloads, their set-up, and how one operation runs.
//!
//! The seed decides everything the program is asked to do: each run's
//! config seed, which cells are drawn and in which order, the mixed
//! pairs, the knob values, the offered loads and the fault times. The
//! program only ever receives the generated configs.

use std::collections::BTreeMap;
use std::path::Path;

use krisp::{DistributionPolicy, Policy};
use krisp_bench::Baseline;
use krisp_models::{generate_trace, ModelKind, TraceConfig};
use krisp_obs::Obs;
use krisp_runtime::{EmulationCosts, RequiredCusTable, WatchdogConfig};
use krisp_server::{
    oracle_perfdb, run_cluster_observed, run_server, run_server_observed, Arrival, BreakerConfig,
    ClusterConfig, ClusterResult, CrashScript, ExperimentResult, HedgeConfig, KrispEnforcement,
    SentinelConfig, ServerConfig,
};
use krisp_sim::{CuMask, FaultPlan, GpuTopology, KernelDesc, SeId, SimDuration, SimTime};

use crate::trace::Tracer;

/// Batch size of every run (the paper's main evaluation batch).
pub const BATCH: u32 = 32;

/// Paper anchor: KRISP-I throughput over static-equal at 4 workers
/// (geomean over the eight models, §VI Fig 13a).
pub const PAPER_KRISP_I_VS_STATIC_W4: f64 = 1.22;
/// Paper anchor: KRISP-I energy per inference relative to isolated at
/// 4 workers (Fig 13c).
pub const PAPER_ENERGY_W4: f64 = 0.67;

/// SplitMix64: a small, fully specified generator, so a seed means the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One element of `items`, chosen uniformly.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop co-location sweep at maximum load (the paper's
    /// regime: Figs 13/15/16 and the ablations).
    ColocateSweep,
    /// Open-loop overload of four workers under emulated KRISP-I with
    /// every guardrail and the metrics registry on.
    OverloadEmulated,
    /// Eight-GPU cluster with a CU loss, a crash, hedging and a breaker.
    ClusterFailover,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ColocateSweep,
        Workload::OverloadEmulated,
        Workload::ClusterFailover,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColocateSweep => "colocate_sweep",
            Workload::OverloadEmulated => "overload_emulated",
            Workload::ClusterFailover => "cluster_failover",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether server runs record into a metrics registry, as
    /// `krisp-serve --metrics-out` does.
    pub fn records_metrics(self) -> bool {
        self == Workload::OverloadEmulated
    }

    /// Timed passes in a run of `seconds`: the run length over one
    /// pass's host time on a 2-core x86 container, at least two. The
    /// count depends on nothing measured, so every run of a workload
    /// times the same passes and its percentiles cover the same
    /// operations, on any commit.
    pub fn passes(self, seconds: u64) -> usize {
        let pass_s = match self {
            Workload::ColocateSweep => 6.5,
            Workload::OverloadEmulated | Workload::ClusterFailover => 2.0,
        };
        ((seconds as f64 / pass_s).round() as usize).max(2)
    }
}

/// One simulated run.
#[derive(Debug, Clone)]
pub enum Op {
    /// `krisp_bench::isolated_baseline` for one model.
    Baseline {
        /// Stable name of the cell.
        label: String,
        /// The model.
        model: ModelKind,
    },
    /// One `run_server` call.
    Server {
        /// Stable name of the cell.
        label: String,
        /// The generated config.
        cfg: ServerConfig,
    },
    /// One `run_cluster` call.
    Cluster {
        /// Stable name of the cell.
        label: String,
        /// The generated config.
        cfg: ClusterConfig,
    },
}

impl Op {
    /// The cell's stable name.
    pub fn label(&self) -> &str {
        match self {
            Op::Baseline { label, .. } | Op::Server { label, .. } | Op::Cluster { label, .. } => {
                label
            }
        }
    }

    /// The models the run serves, one per worker.
    pub fn models(&self) -> Vec<ModelKind> {
        match self {
            Op::Baseline { model, .. } => vec![*model],
            Op::Server { cfg, .. } => cfg.models.clone(),
            Op::Cluster { cfg, .. } => cfg.models.clone(),
        }
    }

    /// The single-GPU config whose kernel/mask stream stands for this
    /// run in the layer and reference replays. A cluster's GPUs emit no
    /// kernel events, so one GPU of it is approximated by a server with
    /// the same models, policy, watchdog and per-GPU arrival rate.
    pub fn device_config(&self) -> ServerConfig {
        match self {
            Op::Baseline { model, .. } => {
                ServerConfig::closed_loop(Policy::MpsDefault, vec![*model], BATCH)
            }
            Op::Server { cfg, .. } => cfg.clone(),
            Op::Cluster { cfg, .. } => {
                let mut s = ServerConfig::closed_loop(cfg.policy, cfg.models.clone(), cfg.batch);
                s.arrival = Arrival::Poisson {
                    rps_per_worker: cfg.rps_per_model / cfg.gpus as f64,
                };
                s.seed = cfg.seed;
                s.warmup = Some(SimDuration::from_millis(20));
                s.duration = Some(cfg.horizon);
                s.watchdog = cfg.watchdog;
                s.queue_capacity = cfg.queue_capacity;
                s.deadline = cfg.deadline;
                s.faults = cfg
                    .faults
                    .first()
                    .map(|(_, p)| p.clone())
                    .unwrap_or_default();
                s
            }
        }
    }
}

/// What one operation produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// An isolated baseline.
    Baseline(Baseline),
    /// A single-GPU server result.
    Server(ExperimentResult),
    /// A cluster result.
    Cluster(ClusterResult),
}

impl Output {
    /// The serialized result; its bytes carry every f64's bits, since
    /// the JSON writer prints shortest round-trip floats.
    pub fn serialized(&self) -> String {
        let s = match self {
            Output::Baseline(b) => serde_json::to_string(b),
            Output::Server(r) => serde_json::to_string(r),
            Output::Cluster(r) => serde_json::to_string(r),
        };
        s.expect("results serialize")
    }

    /// Requests the run resolved: completed, shed, timed out or failed.
    /// `None` for a baseline, whose result keeps no request count.
    pub fn requests_resolved(&self) -> Option<u64> {
        match self {
            Output::Baseline(_) => None,
            Output::Server(r) => r.flow.as_ref().map(|f| f.arrivals - f.in_flight_at_end),
            Output::Cluster(r) => Some(r.arrivals - r.leftover),
        }
    }
}

/// Everything set-up builds: the perfdb the runs read, the workload's
/// kernel traces, and (for the overload workload) the measured capacity
/// the offered loads are scaled by.
#[derive(Debug, Clone)]
pub struct Env {
    /// The Required-CUs table every run reads.
    pub perfdb: RequiredCusTable,
    /// The batch-32 trace of every model the workload serves.
    pub traces: BTreeMap<ModelKind, Vec<KernelDesc>>,
    /// Closed-loop capacity of the overload configuration, requests/s.
    pub capacity_rps: Option<f64>,
}

const CLUSTER_MODELS: [ModelKind; 3] = [
    ModelKind::Squeezenet,
    ModelKind::Albert,
    ModelKind::Resnext101,
];
const OVERLOAD_WORKERS: usize = 4;
const OVERLOAD_DEADLINE_MS: u64 = 40;

fn workload_models(w: Workload) -> Vec<ModelKind> {
    match w {
        Workload::ColocateSweep => ModelKind::ALL.to_vec(),
        Workload::OverloadEmulated => vec![ModelKind::Squeezenet],
        Workload::ClusterFailover => CLUSTER_MODELS.to_vec(),
    }
}

fn overload_base(seed: u64) -> ServerConfig {
    let mut cfg = ServerConfig::closed_loop(
        Policy::KrispI,
        vec![ModelKind::Squeezenet; OVERLOAD_WORKERS],
        BATCH,
    );
    cfg.enforcement = KrispEnforcement::Emulated(EmulationCosts::default());
    cfg.warmup = Some(SimDuration::from_millis(40));
    cfg.duration = Some(SimDuration::from_millis(1500));
    cfg.seed = seed;
    cfg
}

/// The measured Required-CUs table built by the profiler into
/// `cache_dir`, which must be empty, so nothing is read from or written
/// to the repository's `results/`.
pub fn profiled_perfdb(cache_dir: &Path) -> RequiredCusTable {
    std::fs::create_dir_all(cache_dir).expect("create perfdb cache dir");
    std::env::set_var("KRISP_RESULTS", cache_dir);
    krisp_bench::measured_perfdb(&[BATCH])
}

/// Builds the workload's perfdb, traces and capacity, each step inside
/// a span of the layer it calls. `cache_dir` must be empty; the
/// profiler writes its table there.
pub fn setup(w: Workload, seed: u64, cache_dir: &Path, tr: &mut Tracer) -> Env {
    let models = workload_models(w);
    let perfdb = match w {
        Workload::ColocateSweep => {
            tr.span("core.profiler.build_perfdb", |_| profiled_perfdb(cache_dir))
        }
        _ => tr.span("server.oracle_perfdb", |_| oracle_perfdb(&models, &[BATCH])),
    };
    let traces = models
        .iter()
        .map(|&m| {
            let trace = tr.span("models.generate_trace.setup", |_| {
                generate_trace(m, &TraceConfig::with_batch(BATCH))
            });
            (m, trace)
        })
        .collect();
    let capacity_rps = (w == Workload::OverloadEmulated).then(|| {
        tr.span("server.run_server.capacity", |_| {
            run_server(&overload_base(Rng::new(seed).next_u64()), &perfdb).total_rps()
        })
    });
    Env {
        perfdb,
        traces,
        capacity_rps,
    }
}

/// Models grouped by how long their runs take (cheapest first), so a
/// seed can vary which model lands in a cell while every seed draws
/// about the same amount of work.
const COST_TIERS: [[ModelKind; 2]; 4] = [
    [ModelKind::Alexnet, ModelKind::Vgg19],
    [ModelKind::Resnext101, ModelKind::Squeezenet],
    [ModelKind::Albert, ModelKind::Shufflenet],
    [ModelKind::Densenet201, ModelKind::Resnet152],
];

fn closed(policy: Policy, models: Vec<ModelKind>, rng: &mut Rng) -> ServerConfig {
    let mut cfg = ServerConfig::closed_loop(policy, models, BATCH);
    cfg.seed = rng.next_u64();
    cfg
}

fn baseline(label: String, model: ModelKind) -> Op {
    Op::Baseline { label, model }
}

fn colocate_ops(rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::new();
    // Fig 13 at 4 workers: the cells the fidelity metrics come from.
    for m in ModelKind::ALL {
        let n = m.name();
        ops.push(baseline(format!("fid/{n}/isolated"), m));
        for policy in [Policy::KrispI, Policy::StaticEqual] {
            ops.push(Op::Server {
                label: format!("fid/{n}/{}", policy.name()),
                cfg: closed(policy, vec![m; 4], rng),
            });
        }
    }
    // Every model appears exactly once in each family below, in a cell
    // of the same shape on every seed, so seeds vary what is simulated
    // far more than how much. Each cost tier's two models are split
    // between a 2-worker homogeneous cell and a knob cell at random.
    let policies = [
        Policy::StaticEqual,
        Policy::ModelRightSize,
        Policy::KrispO,
        Policy::KrispI,
    ];
    let mut knobs = Vec::new();
    let mut tiers = COST_TIERS;
    for (tier, policy) in tiers.iter_mut().zip(policies) {
        rng.shuffle(tier);
        // Figs 13/14 at 2 workers: one non-default policy per tier.
        let m = tier[0];
        let n = m.name();
        ops.push(baseline(format!("homog/{n}/isolated"), m));
        ops.push(Op::Server {
            label: format!("homog/{n}/{}/w2", policy.name()),
            cfg: closed(policy, vec![m; 2], rng),
        });
        knobs.push(tier[1]);
    }
    // Fig 16 and the ablations: an overlap-limit cell and an
    // interference/distribution cell in each half of the tiers.
    for (i, m) in knobs.into_iter().enumerate() {
        let n = m.name();
        let mut cfg = closed(Policy::KrispO, vec![m; 2], rng);
        let label = if i % 2 == 0 {
            let limit = rng.pick(&[15u16, 30, 45, 60]);
            cfg.overlap_limit = Some(limit);
            format!("knob/{n}/overlap{limit}")
        } else {
            cfg.policy = Policy::KrispI;
            cfg.sharing_penalty = rng.pick(&[0.0, 0.15, 0.5, 0.7]);
            cfg.allocator_distribution = rng.pick(&DistributionPolicy::ALL);
            format!(
                "knob/{n}/gamma{}/{:?}",
                cfg.sharing_penalty, cfg.allocator_distribution
            )
        };
        ops.push(baseline(format!("knob/{n}/isolated"), m));
        ops.push(Op::Server { label, cfg });
    }
    // Fig 15: four mixed pairs covering the eight models, each pairing a
    // cheap tier with a costly one (0 with 3, 1 with 2), members matched
    // at random; one pair of each kind under KRISP-I, one under
    // static-equal.
    for (a, b) in [(0, 3), (1, 2)] {
        let (lo, mut hi) = (tiers[a], tiers[b]);
        rng.shuffle(&mut hi);
        let mut pair_policies = [Policy::KrispI, Policy::StaticEqual];
        rng.shuffle(&mut pair_policies);
        for ((x, y), policy) in lo.into_iter().zip(hi).zip(pair_policies) {
            for m in [x, y] {
                ops.push(baseline(format!("pair/{}/isolated", m.name()), m));
            }
            ops.push(Op::Server {
                label: format!("pair/{}+{}/{}", x.name(), y.name(), policy.name()),
                cfg: closed(policy, vec![x, y], rng),
            });
        }
    }
    ops
}

fn overload_ops(rng: &mut Rng, capacity_rps: f64) -> Vec<Op> {
    // Offered loads stratified over 0.5–3x capacity: one draw per stratum.
    const CELLS: usize = 8;
    (0..CELLS)
        .map(|i| {
            let load = 0.5 + 2.5 * (i as f64 + rng.unit()) / CELLS as f64;
            let per_worker = capacity_rps / OVERLOAD_WORKERS as f64;
            let mut cfg = overload_base(rng.next_u64());
            cfg.arrival = Arrival::Poisson {
                rps_per_worker: load * per_worker,
            };
            cfg.deadline = Some(SimDuration::from_millis(OVERLOAD_DEADLINE_MS));
            cfg.queue_capacity = Some(32);
            cfg.sentinel = Some(SentinelConfig::standard(0.6 * per_worker));
            Op::Server {
                label: format!("overload/x{load:.3}"),
                cfg,
            }
        })
        .collect()
}

fn cluster_ops(rng: &mut Rng) -> Vec<Op> {
    const GPUS: usize = 8;
    const VARIANTS: usize = 3;
    let topo = GpuTopology::MI50;
    let horizon = SimDuration::from_millis(1000);
    let at = |frac: f64| SimTime::ZERO + SimDuration::from_secs_f64(horizon.as_secs_f64() * frac);
    let mut ops = Vec::new();
    for v in 0..VARIANTS {
        let lost_gpu = rng.below(GPUS);
        let crash_gpu = (lost_gpu + 1 + rng.below(GPUS - 1)) % GPUS;
        let se = rng.below(topo.num_ses() as usize);
        let dead: CuMask = topo.cus_in_se(SeId(se as u8)).collect();
        let plan = FaultPlan::new().fail_cus(at(0.25 + 0.1 * rng.unit()), dead);
        let crash = CrashScript {
            gpu: crash_gpu,
            at: at(0.4 + 0.1 * rng.unit()),
            down_for: SimDuration::from_millis(250 + rng.below(50) as u64),
        };
        let rps_per_model = GPUS as f64 * 40.0;
        let seed = rng.next_u64();
        for policy in [Policy::StaticEqual, Policy::KrispI] {
            let mut cfg = ClusterConfig::new(GPUS, CLUSTER_MODELS.to_vec(), rps_per_model);
            cfg.policy = policy;
            cfg.seed = seed;
            cfg.horizon = horizon;
            cfg.faults = vec![(lost_gpu, plan.clone())];
            cfg.crash = Some(crash);
            cfg.watchdog = Some(WatchdogConfig::default());
            cfg.breaker = Some(BreakerConfig::default());
            cfg.hedge = Some(HedgeConfig {
                delay: SimDuration::from_millis(30),
            });
            cfg.deadline = Some(SimDuration::from_millis(200));
            cfg.queue_capacity = Some(16);
            ops.push(Op::Cluster {
                label: format!("cluster/v{v}/{}", policy.name()),
                cfg,
            });
        }
    }
    ops
}

/// The seeded operations of one pass, in the order they run.
pub fn plan(w: Workload, seed: u64, env: &Env) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    rng.next_u64(); // the overload capacity run's config seed
    let mut ops = match w {
        Workload::ColocateSweep => colocate_ops(&mut rng),
        Workload::OverloadEmulated => overload_ops(
            &mut rng,
            env.capacity_rps.expect("overload set-up measures capacity"),
        ),
        Workload::ClusterFailover => cluster_ops(&mut rng),
    };
    rng.shuffle(&mut ops);
    ops
}

/// Runs one operation. `obs` reaches the server and cluster entry
/// points; a baseline has no observability hook.
pub fn run_op(op: &Op, env: &Env, obs: Obs) -> Output {
    match op {
        Op::Baseline { model, .. } => {
            Output::Baseline(krisp_bench::isolated_baseline(*model, BATCH, &env.perfdb))
        }
        Op::Server { cfg, .. } => Output::Server(run_server_observed(cfg, &env.perfdb, obs)),
        Op::Cluster { cfg, .. } => Output::Cluster(run_cluster_observed(cfg, &env.perfdb, obs)),
    }
}

/// The paper-fidelity errors computed from the Fig 13 cells of a
/// colocate pass: `(|geomean KRISP-I/static − 1.22| / 1.22,
/// |geomean KRISP-I energy/isolated − 0.67| / 0.67)`. `None` when the
/// pass has no such cells or one of them produced nothing.
pub fn fidelity(ops: &[Op], outputs: &[Output]) -> Option<(f64, f64)> {
    let find = |label: String| {
        ops.iter()
            .position(|op| op.label() == label)
            .map(|i| &outputs[i])
    };
    let mut ratios = Vec::new();
    let mut energies = Vec::new();
    for m in ModelKind::ALL {
        let n = m.name();
        let (Some(Output::Baseline(iso)), Some(Output::Server(krisp)), Some(Output::Server(stat))) = (
            find(format!("fid/{n}/isolated")),
            find(format!("fid/{n}/{}", Policy::KrispI.name())),
            find(format!("fid/{n}/{}", Policy::StaticEqual.name())),
        ) else {
            return None;
        };
        ratios.push(krisp.total_rps() / stat.total_rps());
        energies.push(krisp.energy_per_inference()? / iso.energy_per_inference_j);
    }
    let geo = |v: &[f64]| krisp_sim::stats::geomean(v).expect("eight positive ratios");
    Some((
        (geo(&ratios) - PAPER_KRISP_I_VS_STATIC_W4).abs() / PAPER_KRISP_I_VS_STATIC_W4,
        (geo(&energies) - PAPER_ENERGY_W4).abs() / PAPER_ENERGY_W4,
    ))
}

/// The Fig 13 fidelity cells alone, for workloads whose own runs do not
/// contain them.
pub fn fidelity_ops(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    rng.next_u64(); // as in `plan`
    colocate_ops(&mut rng)
        .into_iter()
        .filter(|op| op.label().starts_with("fid/"))
        .collect()
}
