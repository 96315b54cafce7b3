//! The output checker: what "correct" means for one benchmark run.
//!
//! Three checks decide `correct`, and each can fail:
//!
//! - **Golden replay.** The five serving fixtures under
//!   `crates/server/tests/goldens/` are reproduced byte for byte through
//!   `run_server` / `run_cluster`, read in place.
//! - **Same digest.** Every pass of a seed, and the traced pass, yields
//!   the same digest over its serialized results; the JSON writer prints
//!   shortest round-trip floats, so the digest covers every f64's bits.
//! - **Reference replay** (see [`crate::reference`]).
//!
//! On top of those, every operation's result must balance its books,
//! carry no error the workload did not plan, and be a plausible result
//! (finite, positive, something completed).

use std::path::{Path, PathBuf};

use krisp::Policy;
use krisp_models::ModelKind;
use krisp_runtime::WatchdogConfig;
use krisp_server::{
    oracle_perfdb, run_cluster, run_server, Arrival, ClusterConfig, CrashScript, HedgeConfig,
    SentinelConfig, ServerConfig,
};
use krisp_sim::{CuMask, FaultPlan, GpuTopology, SimDuration, SimTime};

use crate::workload::Output;

/// 64-bit FNV-1a: a fixed, documented hash, so a digest means the same
/// thing in every process.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of one result.
pub fn digest(output: &Output) -> u64 {
    fnv1a(output.serialized().as_bytes())
}

/// Digest of a whole pass: the per-operation digests, in order.
pub fn pass_digest(op_digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = op_digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Checks one result on its own: balanced books, no unplanned error,
/// and plausible numbers. No workload plans an error entry, so any
/// entry fails the run.
pub fn check_output(output: &Output) -> Result<(), String> {
    let finite_pos = |what: &str, v: f64| {
        if v.is_finite() && v > 0.0 {
            Ok(())
        } else {
            Err(format!("{what} is {v}"))
        }
    };
    match output {
        Output::Baseline(b) => {
            finite_pos("baseline rps", b.rps)?;
            finite_pos("baseline p95", b.p95_ms)?;
            finite_pos("baseline energy", b.energy_per_inference_j)
        }
        Output::Server(r) => {
            let flow = r.flow.as_ref().ok_or("server result without flow books")?;
            if !flow.conserved() {
                return Err(format!("server books do not balance: {flow:?}"));
            }
            let errors = &r.robustness().errors;
            if !errors.is_empty() {
                return Err(format!("unplanned errors: {errors:?}"));
            }
            if r.total_inferences() == 0 {
                return Err("server run completed nothing".into());
            }
            finite_pos("server energy", r.energy_j)?;
            let bad = r
                .workers
                .iter()
                .flat_map(|w| &w.latencies_ms)
                .find(|l| !(l.is_finite() && **l > 0.0));
            match bad {
                Some(l) => Err(format!("server latency {l}")),
                None => Ok(()),
            }
        }
        Output::Cluster(r) => {
            if !r.conserved() {
                return Err(format!(
                    "cluster books do not balance: {} arrivals vs {:?}",
                    r.arrivals, r
                ));
            }
            if !r.robustness.errors.is_empty() {
                return Err(format!("unplanned errors: {:?}", r.robustness.errors));
            }
            if r.completed == 0 {
                return Err("cluster run completed nothing".into());
            }
            finite_pos("cluster energy", r.energy_j)?;
            finite_pos("cluster p95", r.p95_ms)
        }
    }
}

/// Checks that a result reproduces the digest of the first pass.
pub fn check_digest(label: &str, want: u64, got: u64) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "{label}: digest {got:016x} differs from the first pass's {want:016x}"
        ))
    }
}

/// Compares a produced fixture with the committed bytes.
pub fn check_golden(name: &str, produced: &str, fixture: &[u8]) -> Result<(), String> {
    let want = fixture;
    let got = produced.as_bytes();
    if got == want {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "golden {name}: output differs from the fixture at byte {at} ({} vs {} bytes)",
        got.len(),
        want.len()
    ))
}

/// Where the serving fixtures live in the source tree.
pub fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates/server/tests/goldens")
}

/// Runs one fixture's config and serializes the result as the fixture
/// stores it.
type Produce = Box<dyn Fn() -> String>;

/// The five fixture configs, exactly as the serving engine's golden
/// test builds them, with the fixture each must reproduce.
fn golden_cases() -> Vec<(&'static str, Produce)> {
    fn pretty<T: serde::Serialize>(v: &T) -> String {
        serde_json::to_string_pretty(v).expect("results serialize")
    }
    fn server(cfg: ServerConfig) -> String {
        let db = oracle_perfdb(&cfg.models, &[32]);
        pretty(&run_server(&cfg, &db))
    }
    fn cluster(cfg: ClusterConfig) -> String {
        let db = oracle_perfdb(&cfg.models, &[32]);
        pretty(&run_cluster(&cfg, &db))
    }
    let windows = |cfg: &mut ServerConfig, duration: SimDuration| {
        cfg.warmup = Some(SimDuration::from_millis(40));
        cfg.duration = Some(duration);
    };
    vec![
        (
            "server_krisp_i_native.json",
            Box::new(move || {
                let mut cfg =
                    ServerConfig::closed_loop(Policy::KrispI, vec![ModelKind::Squeezenet; 4], 32);
                windows(&mut cfg, SimDuration::from_millis(400));
                server(cfg)
            }),
        ),
        (
            "server_static_equal_faults.json",
            Box::new(move || {
                let topo = GpuTopology::MI50;
                let mut cfg = ServerConfig::closed_loop(
                    Policy::StaticEqual,
                    vec![ModelKind::Squeezenet, ModelKind::Albert],
                    32,
                );
                windows(&mut cfg, SimDuration::from_millis(400));
                cfg.watchdog = Some(WatchdogConfig::default());
                cfg.faults = FaultPlan::new()
                    .fail_cus(
                        SimTime::ZERO + SimDuration::from_millis(120),
                        CuMask::first_n(12, &topo),
                    )
                    .straggle_all(
                        SimTime::ZERO + SimDuration::from_millis(200),
                        8.0,
                        SimDuration::from_millis(80),
                    );
                server(cfg)
            }),
        ),
        (
            "server_sentinel_overload.json",
            Box::new(move || {
                let mut cfg =
                    ServerConfig::closed_loop(Policy::KrispI, vec![ModelKind::Squeezenet; 2], 32);
                cfg.arrival = Arrival::Poisson {
                    rps_per_worker: 400.0,
                };
                cfg.deadline = Some(SimDuration::from_millis(25));
                cfg.queue_capacity = Some(16);
                cfg.sentinel = Some(SentinelConfig::standard(150.0));
                windows(&mut cfg, SimDuration::from_secs(1));
                server(cfg)
            }),
        ),
        (
            "cluster_clean.json",
            Box::new(|| {
                let mut cfg =
                    ClusterConfig::new(2, vec![ModelKind::Squeezenet, ModelKind::Albert], 60.0);
                cfg.horizon = SimDuration::from_secs(2);
                cluster(cfg)
            }),
        ),
        (
            "cluster_crash_hedge.json",
            Box::new(|| {
                let mut cfg = ClusterConfig::new(2, vec![ModelKind::Squeezenet], 300.0);
                cfg.horizon = SimDuration::from_secs(2);
                cfg.queue_capacity = Some(8);
                cfg.deadline = Some(SimDuration::from_millis(40));
                cfg.watchdog = Some(WatchdogConfig::default());
                cfg.crash = Some(CrashScript {
                    gpu: 1,
                    at: SimTime::ZERO + SimDuration::from_millis(500),
                    down_for: SimDuration::from_millis(400),
                });
                cfg.hedge = Some(HedgeConfig {
                    delay: SimDuration::from_millis(30),
                });
                cluster(cfg)
            }),
        ),
    ]
}

/// Replays all five fixtures from `dir`; one entry per fixture.
pub fn golden_replay(dir: &Path) -> Vec<Result<(), String>> {
    golden_cases()
        .into_iter()
        .map(|(name, produce)| {
            let fixture = std::fs::read(dir.join(name))
                .map_err(|e| format!("golden {name}: cannot read fixture: {e}"))?;
            check_golden(name, &produce(), &fixture)
        })
        .collect()
}

/// The run's correctness verdict: every failed check, in order.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    problems: Vec<String>,
}

impl Verdict {
    /// Records one check's outcome; a problem already recorded (the
    /// same golden failing in every set-up) is kept once.
    pub fn note(&mut self, outcome: Result<(), String>) {
        if let Err(problem) = outcome {
            if !self.problems.contains(&problem) {
                self.problems.push(problem);
            }
        }
    }

    /// True when no check failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The failed checks.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }
}
