//! Reference contention replay.
//!
//! A run's recorded kernel/mask stream (its `KernelComplete` events:
//! start instant, CU mask, queue and trace index) is replayed twice:
//! through `krisp_sim::Engine`, with its incremental dirty-CU re-rating
//! and memoized share sums, and through [`ReferenceEngine`], which
//! re-derives every in-flight kernel's rate from scratch with
//! `contention::kernel_rate` after every change, the way the sim
//! crate's `engine_oracle` test does. Every completion instant and every
//! rate must agree bit for bit.

use std::collections::BTreeMap;

use krisp_models::ModelKind;
use krisp_obs::{Event, EventKind};
use krisp_sim::{
    contention, CuMask, Engine, GpuTopology, KernelDesc, KernelId, SimDuration, SimTime,
};

/// One kernel of a recorded stream, ready to dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct Dispatch {
    /// When the kernel started executing, simulated ns.
    pub at_ns: u64,
    /// CU·ns of demand.
    pub work: f64,
    /// Parallelism knee.
    pub parallelism: u16,
    /// Memory-bandwidth floor.
    pub bandwidth_floor: f64,
    /// The partition it ran in.
    pub mask: CuMask,
    /// Hardware queue (= worker) it ran on.
    pub queue: u32,
    /// Its index in the worker's trace.
    pub tag: u64,
}

/// The kernel stream of a recorded single-GPU run, in start order.
/// Queue `q` is worker `q`, serving `models[q]`; a completion's tag is
/// the kernel's index in that model's trace.
pub fn kernel_stream(
    events: &[Event],
    models: &[ModelKind],
    traces: &BTreeMap<ModelKind, Vec<KernelDesc>>,
) -> Vec<Dispatch> {
    let mut out: Vec<Dispatch> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::KernelComplete {
                queue,
                tag,
                start_ns,
                mask,
                ..
            } => {
                let k = traces
                    .get(models.get(*queue as usize)?)?
                    .get(usize::try_from(*tag).ok()?)?;
                let mask = CuMask::from_raw_words(*mask);
                (!mask.is_empty()).then_some(Dispatch {
                    at_ns: *start_ns,
                    work: k.work,
                    parallelism: k.parallelism,
                    bandwidth_floor: k.bandwidth_floor,
                    mask,
                    queue: *queue,
                    tag: *tag,
                })
            }
            _ => None,
        })
        .collect();
    out.sort_by_key(|d| (d.at_ns, d.queue, d.tag));
    out
}

struct RefKernel {
    id: KernelId,
    mask: CuMask,
    parallelism: u16,
    bandwidth_floor: f64,
    remaining: f64,
    rate: f64,
}

/// The from-scratch fluid contention model.
struct ReferenceEngine {
    topo: GpuTopology,
    gamma: f64,
    residents: Vec<u16>,
    actives: Vec<RefKernel>,
}

impl ReferenceEngine {
    /// An idle device with interference factor `gamma`.
    pub fn new(topo: GpuTopology, gamma: f64) -> ReferenceEngine {
        ReferenceEngine {
            topo,
            gamma,
            residents: vec![0; topo.total_cus() as usize],
            actives: Vec::new(),
        }
    }

    fn recompute_rates(&mut self) {
        for k in &mut self.actives {
            k.rate = contention::kernel_rate(
                &k.mask,
                k.parallelism,
                k.bandwidth_floor,
                &self.residents,
                &self.topo,
                self.gamma,
            );
        }
    }

    /// Starts kernel `id` (the id the engine under test assigned).
    pub fn dispatch(&mut self, id: KernelId, d: &Dispatch) {
        for cu in &d.mask {
            self.residents[usize::from(cu)] += 1;
        }
        self.actives.push(RefKernel {
            id,
            mask: d.mask,
            parallelism: d.parallelism,
            bandwidth_floor: d.bandwidth_floor,
            remaining: d.work,
            rate: 0.0,
        });
        self.recompute_rates();
    }

    /// Progresses every kernel by `dt` at its current rate.
    pub fn advance(&mut self, dt: SimDuration) {
        let ns = dt.as_nanos() as f64;
        for k in &mut self.actives {
            k.remaining = (k.remaining - k.rate * ns).max(0.0);
        }
    }

    /// The next kernel to finish; ties go to the lowest id.
    pub fn next_completion(&self, now: SimTime) -> Option<(SimTime, KernelId)> {
        self.actives
            .iter()
            .map(|k| {
                let ns = if k.remaining <= 0.0 {
                    0
                } else {
                    (k.remaining / k.rate).ceil() as u64
                };
                (now + SimDuration::from_nanos(ns), k.id)
            })
            .min()
    }

    /// Retires kernel `id`. `swap_remove` mirrors the engine's own
    /// removal, so both keep their kernels in the same order.
    pub fn complete(&mut self, id: KernelId) {
        let idx = self
            .actives
            .iter()
            .position(|k| k.id == id)
            .expect("the reference tracks every kernel the engine runs");
        let k = self.actives.swap_remove(idx);
        for cu in &k.mask {
            self.residents[usize::from(cu)] -= 1;
        }
        self.recompute_rates();
    }

    fn rates(&self) -> impl Iterator<Item = (KernelId, f64)> + '_ {
        self.actives.iter().map(|k| (k.id, k.rate))
    }
}

/// What a replay did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Kernels dispatched.
    pub kernels: u64,
    /// Completion instants produced (and, with the reference, compared).
    pub completions: u64,
    /// Kernel re-rates the engine performed.
    pub rerates: u64,
}

fn at(ns: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(ns)
}

/// Replays `stream` through `krisp_sim::Engine` (interference factor
/// `gamma`) to idle. With `check`, a [`ReferenceEngine`] runs in
/// lockstep and the first disagreement — a completion instant, a
/// completing kernel or any in-flight rate — is returned as an error.
pub fn replay(stream: &[Dispatch], gamma: f64, check: bool) -> Result<ReplayStats, String> {
    let topo = GpuTopology::MI50;
    let mut eng = Engine::with_sharing_penalty(topo, gamma);
    let mut reference = check.then(|| ReferenceEngine::new(topo, gamma));
    let mut stats = ReplayStats::default();
    let mut now = stream.first().map_or(SimTime::ZERO, |d| at(d.at_ns));
    let mut next = 0;
    loop {
        let done = eng.next_completion(now);
        if let Some(r) = &reference {
            let want = r.next_completion(now);
            if done != want {
                return Err(format!(
                    "reference replay: after {} completions the engine's next completion is \
                     {done:?}, the reference's {want:?}",
                    stats.completions
                ));
            }
        }
        let due = stream.get(next).map(|d| at(d.at_ns));
        match (done, due) {
            (None, None) => break,
            (Some((t, id)), due) if due.is_none_or(|d| t <= d) => {
                let dt = t.saturating_since(now);
                eng.advance(dt);
                eng.complete(id);
                if let Some(r) = &mut reference {
                    r.advance(dt);
                    r.complete(id);
                }
                now = t;
                stats.completions += 1;
            }
            (_, None) => unreachable!("a pending completion with no dispatch left is taken above"),
            (_, Some(d)) => {
                let k = &stream[next];
                let dt = d.saturating_since(now);
                eng.advance(dt);
                let id = eng
                    .dispatch(k.work, k.parallelism, k.bandwidth_floor, k.mask)
                    .map_err(|e| format!("reference replay: engine refused a dispatch: {e:?}"))?;
                if let Some(r) = &mut reference {
                    r.advance(dt);
                    r.dispatch(id, k);
                }
                now = now.max(d);
                next += 1;
                stats.kernels += 1;
            }
        }
        if let Some(r) = &reference {
            for (id, rate) in r.rates() {
                let got = eng.rate_of(id).map(f64::to_bits);
                if got != Some(rate.to_bits()) {
                    return Err(format!(
                        "reference replay: {id} runs at {:?} in the engine, {rate} in the reference",
                        eng.rate_of(id)
                    ));
                }
            }
        }
    }
    stats.rerates = eng.rerate_count();
    Ok(stats)
}

/// A window of at most `len` consecutive kernels starting at a
/// seed-chosen offset.
pub fn sample(stream: &[Dispatch], len: usize, pick: u64) -> &[Dispatch] {
    if stream.len() <= len {
        return stream;
    }
    let start = (pick % (stream.len() - len + 1) as u64) as usize;
    &stream[start..start + len]
}
