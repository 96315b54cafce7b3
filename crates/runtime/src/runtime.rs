//! The runtime proper: streams, launch interception, and the emulation
//! machinery. See the [crate docs](crate) for the big picture.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use krisp_obs::{CounterHandle, EventKind, Obs};
use krisp_sim::{
    AqlPacket, CuKernelCounters, CuMask, EnforcementMode, FullMaskAllocator, GpuTopology,
    KernelDesc, Machine, MachineConfig, MachineError, MaskAllocator, QueueId, SignalId,
    SimDuration, SimEvent, SimTime,
};

use crate::budget::RetryBudget;
pub use crate::config::{EmulationCosts, PartitionMode, RuntimeConfig, WatchdogConfig};
use crate::error::KrispError;
use crate::perfdb::RequiredCusTable;

/// Identifier of a runtime stream (maps 1:1 onto an HSA queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u32);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream{}", self.0)
    }
}

impl From<StreamId> for QueueId {
    fn from(s: StreamId) -> QueueId {
        QueueId(s.0)
    }
}

impl From<QueueId> for StreamId {
    fn from(q: QueueId) -> StreamId {
        StreamId(q.0)
    }
}

/// Events reported to the runtime's client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtEvent {
    /// A kernel began executing in the given spatial partition.
    KernelStarted {
        /// Stream it was launched on.
        stream: StreamId,
        /// Client's correlation tag.
        tag: u64,
        /// Start instant.
        at: SimTime,
        /// Enforced CU mask.
        mask: CuMask,
    },
    /// A kernel finished.
    KernelCompleted {
        /// Stream it was launched on.
        stream: StreamId,
        /// Client's correlation tag.
        tag: u64,
        /// Completion instant.
        at: SimTime,
    },
    /// A client timer fired.
    TimerFired {
        /// Client's token.
        token: u64,
        /// Fire instant.
        at: SimTime,
    },
    /// CUs permanently failed (injected device fault). Clients should
    /// re-plan placement; the machine has already shrunk in-flight masks
    /// and poisoned the resource-monitor counters.
    CusFailed {
        /// The CUs that just died.
        mask: CuMask,
        /// Injection instant.
        at: SimTime,
    },
    /// A kernel was given up on: the watchdog aborted it and every retry
    /// also timed out. The stream continues with its next packet.
    KernelFailed {
        /// Stream it was launched on.
        stream: StreamId,
        /// Client's correlation tag.
        tag: u64,
        /// Abandonment instant.
        at: SimTime,
        /// Why it was abandoned.
        error: KrispError,
    },
}

/// How much slack the runtime adds on top of the perfdb right-size —
/// the sentinel's brownout lever. Under overload the server deliberately
/// *widens* kernel partitions toward stream-scoped/full-device masks,
/// trading KRISP's packing efficiency for latency headroom, then narrows
/// back to [`MaskWidening::None`] once headroom recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaskWidening {
    /// Exact right-sizing (KRISP's normal operating point).
    #[default]
    None,
    /// Scale the right-size by a percentage ≥ 100, capped at the full
    /// device (150 = grant 1.5× the profiled minimum).
    Factor(u32),
    /// Grant every kernel the full device (equivalent to the MPS-default
    /// partition while it lasts).
    FullDevice,
}

impl MaskWidening {
    /// Applies the widening to a right-sized CU count.
    pub fn apply(&self, required: u16, total: u16) -> u16 {
        match self {
            MaskWidening::None => required,
            MaskWidening::Factor(pct) => {
                let widened = (u32::from(required) * pct) / 100;
                (widened.min(u32::from(total))) as u16
            }
            MaskWidening::FullDevice => total,
        }
    }
}

/// Tokens/tags with this bit set are reserved for the runtime's internal
/// emulation machinery.
const INTERNAL_BIT: u64 = 1 << 63;

/// Internal tokens carry their subsystem in bits 61–62, so a timer whose
/// state was already cleaned up (e.g. a watchdog deadline firing after
/// its kernel completed) is recognizably stale instead of being
/// misrouted to another subsystem.
const KIND_SHIFT: u32 = 61;
const KIND_BITS: u64 = 0b11 << KIND_SHIFT;
/// Emulation machinery: barrier tags and reconfiguration timers.
const KIND_EMU: u64 = 0b00 << KIND_SHIFT;
/// Watchdog deadline timers.
const KIND_WATCHDOG: u64 = 0b01 << KIND_SHIFT;
/// Retry-backoff queue-release timers.
const KIND_RELEASE: u64 = 0b10 << KIND_SHIFT;
/// CU-mask apply retry timers.
const KIND_MASK_RETRY: u64 = 0b11 << KIND_SHIFT;

#[derive(Debug, Clone, Copy)]
struct EmuPending {
    queue: QueueId,
    required_cus: u16,
    signal: SignalId,
}

/// An armed watchdog deadline for one in-flight kernel.
#[derive(Debug, Clone, Copy)]
struct WdArm {
    queue: QueueId,
    tag: u64,
    started: SimTime,
    expected: SimDuration,
}

/// A pending CU-mask apply retry (the IOCTL was rejected by an injected
/// fault and is being re-attempted after backoff).
#[derive(Debug, Clone, Copy)]
struct MaskRetry {
    pending: EmuPending,
    mask: CuMask,
    attempt: u32,
}

/// The GPU runtime: owns the simulated machine and implements the
/// partitioning modes. See the [crate docs](crate) for an example.
pub struct Runtime {
    machine: Machine,
    mode: PartitionMode,
    perfdb: Arc<RequiredCusTable>,
    /// Allocator used by the *emulated* path (the native path's allocator
    /// lives inside the machine's packet processor).
    emu_allocator: Option<Box<dyn MaskAllocator>>,
    /// B1-barrier tag → pending emulation step.
    emu_on_barrier: HashMap<u64, EmuPending>,
    /// Internal timer token → pending emulation step and the instant the
    /// reconfiguration began (B1 consumption).
    emu_on_timer: HashMap<u64, (EmuPending, SimTime)>,
    /// B2-barrier tags to swallow silently.
    emu_b2_tags: HashSet<u64>,
    next_internal: u64,
    emulated_launches: u64,
    /// `krisp_emulated_launches_total`, resolved once.
    emulated_launches_total: CounterHandle,
    buffered: VecDeque<RtEvent>,
    obs: Obs,
    watchdog: Option<WatchdogConfig>,
    /// Watchdog-timer token → the kernel it guards.
    wd_armed: HashMap<u64, WdArm>,
    /// (queue, tag) → armed watchdog token, to disarm on completion.
    wd_by_kernel: HashMap<(QueueId, u64), u64>,
    /// Timeouts already charged to a kernel (survives across retries).
    wd_attempts: HashMap<(QueueId, u64), u32>,
    /// Backoff-timer token → queue to release for a retry.
    wd_release: HashMap<u64, QueueId>,
    /// Launch-time kernel descriptors (kept only while a watchdog is
    /// configured) for expected-duration estimates.
    launched: HashMap<(QueueId, u64), KernelDesc>,
    /// Backoff-timer token → pending mask-apply retry.
    mask_retry: HashMap<u64, MaskRetry>,
    /// Streams permanently downgraded from kernel-scoped emulation to
    /// stream-scoped masking after persistent mask-apply faults.
    stream_fallback: HashSet<QueueId>,
    /// Degradations recorded instead of panicking.
    errors: Vec<KrispError>,
    /// Sliding-window retry budget (when configured).
    retry_budget: Option<RetryBudget>,
    /// Brownout widening applied on top of every right-size lookup.
    widening: MaskWidening,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("mode", &self.mode)
            .field("now", &self.machine.now())
            .field("emulated_launches", &self.emulated_launches)
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Creates a runtime (and its machine) from a configuration.
    pub fn new(config: RuntimeConfig) -> Runtime {
        let (machine_mode, machine_alloc, emu_alloc): (
            EnforcementMode,
            Box<dyn MaskAllocator>,
            Option<Box<dyn MaskAllocator>>,
        ) = match config.mode {
            PartitionMode::StreamMasking => (
                EnforcementMode::QueueMask,
                Box::new(FullMaskAllocator),
                None,
            ),
            PartitionMode::KernelScopedNative => {
                (EnforcementMode::KernelScoped, config.allocator, None)
            }
            PartitionMode::KernelScopedEmulated(_) => (
                EnforcementMode::QueueMask,
                Box::new(FullMaskAllocator),
                Some(config.allocator),
            ),
        };
        let machine = Machine::new(MachineConfig {
            topology: config.topology,
            power: config.power,
            costs: config.costs,
            mode: machine_mode,
            allocator: machine_alloc,
            seed: config.seed,
            jitter_sigma: config.jitter_sigma,
            sharing_penalty: config.sharing_penalty,
            obs: config.obs.clone(),
            faults: config.faults,
        });
        Runtime {
            machine,
            mode: config.mode,
            perfdb: config.perfdb,
            emu_allocator: emu_alloc,
            emu_on_barrier: HashMap::new(),
            emu_on_timer: HashMap::new(),
            emu_b2_tags: HashSet::new(),
            next_internal: 0,
            emulated_launches: 0,
            emulated_launches_total: config
                .obs
                .metrics
                .counter("krisp_emulated_launches_total", &[]),
            buffered: VecDeque::new(),
            obs: config.obs,
            watchdog: config.watchdog,
            wd_armed: HashMap::new(),
            wd_by_kernel: HashMap::new(),
            wd_attempts: HashMap::new(),
            wd_release: HashMap::new(),
            launched: HashMap::new(),
            mask_retry: HashMap::new(),
            stream_fallback: HashSet::new(),
            errors: Vec::new(),
            retry_budget: config.retry_budget.map(RetryBudget::new),
            widening: MaskWidening::None,
        }
    }

    /// The device topology.
    pub fn topology(&self) -> GpuTopology {
        self.machine.topology()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.machine.now()
    }

    /// Energy consumed so far in joules.
    pub fn energy_joules(&self) -> f64 {
        self.machine.energy_joules()
    }

    /// Integral of occupied CUs over time (CU·seconds) — see
    /// [`Machine::busy_cu_seconds`].
    pub fn busy_cu_seconds(&self) -> f64 {
        self.machine.busy_cu_seconds()
    }

    /// Integral of delivered service over time (CU·seconds) — see
    /// [`Machine::service_cu_seconds`].
    pub fn service_cu_seconds(&self) -> f64 {
        self.machine.service_cu_seconds()
    }

    /// The machine's per-CU kernel counters (Resource Monitor).
    pub fn counters(&self) -> &CuKernelCounters {
        self.machine.counters()
    }

    /// The partitioning mode.
    pub fn mode(&self) -> PartitionMode {
        self.mode
    }

    /// The Required-CUs table.
    pub fn perfdb(&self) -> &RequiredCusTable {
        &self.perfdb
    }

    /// Mutable access to the Required-CUs table (e.g. to install profiles
    /// at "library installation time").
    pub fn perfdb_mut(&mut self) -> &mut RequiredCusTable {
        Arc::make_mut(&mut self.perfdb)
    }

    /// Number of launches that went through the emulation path.
    pub fn emulated_launches(&self) -> u64 {
        self.emulated_launches
    }

    /// CUs that have permanently failed (injected faults).
    pub fn failed_cus(&self) -> CuMask {
        self.machine.failed_cus()
    }

    /// The CUs still alive.
    pub fn healthy_mask(&self) -> CuMask {
        self.machine.healthy_mask()
    }

    /// Degradations recorded so far (perfdb staleness, abandoned
    /// kernels, stream-scoped fallbacks, …) in occurrence order.
    pub fn errors(&self) -> &[KrispError] {
        &self.errors
    }

    /// Drains the recorded degradations (for surfacing in run results).
    pub fn take_errors(&mut self) -> Vec<KrispError> {
        std::mem::take(&mut self.errors)
    }

    /// Sets the brownout widening applied on top of every subsequent
    /// right-size lookup (the sentinel's lever; [`MaskWidening::None`]
    /// restores exact right-sizing).
    pub fn set_mask_widening(&mut self, widening: MaskWidening) {
        self.widening = widening;
    }

    /// The currently applied brownout widening.
    pub fn mask_widening(&self) -> MaskWidening {
        self.widening
    }

    /// Watchdog retries granted and denied by the retry budget so far
    /// (`(0, 0)` when no budget is configured).
    pub fn retry_budget_counters(&self) -> (u64, u64) {
        self.retry_budget
            .as_ref()
            .map_or((0, 0), |b| (b.granted(), b.denied()))
    }

    /// Streams that fell back from kernel-scoped emulation to
    /// stream-scoped masking after persistent mask-apply faults.
    pub fn stream_fallbacks(&self) -> Vec<StreamId> {
        let mut v: Vec<StreamId> = self.stream_fallback.iter().map(|q| (*q).into()).collect();
        v.sort();
        v
    }

    /// Creates a stream (HSA queue) with the full-device mask.
    pub fn create_stream(&mut self) -> StreamId {
        self.machine.create_queue().into()
    }

    /// The CU-Masking API: sets a stream's CU mask. Only meaningful in
    /// [`PartitionMode::StreamMasking`] (the kernel-scoped modes override
    /// it per kernel, except for unprofiled legacy launches).
    ///
    /// # Errors
    ///
    /// Propagates [`MachineError`] for unknown streams or empty masks.
    pub fn set_stream_mask(&mut self, stream: StreamId, mask: CuMask) -> Result<(), MachineError> {
        self.machine.set_queue_mask(stream.into(), mask)
    }

    /// A stream's current CU mask.
    ///
    /// # Errors
    ///
    /// Propagates [`MachineError`] for unknown streams.
    pub fn stream_mask(&self, stream: StreamId) -> Result<CuMask, MachineError> {
        self.machine.queue_mask(stream.into())
    }

    /// Launches a kernel on a stream. Interception depends on the mode:
    /// stream masking passes the launch through; the kernel-scoped modes
    /// right-size it from the Required-CUs table (falling back to the
    /// full device for unprofiled kernels).
    ///
    /// # Panics
    ///
    /// Panics if `tag` has the internal reservation bit (bit 63) set.
    pub fn launch(&mut self, stream: StreamId, kernel: KernelDesc, tag: u64) {
        assert_eq!(tag & INTERNAL_BIT, 0, "tag bit 63 is reserved");
        let queue: QueueId = stream.into();
        if self.watchdog.is_some() {
            self.launched.insert((queue, tag), kernel.clone());
        }
        match self.mode {
            PartitionMode::StreamMasking => {
                self.machine.push_dispatch(queue, kernel, tag);
            }
            PartitionMode::KernelScopedNative => {
                let required = self.right_size(&kernel);
                self.machine
                    .push_sized_dispatch(queue, kernel, required, tag);
            }
            PartitionMode::KernelScopedEmulated(_) => {
                if self.stream_fallback.contains(&queue) {
                    // This stream's mask IOCTLs keep faulting; it runs in
                    // degraded stream-scoped mode on its last good mask.
                    self.machine.push_dispatch(queue, kernel, tag);
                    return;
                }
                let required = self.right_size(&kernel);
                let b1 = self.next_internal_token(KIND_EMU);
                let b2 = self.next_internal_token(KIND_EMU);
                let signal = self.machine.create_signal();
                self.machine.push_barrier(queue, None, b1);
                self.machine.push_barrier(queue, Some(signal), b2);
                self.machine.push_dispatch(queue, kernel, tag);
                self.emu_on_barrier.insert(
                    b1,
                    EmuPending {
                        queue,
                        required_cus: required,
                        signal,
                    },
                );
                self.emu_b2_tags.insert(b2);
                self.emulated_launches += 1;
                self.emulated_launches_total.inc(1);
            }
        }
    }

    /// The conservative right-size for a kernel: the profiled minimum,
    /// or the full device on a miss (the baseline behavior) or a stale
    /// entry (recorded as a [`KrispError::StalePerfDbEntry`]).
    fn right_size(&mut self, kernel: &KernelDesc) -> u16 {
        let total = self.machine.topology().total_cus();
        let sized = match self.perfdb.lookup_validated(kernel, total) {
            Ok(Some(cus)) => cus,
            Ok(None) => total,
            Err(e) => {
                self.obs.metrics.inc("krisp_perfdb_stale_total", &[], 1);
                self.errors.push(e);
                total
            }
        };
        self.widening.apply(sized, total)
    }

    /// Registers a client timer.
    ///
    /// # Panics
    ///
    /// Panics if `token` has the internal reservation bit (bit 63) set.
    pub fn add_timer(&mut self, delay: SimDuration, token: u64) {
        assert_eq!(token & INTERNAL_BIT, 0, "token bit 63 is reserved");
        self.machine.add_timer(delay, token);
    }

    /// The instant of the runtime's next event (`None` when drained) —
    /// see `Machine::next_event_at`.
    pub fn next_event_at(&self) -> Option<krisp_sim::SimTime> {
        if !self.buffered.is_empty() {
            return Some(self.machine.now());
        }
        self.machine.next_event_at()
    }

    /// Advances simulated time while the device is idle (think time).
    ///
    /// # Panics
    ///
    /// Propagates the machine's panics if work is actually in flight.
    pub fn advance_idle(&mut self, dt: SimDuration) {
        self.machine.advance_idle(dt);
    }

    /// Advances to the next client-visible event, or `None` when the
    /// simulation has fully drained. Internal emulation events (barrier
    /// callbacks, IOCTL completions) are handled transparently.
    pub fn step(&mut self) -> Option<RtEvent> {
        if let Some(ev) = self.buffered.pop_front() {
            return Some(ev);
        }
        loop {
            let ev = self.machine.step()?;
            match ev {
                SimEvent::KernelStarted {
                    queue,
                    tag,
                    at,
                    mask,
                } => {
                    self.arm_watchdog(queue, tag, at, &mask);
                    return Some(RtEvent::KernelStarted {
                        stream: queue.into(),
                        tag,
                        at,
                        mask,
                    });
                }
                SimEvent::KernelCompleted { queue, tag, at } => {
                    self.disarm_watchdog(queue, tag);
                    if let Some(budget) = self.retry_budget.as_mut() {
                        budget.record_success(at);
                    }
                    return Some(RtEvent::KernelCompleted {
                        stream: queue.into(),
                        tag,
                        at,
                    });
                }
                SimEvent::CusFailed { mask, at } => {
                    return Some(RtEvent::CusFailed { mask, at });
                }
                SimEvent::TimerFired { token, at } => {
                    if token & INTERNAL_BIT == 0 {
                        return Some(RtEvent::TimerFired { token, at });
                    }
                    if let Some(ev) = self.handle_internal_timer(token, at) {
                        return Some(ev);
                    }
                }
                SimEvent::BarrierConsumed { tag, .. } => {
                    if let Some(pending) = self.emu_on_barrier.remove(&tag) {
                        // B1 consumed: schedule the runtime callback +
                        // IOCTL, after which the queue mask is rewritten
                        // and B2 released.
                        let costs = match self.mode {
                            PartitionMode::KernelScopedEmulated(c) => c,
                            _ => unreachable!("emulation barrier outside emulated mode"),
                        };
                        let token = self.next_internal_token(KIND_EMU);
                        let started = self.machine.now();
                        self.obs
                            .bus
                            .emit(started.as_nanos(), || EventKind::ReconfigStart {
                                queue: pending.queue.0,
                                token,
                            });
                        self.emu_on_timer.insert(token, (pending, started));
                        self.machine.add_timer(costs.per_kernel(), token);
                    } else {
                        // B2 barriers are release fences; nothing to do.
                        self.emu_b2_tags.remove(&tag);
                    }
                }
            }
        }
    }

    /// Runs until fully drained, returning all events.
    pub fn run_to_idle(&mut self) -> Vec<RtEvent> {
        let mut evs = Vec::new();
        while let Some(ev) = self.step() {
            evs.push(ev);
        }
        evs
    }

    /// Routes an internal timer to its subsystem. Returns a client event
    /// only when a kernel is abandoned.
    fn handle_internal_timer(&mut self, token: u64, at: SimTime) -> Option<RtEvent> {
        match token & KIND_BITS {
            KIND_WATCHDOG => {
                // A missing arm means the kernel completed before its
                // deadline fired — the timer is stale.
                let arm = self.wd_armed.remove(&token)?;
                self.handle_watchdog_deadline(arm, at)
            }
            KIND_RELEASE => {
                if let Some(queue) = self.wd_release.remove(&token) {
                    // Backoff elapsed: let the command processor re-pop
                    // the retried packet.
                    self.machine.release_queue(queue);
                }
                None
            }
            KIND_MASK_RETRY => {
                if let Some(retry) = self.mask_retry.remove(&token) {
                    self.apply_emulated_mask(retry.pending, retry.mask, retry.attempt + 1);
                }
                None
            }
            _ => {
                self.finish_emulated_reconfiguration(token);
                None
            }
        }
    }

    /// Arms a watchdog deadline for a kernel that just started.
    fn arm_watchdog(&mut self, queue: QueueId, tag: u64, at: SimTime, mask: &CuMask) {
        let Some(wd) = self.watchdog else { return };
        let Some(desc) = self.launched.get(&(queue, tag)) else {
            return;
        };
        let expected = desc.isolated_latency(mask.count());
        let token = self.next_internal_token(KIND_WATCHDOG);
        self.wd_armed.insert(
            token,
            WdArm {
                queue,
                tag,
                started: at,
                expected,
            },
        );
        self.wd_by_kernel.insert((queue, tag), token);
        self.machine.add_timer(wd.deadline(expected), token);
    }

    /// Clears all watchdog state for a kernel that completed normally.
    fn disarm_watchdog(&mut self, queue: QueueId, tag: u64) {
        let key = (queue, tag);
        if let Some(token) = self.wd_by_kernel.remove(&key) {
            // The deadline timer still fires later; removing the arm
            // marks it stale.
            self.wd_armed.remove(&token);
        }
        self.wd_attempts.remove(&key);
        self.launched.remove(&key);
    }

    /// A kernel blew its deadline: abort it, then retry after backoff or
    /// abandon it once the retry budget is spent.
    fn handle_watchdog_deadline(&mut self, arm: WdArm, at: SimTime) -> Option<RtEvent> {
        let wd = self.watchdog.unwrap_or_default();
        let key = (arm.queue, arm.tag);
        self.wd_by_kernel.remove(&key);
        let Some(packet) = self.machine.abort_inflight(arm.queue) else {
            // The kernel slipped out between deadline computation and
            // firing; nothing in flight to abort.
            return None;
        };
        if packet.tag != arm.tag {
            // A different kernel is in flight (should not happen with
            // serial queues); put it back untouched and report the bug.
            self.machine.push_packet_front(arm.queue, packet.into());
            self.machine.release_queue(arm.queue);
            self.errors.push(KrispError::InternalState {
                detail: format!(
                    "watchdog for tag {} aborted tag mismatch on {}",
                    arm.tag, arm.queue
                ),
            });
            return None;
        }
        let attempts = {
            let a = self.wd_attempts.entry(key).or_insert(0);
            *a += 1;
            *a
        };
        let ran = at.saturating_since(arm.started);
        self.obs
            .bus
            .emit(at.as_nanos(), || EventKind::KernelTimeout {
                queue: arm.queue.0,
                tag: arm.tag,
                ran_ns: ran.as_nanos(),
                expected_ns: arm.expected.as_nanos(),
            });
        self.obs.metrics.inc("krisp_kernel_timeouts_total", &[], 1);
        // The retry budget is evaluated lazily here rather than via its
        // own timer (the 2-bit internal-token kind field is full). Window
        // expiry deterministically precedes the allowance check when both
        // land on this tick — see `budget` module docs for the tie-break.
        let mut budget_denied = false;
        if attempts <= wd.max_retries {
            let granted = match self.retry_budget.as_mut() {
                Some(budget) => budget.try_spend(at),
                None => true,
            };
            if granted {
                self.obs.bus.emit(at.as_nanos(), || EventKind::KernelRetry {
                    queue: arm.queue.0,
                    tag: arm.tag,
                    attempt: attempts,
                });
                self.obs.metrics.inc("krisp_kernel_retries_total", &[], 1);
                self.machine
                    .push_packet_front(arm.queue, AqlPacket::Dispatch(packet));
                // The queue stays held until the backoff elapses; attempt n
                // backs off n × the base.
                let token = self.next_internal_token(KIND_RELEASE);
                self.wd_release.insert(token, arm.queue);
                self.machine.add_timer(wd.backoff * attempts as u64, token);
                return None;
            }
            budget_denied = true;
            self.obs
                .bus
                .emit(at.as_nanos(), || EventKind::RetryBudgetExhausted {
                    queue: arm.queue.0,
                    tag: arm.tag,
                });
            self.obs
                .metrics
                .inc("krisp_retry_budget_denied_total", &[], 1);
        }
        self.obs
            .bus
            .emit(at.as_nanos(), || EventKind::KernelAbandoned {
                queue: arm.queue.0,
                tag: arm.tag,
                attempts,
            });
        self.obs
            .metrics
            .inc("krisp_kernels_abandoned_total", &[], 1);
        self.wd_attempts.remove(&key);
        self.launched.remove(&key);
        // Drop the packet and let the rest of the stream continue.
        self.machine.release_queue(arm.queue);
        let error = if budget_denied {
            KrispError::RetryBudgetExhausted {
                stream: arm.queue.0,
                tag: arm.tag,
            }
        } else {
            KrispError::KernelTimeout {
                stream: arm.queue.0,
                tag: arm.tag,
                attempts,
            }
        };
        self.errors.push(error.clone());
        Some(RtEvent::KernelFailed {
            stream: arm.queue.into(),
            tag: arm.tag,
            at,
            error,
        })
    }

    fn finish_emulated_reconfiguration(&mut self, token: u64) {
        let Some((pending, started)) = self.emu_on_timer.remove(&token) else {
            self.errors.push(KrispError::InternalState {
                detail: format!("internal timer {token:#x} without pending reconfiguration"),
            });
            return;
        };
        let Some(allocator) = self.emu_allocator.as_mut() else {
            self.errors.push(KrispError::InternalState {
                detail: "emulation step without an allocator".to_string(),
            });
            self.machine.complete_signal(pending.signal);
            return;
        };
        let topo = self.machine.topology();
        let mask = allocator.allocate(pending.required_cus, self.machine.counters(), &topo);
        self.obs
            .bus
            .emit(self.machine.now().as_nanos(), || EventKind::ReconfigEnd {
                queue: pending.queue.0,
                token,
                start_ns: started.as_nanos(),
                granted_cus: mask.count(),
            });
        self.apply_emulated_mask(pending, mask, 1);
    }

    /// Applies the reconfigured mask for an emulated launch, retrying
    /// rejected IOCTLs with bounded backoff and permanently falling back
    /// to stream-scoped masking once the budget is exhausted.
    fn apply_emulated_mask(&mut self, pending: EmuPending, mask: CuMask, attempt: u32) {
        match self.machine.set_queue_mask(pending.queue, mask) {
            Ok(()) => self.machine.complete_signal(pending.signal),
            Err(MachineError::MaskApplyRejected(_)) => {
                let wd = self.watchdog.unwrap_or_default();
                if attempt <= wd.max_retries {
                    self.obs
                        .metrics
                        .inc("krisp_mask_apply_retries_total", &[], 1);
                    let token = self.next_internal_token(KIND_MASK_RETRY);
                    self.mask_retry.insert(
                        token,
                        MaskRetry {
                            pending,
                            mask,
                            attempt,
                        },
                    );
                    self.machine.add_timer(wd.backoff * attempt as u64, token);
                } else {
                    let now = self.machine.now().as_nanos();
                    self.obs.bus.emit(now, || EventKind::FallbackStreamScoped {
                        queue: pending.queue.0,
                    });
                    self.obs.metrics.inc("krisp_stream_fallbacks_total", &[], 1);
                    self.stream_fallback.insert(pending.queue);
                    self.errors.push(KrispError::MaskApply {
                        stream: pending.queue.0,
                        attempts: attempt,
                    });
                    // Run the pending kernel on the stream's last good
                    // mask instead of deadlocking it.
                    self.machine.complete_signal(pending.signal);
                }
            }
            Err(e) => {
                self.errors.push(e.into());
                self.machine.complete_signal(pending.signal);
            }
        }
    }

    fn next_internal_token(&mut self, kind: u64) -> u64 {
        debug_assert_eq!(kind & !KIND_BITS, 0, "kind outside its field");
        let t = INTERNAL_BIT | kind | self.next_internal;
        self.next_internal += 1;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::RetryBudgetConfig;
    use krisp_sim::FaultPlan;

    fn kernel(work: f64, p: u16) -> KernelDesc {
        KernelDesc::new("test_kernel", work, p)
    }

    fn completions(evs: &[RtEvent]) -> Vec<(u64, u64)> {
        evs.iter()
            .filter_map(|e| match e {
                RtEvent::KernelCompleted { tag, at, .. } => Some((*tag, at.as_nanos())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn stream_masking_passthrough() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let s = rt.create_stream();
        rt.set_stream_mask(s, CuMask::first_n(15, &rt.topology()))
            .unwrap();
        rt.launch(s, kernel(1.5e6, 60), 3);
        let evs = rt.run_to_idle();
        // 5us launch + 1.5e6/15 = 100us.
        assert_eq!(completions(&evs), vec![(3, 105_000)]);
    }

    #[test]
    fn native_mode_right_sizes_from_perfdb() {
        let mut config = RuntimeConfig {
            mode: PartitionMode::KernelScopedNative,
            ..RuntimeConfig::default()
        };
        let k = kernel(1.0e6, 60);
        Arc::make_mut(&mut config.perfdb).insert(&k, 10);
        // FullMaskAllocator ignores the size, so to observe the request we
        // use a capturing allocator.
        #[derive(Debug)]
        struct Capture(std::sync::Arc<std::sync::Mutex<Vec<u16>>>);
        impl MaskAllocator for Capture {
            fn allocate(
                &mut self,
                requested: u16,
                _c: &CuKernelCounters,
                topo: &GpuTopology,
            ) -> CuMask {
                self.0.lock().unwrap().push(requested);
                CuMask::first_n(requested, topo)
            }
        }
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        config.allocator = Box::new(Capture(seen.clone()));
        let mut rt = Runtime::new(config);
        let s = rt.create_stream();
        rt.launch(s, k.clone(), 0);
        // Unprofiled kernel falls back to the full device.
        rt.launch(s, kernel(2.0e6, 60).with_grid_threads(777), 1);
        let evs = rt.run_to_idle();
        assert_eq!(&*seen.lock().unwrap(), &[10, 60]);
        let masks: Vec<u16> = evs
            .iter()
            .filter_map(|e| match e {
                RtEvent::KernelStarted { mask, .. } => Some(mask.count()),
                _ => None,
            })
            .collect();
        assert_eq!(masks, vec![10, 60]);
    }

    #[test]
    fn emulated_mode_adds_reconfiguration_latency() {
        let costs = EmulationCosts::default(); // 5 + 25 us
        let mut config = RuntimeConfig {
            mode: PartitionMode::KernelScopedEmulated(costs),
            ..RuntimeConfig::default()
        };
        let k = kernel(6.0e6, 60);
        Arc::make_mut(&mut config.perfdb).insert(&k, 60);
        let mut rt = Runtime::new(config);
        let s = rt.create_stream();
        rt.launch(s, k, 9);
        let evs = rt.run_to_idle();
        // Reconfig (30us) + launch (5us) + exec (100us).
        assert_eq!(completions(&evs), vec![(9, 135_000)]);
        assert_eq!(rt.emulated_launches(), 1);
    }

    #[test]
    fn emulated_mode_rewrites_queue_mask_per_kernel() {
        #[derive(Debug)]
        struct FirstN;
        impl MaskAllocator for FirstN {
            fn allocate(
                &mut self,
                requested: u16,
                _c: &CuKernelCounters,
                topo: &GpuTopology,
            ) -> CuMask {
                CuMask::first_n(requested, topo)
            }
        }
        let mut config = RuntimeConfig {
            mode: PartitionMode::KernelScopedEmulated(EmulationCosts::default()),
            allocator: Box::new(FirstN),
            ..RuntimeConfig::default()
        };
        let ka = kernel(1.0e6, 60).with_grid_threads(1);
        let kb = kernel(1.0e6, 60).with_grid_threads(2);
        Arc::make_mut(&mut config.perfdb).insert(&ka, 10);
        Arc::make_mut(&mut config.perfdb).insert(&kb, 30);
        let mut rt = Runtime::new(config);
        let s = rt.create_stream();
        rt.launch(s, ka, 0);
        rt.launch(s, kb, 1);
        let evs = rt.run_to_idle();
        let masks: Vec<u16> = evs
            .iter()
            .filter_map(|e| match e {
                RtEvent::KernelStarted { mask, .. } => Some(mask.count()),
                _ => None,
            })
            .collect();
        assert_eq!(masks, vec![10, 30]);
        // The stream mask ends at the last kernel's partition — the
        // emulation leaves it behind, exactly like the real API would.
        assert_eq!(rt.stream_mask(s).unwrap().count(), 30);
    }

    #[test]
    fn l_over_accounting_matches_paper_formula() {
        // L_over = L_emu_base - L_real_base with an all-CU allocator, and
        // it should equal per-kernel emulation cost x kernel count.
        let run = |mode: PartitionMode| {
            let mut rt = Runtime::new(RuntimeConfig {
                mode,
                ..RuntimeConfig::default()
            });
            let s = rt.create_stream();
            for i in 0..10 {
                rt.launch(s, kernel(1.0e6, 60), i);
            }
            rt.run_to_idle();
            rt.now()
        };
        let costs = EmulationCosts::default();
        let real = run(PartitionMode::StreamMasking);
        let emu = run(PartitionMode::KernelScopedEmulated(costs));
        let l_over = emu.saturating_since(real);
        assert_eq!(l_over, costs.per_kernel() * 10);
    }

    #[test]
    fn client_timers_pass_through() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        rt.add_timer(SimDuration::from_micros(7), 55);
        let evs = rt.run_to_idle();
        assert_eq!(
            evs,
            vec![RtEvent::TimerFired {
                token: 55,
                at: SimTime::ZERO + SimDuration::from_micros(7)
            }]
        );
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn internal_tag_bit_is_rejected() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let s = rt.create_stream();
        rt.launch(s, kernel(1.0, 1), 1 << 63);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let run = |faults: FaultPlan| {
            let mut rt = Runtime::new(RuntimeConfig {
                jitter_sigma: 0.05,
                faults: Arc::new(faults),
                ..RuntimeConfig::default()
            });
            let s = rt.create_stream();
            for i in 0..5 {
                rt.launch(s, kernel(2.0e6, 30), i);
            }
            let evs = rt.run_to_idle();
            (rt.now(), rt.energy_joules().to_bits(), evs)
        };
        assert_eq!(run(FaultPlan::new()), run(FaultPlan::default()));
    }

    #[test]
    fn cu_failures_surface_as_client_events() {
        let topo = GpuTopology::MI50;
        let mut rt = Runtime::new(RuntimeConfig {
            faults: Arc::new(
                FaultPlan::new().fail_cus(SimTime::from_nanos(50_000), CuMask::first_n(15, &topo)),
            ),
            ..RuntimeConfig::default()
        });
        let s = rt.create_stream();
        rt.launch(s, kernel(6.0e6, 60), 0);
        let evs = rt.run_to_idle();
        assert!(evs
            .iter()
            .any(|e| matches!(e, RtEvent::CusFailed { mask, .. } if mask.count() == 15)));
        assert_eq!(rt.failed_cus().count(), 15);
        assert_eq!(rt.healthy_mask().count(), 45);
        // The kernel still completes, just slower on 45 CUs.
        assert_eq!(completions(&evs).len(), 1);
    }

    #[test]
    fn watchdog_retries_straggler_then_succeeds() {
        // A straggler window elongates the first dispatch 100x; the
        // watchdog aborts it, backs off, and the retry (outside the
        // window) runs clean.
        let mut rt = Runtime::new(RuntimeConfig {
            faults: Arc::new(FaultPlan::new().straggle_all(
                SimTime::ZERO,
                100.0,
                SimDuration::from_micros(20),
            )),
            watchdog: Some(WatchdogConfig {
                multiplier: 2.0,
                min_timeout: SimDuration::from_micros(10),
                max_retries: 3,
                backoff: SimDuration::from_micros(20),
            }),
            ..RuntimeConfig::default()
        });
        let s = rt.create_stream();
        // 1e6 work on 60 CUs ≈ 16.7us expected; straggled = 1.67ms.
        rt.launch(s, kernel(1.0e6, 60), 7);
        let evs = rt.run_to_idle();
        let starts = evs
            .iter()
            .filter(|e| matches!(e, RtEvent::KernelStarted { .. }))
            .count();
        assert!(starts >= 2, "expected a retry start, got {evs:?}");
        assert_eq!(completions(&evs).len(), 1);
        assert!(!evs
            .iter()
            .any(|e| matches!(e, RtEvent::KernelFailed { .. })));
        assert!(rt.errors().is_empty());
    }

    #[test]
    fn watchdog_abandons_permanent_straggler() {
        // The straggle window outlives every retry: the kernel is
        // eventually abandoned and the stream continues.
        let mut rt = Runtime::new(RuntimeConfig {
            faults: Arc::new(FaultPlan::new().straggle_all(
                SimTime::ZERO,
                1000.0,
                SimDuration::from_millis(100),
            )),
            watchdog: Some(WatchdogConfig {
                multiplier: 2.0,
                min_timeout: SimDuration::from_micros(5),
                max_retries: 2,
                backoff: SimDuration::from_micros(5),
            }),
            ..RuntimeConfig::default()
        });
        let s = rt.create_stream();
        rt.launch(s, kernel(1.0e6, 60), 1);
        let evs = rt.run_to_idle();
        let failed: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                RtEvent::KernelFailed { tag, error, .. } => Some((*tag, error.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0, 1);
        assert!(matches!(
            failed[0].1,
            KrispError::KernelTimeout { attempts: 3, .. }
        ));
        assert!(completions(&evs).is_empty());
        assert_eq!(rt.errors().len(), 1);
    }

    #[test]
    fn mask_apply_faults_retry_then_fall_back_to_stream_scoped() {
        // Reject mask IOCTLs on the stream for a long window: the first
        // emulated launch exhausts its retries, the stream downgrades to
        // stream-scoped masking, and both kernels still complete.
        let mut rt = Runtime::new(RuntimeConfig {
            mode: PartitionMode::KernelScopedEmulated(EmulationCosts::default()),
            faults: Arc::new(FaultPlan::new().reject_mask_apply(
                SimTime::ZERO,
                QueueId(0),
                SimDuration::from_millis(500),
            )),
            ..RuntimeConfig::default()
        });
        let s = rt.create_stream();
        rt.launch(s, kernel(1.0e6, 60), 0);
        let evs = rt.run_to_idle();
        assert_eq!(completions(&evs).len(), 1);
        assert_eq!(rt.stream_fallbacks(), vec![s]);
        assert!(rt
            .errors()
            .iter()
            .any(|e| matches!(e, KrispError::MaskApply { stream: 0, .. })));
        assert_eq!(rt.emulated_launches(), 1);
        // The degraded stream now skips the emulation machinery entirely:
        // later launches are plain stream-scoped dispatches.
        rt.launch(s, kernel(1.0e6, 60), 1);
        let evs = rt.run_to_idle();
        assert_eq!(completions(&evs).len(), 1);
        assert_eq!(rt.emulated_launches(), 1);
    }

    #[test]
    fn mask_apply_fault_clears_within_retry_budget() {
        // A short rejection window: the retry succeeds and kernel-scoped
        // emulation keeps working (no fallback, no errors).
        let mut rt = Runtime::new(RuntimeConfig {
            mode: PartitionMode::KernelScopedEmulated(EmulationCosts::default()),
            faults: Arc::new(FaultPlan::new().reject_mask_apply(
                SimTime::ZERO,
                QueueId(0),
                SimDuration::from_micros(40),
            )),
            watchdog: Some(WatchdogConfig {
                backoff: SimDuration::from_micros(30),
                ..WatchdogConfig::default()
            }),
            ..RuntimeConfig::default()
        });
        let s = rt.create_stream();
        rt.launch(s, kernel(1.0e6, 60), 0);
        let evs = rt.run_to_idle();
        assert_eq!(completions(&evs).len(), 1);
        assert!(rt.stream_fallbacks().is_empty());
        assert!(rt.errors().is_empty());
    }

    #[test]
    fn stale_perfdb_entry_degrades_to_full_device() {
        let mut config = RuntimeConfig {
            mode: PartitionMode::KernelScopedNative,
            ..RuntimeConfig::default()
        };
        let k = kernel(1.0e6, 60);
        Arc::make_mut(&mut config.perfdb).insert(&k, 999); // profiled on other hardware
        let mut rt = Runtime::new(config);
        let s = rt.create_stream();
        rt.launch(s, k, 0);
        let evs = rt.run_to_idle();
        assert_eq!(completions(&evs).len(), 1);
        let errors = rt.take_errors();
        assert_eq!(errors.len(), 1);
        assert!(matches!(
            errors[0],
            KrispError::StalePerfDbEntry { profiled: 999, .. }
        ));
        assert!(rt.errors().is_empty());
    }

    #[test]
    fn retry_budget_denial_abandons_with_typed_error() {
        // A permanent straggler with a generous per-kernel retry cap but
        // a tiny global budget: the first retry is granted by the floor,
        // the second is denied, and the kernel is abandoned with the
        // budget-specific error (not a plain timeout).
        let mut rt = Runtime::new(RuntimeConfig {
            faults: Arc::new(FaultPlan::new().straggle_all(
                SimTime::ZERO,
                1000.0,
                SimDuration::from_millis(100),
            )),
            watchdog: Some(WatchdogConfig {
                multiplier: 2.0,
                min_timeout: SimDuration::from_micros(5),
                max_retries: 10,
                backoff: SimDuration::from_micros(5),
            }),
            retry_budget: Some(RetryBudgetConfig {
                ratio: 0.0,
                window: SimDuration::from_secs(1),
                min_retries: 1,
            }),
            ..RuntimeConfig::default()
        });
        let s = rt.create_stream();
        rt.launch(s, kernel(1.0e6, 60), 4);
        let evs = rt.run_to_idle();
        let failed: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                RtEvent::KernelFailed { error, .. } => Some(error.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(failed.len(), 1);
        assert!(matches!(
            failed[0],
            KrispError::RetryBudgetExhausted { tag: 4, .. }
        ));
        assert_eq!(rt.retry_budget_counters(), (1, 1));
    }

    #[test]
    fn retry_budget_without_pressure_is_bit_identical() {
        // Same-seed regression for the budget wiring (and the
        // expiry-before-check tie-break): with no faults the budget only
        // records successes, so enabling it must not perturb a single
        // bit of the execution.
        let run = |budget: Option<RetryBudgetConfig>| {
            let mut rt = Runtime::new(RuntimeConfig {
                jitter_sigma: 0.05,
                watchdog: Some(WatchdogConfig::default()),
                retry_budget: budget,
                ..RuntimeConfig::default()
            });
            let s = rt.create_stream();
            for i in 0..8 {
                rt.launch(s, kernel(2.0e6, 30), i);
            }
            let evs = rt.run_to_idle();
            (rt.now(), rt.energy_joules().to_bits(), evs)
        };
        assert_eq!(run(None), run(Some(RetryBudgetConfig::default())));
        // And the budget path itself replays bit-identically.
        assert_eq!(
            run(Some(RetryBudgetConfig::default())),
            run(Some(RetryBudgetConfig::default()))
        );
    }

    #[test]
    fn mask_widening_widens_then_narrows_back() {
        #[derive(Debug)]
        struct FirstN;
        impl MaskAllocator for FirstN {
            fn allocate(
                &mut self,
                requested: u16,
                _c: &CuKernelCounters,
                topo: &GpuTopology,
            ) -> CuMask {
                CuMask::first_n(requested, topo)
            }
        }
        let mut config = RuntimeConfig {
            mode: PartitionMode::KernelScopedNative,
            allocator: Box::new(FirstN),
            ..RuntimeConfig::default()
        };
        let k = kernel(1.0e6, 60);
        Arc::make_mut(&mut config.perfdb).insert(&k, 10);
        let mut rt = Runtime::new(config);
        let s = rt.create_stream();
        rt.launch(s, k.clone(), 0);
        rt.set_mask_widening(MaskWidening::Factor(200));
        rt.launch(s, k.clone(), 1);
        rt.set_mask_widening(MaskWidening::FullDevice);
        rt.launch(s, k.clone(), 2);
        rt.set_mask_widening(MaskWidening::None);
        rt.launch(s, k, 3);
        let evs = rt.run_to_idle();
        let masks: Vec<u16> = evs
            .iter()
            .filter_map(|e| match e {
                RtEvent::KernelStarted { mask, .. } => Some(mask.count()),
                _ => None,
            })
            .collect();
        assert_eq!(masks, vec![10, 20, 60, 10]);
        // Factor widening saturates at the device size.
        assert_eq!(MaskWidening::Factor(900).apply(10, 60), 60);
        assert_eq!(MaskWidening::Factor(100).apply(10, 60), 10);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut rt = Runtime::new(RuntimeConfig {
                jitter_sigma: 0.05,
                ..RuntimeConfig::default()
            });
            let s = rt.create_stream();
            for i in 0..5 {
                rt.launch(s, kernel(2.0e6, 30), i);
            }
            rt.run_to_idle();
            (rt.now(), rt.energy_joules().to_bits())
        };
        assert_eq!(run(), run());
    }
}
