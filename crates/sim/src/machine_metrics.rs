//! The [`Machine`](crate::Machine)'s metric series, resolved to handles
//! once (per CU at construction, per queue at creation), so recording on
//! the per-kernel path builds no key and formats no label.

use krisp_obs::{CounterHandle, GaugeHandle, Metrics};

use crate::queue::QueueId;
use crate::topology::GpuTopology;

/// One queue's series.
pub(crate) struct QueueSeries {
    /// `krisp_kernel_busy_ns{queue}`.
    pub(crate) busy_ns: CounterHandle,
    /// `krisp_queue_depth{queue}`.
    pub(crate) depth: GaugeHandle,
}

/// Every series the machine records per kernel. Empty when metrics are
/// disabled: nothing is resolved and no label is formatted, and the
/// machine only records behind a `Metrics::enabled` branch.
#[derive(Default)]
pub(crate) struct MachineSeries {
    /// Indexed by queue id.
    queues: Vec<QueueSeries>,
    /// `krisp_cu_allocated_ns{cu}`, indexed by global CU id.
    pub(crate) cu_allocated_ns: Vec<CounterHandle>,
    /// `krisp_kernel_dispatches_total{mode="kernel_scoped"}`.
    pub(crate) kernel_scoped: CounterHandle,
    /// `krisp_kernel_dispatches_total{mode="queue_mask"}`.
    pub(crate) queue_mask: CounterHandle,
}

impl MachineSeries {
    pub(crate) fn new(metrics: &Metrics, topology: &GpuTopology) -> MachineSeries {
        if !metrics.enabled() {
            return MachineSeries::default();
        }
        let dispatches = |mode| metrics.counter("krisp_kernel_dispatches_total", &[("mode", mode)]);
        MachineSeries {
            queues: Vec::new(),
            cu_allocated_ns: (0..topology.total_cus())
                .map(|cu| metrics.counter("krisp_cu_allocated_ns", &[("cu", &cu.to_string())]))
                .collect(),
            kernel_scoped: dispatches("kernel_scoped"),
            queue_mask: dispatches("queue_mask"),
        }
    }

    /// Resolves the series of a newly created queue.
    pub(crate) fn add_queue(&mut self, metrics: &Metrics, queue: QueueId) {
        if !metrics.enabled() {
            return;
        }
        let label = queue.0.to_string();
        let labels = [("queue", label.as_str())];
        self.queues.push(QueueSeries {
            busy_ns: metrics.counter("krisp_kernel_busy_ns", &labels),
            depth: metrics.gauge("krisp_queue_depth", &labels),
        });
    }

    /// The series of `queue` (metrics enabled only).
    pub(crate) fn queue(&self, queue: QueueId) -> &QueueSeries {
        &self.queues[queue.0 as usize]
    }
}
