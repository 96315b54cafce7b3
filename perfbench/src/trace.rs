//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name, a start, an end, a parent and the id of the run
//! (operation) it belongs to. Spans are kept in memory and written out
//! once, when the traced run ends. A span's layer is its name up to the
//! first `.`; its self time is its duration minus the time its child
//! spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.engine_replay`.
    pub name: String,
    /// Host ns since the tracer started.
    pub start_ns: u64,
    /// Host ns since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation (run) the span belongs to; 0 outside any run.
    pub run: u32,
}

impl Span {
    /// The span's duration, host ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer the span's name starts with.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records spans when enabled; otherwise only runs the wrapped code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    /// A tracer that records.
    pub fn recording() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::recording()
        }
    }

    /// Tags the spans opened from now on with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `(count, total ns)` of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, ns), s| (n + 1, ns + s.ns()))
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Self time summed per layer, host ns.
    pub fn layer_self_ns(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.layer().to_string()).or_insert(0) += own;
        }
        out
    }

    /// The span file: a JSON array, one object per span, with its self
    /// time precomputed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"run\":{},\"name\":{:?},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}{sep}",
                s.run, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        out.push(']');
        out
    }
}
