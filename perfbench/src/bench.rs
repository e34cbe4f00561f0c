//! What every workload shares: the op record, the benchmark's own spans,
//! the per-op layer counters read from `RunStats`/`TrafficSnapshot`, and
//! the timed loop.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use triolet::{ClusterConfig, RunStats, SimCore, TraceData, TraceHandle, Track, TrafficSnapshot};

use crate::host::peak_rss_mib;
use crate::stats::{median, Samples};

/// One op as the timed loop sees it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Op {
    /// Host seconds spent inside Triolet calls (not references, not checks).
    pub host_s: f64,
    /// Host seconds of the sequential reference re-timed in the same op.
    pub seq_s: f64,
    /// Modeled cluster seconds of the op.
    pub makespan_s: f64,
    /// The op's speedup over its reference (reference host s / makespan).
    pub speedup: f64,
    /// Submit-to-finish seconds on the virtual clock; `None` for a job the
    /// set-up submitted (its wait is set-up, not steady state).
    pub latency_s: Option<f64>,
    /// Every result of the op matched its reference.
    pub ok: bool,
}

/// A seeded workload driving the public API of the virtual-time cluster.
pub trait Workload {
    /// Run one op: the Triolet calls, the reference, the checks. Per-op
    /// layer quantities go into `layers`.
    fn op(&mut self, tr: &Tracer, layers: &mut Samples) -> Op;

    /// The runtime timeline recorded since the last call (empty unless the
    /// runtime was built with tracing on).
    fn take_runtime_trace(&mut self) -> TraceData;

    /// Host seconds of one op's Triolet calls on a fresh runtime whose
    /// virtual-time simulator is `core` (median of a few).
    fn sweep_host_s(&self, core: SimCore) -> f64;

    /// The cluster shape the workload runs on.
    fn config(&self) -> ClusterConfig;

    /// Host seconds of the workload's sequential reference, the unit
    /// `setup_s` is measured in.
    fn reference_s(&self) -> f64;

    /// Workload-level numbers read once after a pass (service aggregates).
    fn finish(&mut self, _layers: &mut Samples) {}
}

/// The benchmark's own spans, on the host clock, around every call it makes
/// into a layer. Off: a single branch per call site.
pub struct Tracer {
    handle: TraceHandle,
    origin: Instant,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer { handle: TraceHandle::disabled(), origin: Instant::now() }
    }

    pub fn on() -> Self {
        Tracer { handle: TraceHandle::recording(), origin: Instant::now() }
    }

    pub fn enabled(&self) -> bool {
        self.handle.enabled()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let t0 = self.origin.elapsed().as_secs_f64();
        let r = f();
        let t1 = self.origin.elapsed().as_secs_f64();
        self.handle.span(name, "bench", Track::Root, t0, t1, vec![]);
        r
    }

    pub fn take(&self) -> TraceData {
        self.handle.take()
    }
}

/// Host seconds of `f`, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Median host seconds of `reps` runs of `f`.
pub fn median_s<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| timed(|| black_box(f())).1).collect();
    median(&times)
}

/// Record the per-op counters of one op's combined `stats` and the traffic
/// `delta` the cluster counted across the same calls.
pub fn push_counters(
    layers: &mut Samples,
    stats: &RunStats,
    delta: &TrafficSnapshot,
    nodes: usize,
) {
    let node_busy: f64 = stats.node_compute_s.iter().sum();
    let capacity = nodes as f64 * stats.total_s;
    layers.push("cluster.bytes_out", stats.bytes_out as f64);
    layers.push("cluster.bytes_back", stats.bytes_back as f64);
    layers.push("cluster.messages", stats.messages as f64);
    layers.push("cluster.env_packs", delta.env_packs as f64);
    layers.push("cluster.retries", stats.retries as f64);
    layers.push("cluster.redispatches", stats.redispatches as f64);
    layers.push("cluster.comm_s", stats.comm_s);
    layers.push("cluster.compute_span_s", stats.compute_span_s());
    layers.push("cluster.node_busy_frac", if capacity > 0.0 { node_busy / capacity } else { 0.0 });
    layers.push("cluster.sim_events", delta.sim_events as f64);
    layers.push("core.root_s", stats.root_s);
    layers.push("core.resident_hits", stats.resident_hits as f64);
    layers.push("core.resident_misses", stats.resident_misses as f64);
    layers.push("serial.unpack_copied_bytes", stats.unpack_copied as f64);
    layers.push("serial.unpack_aliased_bytes", stats.unpack_aliased as f64);
    let counted = stats.bytes_out + stats.bytes_back;
    layers.push("obs.counter_drift_bytes", counted.abs_diff(delta.bytes) as f64);
}

/// `peak_rss_mib` is read after this many ops (or at the end of a shorter
/// run): a workload whose memory grows with every op then reports the same
/// value however fast the host ran.
pub const RSS_OPS: usize = 65_536;

/// Everything one timed pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    pub ops: Vec<Op>,
    pub attempted: u64,
    pub failed: u64,
    /// Host seconds the pass ran.
    pub wall_s: f64,
    /// Peak resident memory after `RSS_OPS` ops, if the pass got there.
    pub rss_mib: Option<f64>,
    /// Runtime spans recorded per op (traced runtimes only).
    pub runtime_spans: Vec<f64>,
    /// The first op's runtime timeline, kept for export.
    pub first_runtime_trace: TraceData,
}

impl Pass {
    pub fn series(&self, f: impl Fn(&Op) -> f64) -> Vec<f64> {
        self.ops.iter().map(f).collect()
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.ops.iter().filter_map(|o| o.latency_s).collect()
    }
}

/// One op whose results all checked out; `None` on a failed check, an
/// error or a panic.
pub fn checked_op(w: &mut dyn Workload, tr: &Tracer, layers: &mut Samples) -> Option<Op> {
    match catch_unwind(AssertUnwindSafe(|| w.op(tr, layers))) {
        Ok(op) if op.ok => Some(op),
        _ => None,
    }
}

/// Run ops for `seconds` (at least one op). A failed op counts as failed
/// and the loop goes on.
pub fn run_pass(w: &mut dyn Workload, seconds: f64, tr: &Tracer, layers: &mut Samples) -> Pass {
    let mut pass = Pass::default();
    let t0 = Instant::now();
    while pass.attempted == 0 || t0.elapsed().as_secs_f64() < seconds {
        pass.attempted += 1;
        match checked_op(w, tr, layers) {
            Some(op) => pass.ops.push(op),
            None => pass.failed += 1,
        }
        if pass.ops.len() == RSS_OPS {
            pass.rss_mib = Some(peak_rss_mib());
        }
        let trace = w.take_runtime_trace();
        if !trace.is_empty() {
            pass.runtime_spans.push(trace.spans.len() as f64);
            for (cat, s) in trace.phase_totals() {
                layers.push(&format!("obs.phase.{cat}_s"), s);
            }
            if pass.first_runtime_trace.is_empty() {
                pass.first_runtime_trace = trace;
            }
        }
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass
}
