//! `wide-kmeans`: one Lloyd sweep over a resident `DistVec` on 1 024 ranks,
//! with seeded message drops and one crashed rank.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use triolet::{ClusterConfig, DistVec, FaultPlan, Run, SimCore, TraceData, Triolet};
use triolet_apps::kmeans::{self, accumulate, merge_acc, next_centroids, ACC_STRIDE};

use crate::bench::{median_s, push_counters, timed, Op, Tracer, Workload};
use crate::seeds::derive;
use crate::stats::Samples;

pub const NODES: usize = 1_024;
pub const THREADS: usize = 16;
pub const POINTS: usize = 262_144;
pub const K: usize = 16;
/// Below 64: `FaultPlan::with_crash` covers ranks 0..64 only.
pub const CRASHED: usize = 17;
pub const DROP: f64 = 0.01;
/// Per-attempt acknowledgement wait: the 1 ms the repository's own fault
/// tests use, so a crash costs a few ms of modeled time, not the whole sweep.
pub const ACK_TIMEOUT: Duration = Duration::from_millis(1);

type Point = (f64, f64);

/// The fault schedule is part of the workload's shape, not of its data:
/// every run drops the same messages, so the modeled cost of recovery does
/// not change with `--seed`.
pub const FAULT_SEED: u64 = 7;
/// Sweeps the kernel/runtime split is measured over.
const KERNEL_SWEEPS: usize = 8;

fn config() -> ClusterConfig {
    let faults =
        FaultPlan::seeded(FAULT_SEED).with_drop(DROP).with_crash(CRASHED).with_timeout(ACK_TIMEOUT);
    ClusterConfig::virtual_cluster(NODES, THREADS).with_faults(faults)
}

/// Times the benchmark's own step and merge closures from outside the
/// runtime. Every call is counted; one in `STRIDE` is timed and scaled, so
/// the clock reads cost two atomics per call rather than two timer reads.
#[derive(Default)]
struct KernelClock {
    steps: AtomicU64,
    merges: AtomicU64,
    nanos: AtomicU64,
}

impl KernelClock {
    const STRIDE: u64 = 16;

    fn time<R>(&self, calls: &AtomicU64, f: impl FnOnce() -> R) -> R {
        if !calls.fetch_add(1, Relaxed).is_multiple_of(Self::STRIDE) {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.nanos.fetch_add(t0.elapsed().as_nanos() as u64 * Self::STRIDE, Relaxed);
        r
    }

    fn read(&self) -> (u64, u64) {
        (self.merges.load(Relaxed), self.nanos.load(Relaxed))
    }
}

/// One Lloyd sweep's reduction: assign every point, accumulate per centroid.
fn sweep(
    rt: &Triolet,
    points: &DistVec<Point>,
    centroids: &Vec<Point>,
    clock: Option<&KernelClock>,
) -> Run<Vec<f64>> {
    let k = centroids.len();
    let seed = move || vec![0.0f64; ACC_STRIDE * k];
    match clock {
        None => rt.fold_reduce(
            points,
            centroids,
            seed,
            |cs: &Vec<Point>, acc: Vec<f64>, p: Point| accumulate(cs, acc, p),
            merge_acc,
        ),
        Some(c) => rt.fold_reduce(
            points,
            centroids,
            seed,
            |cs: &Vec<Point>, acc: Vec<f64>, p: Point| c.time(&c.steps, || accumulate(cs, acc, p)),
            |a: Vec<f64>, b: Vec<f64>| c.time(&c.merges, || merge_acc(a, b)),
        ),
    }
}

pub struct WideKmeans {
    rt: Triolet,
    points: Vec<Point>,
    dist: DistVec<Point>,
    centroids: Vec<Point>,
    scatter_s: f64,
    trace: TraceData,
}

/// Generate the points, bring up the runtime and scatter the points once.
pub fn setup(seed: u64, traced: bool, tr: &Tracer) -> WideKmeans {
    let input = tr.span("generate", || kmeans::generate(POINTS, K, 1, derive(seed, 1)));
    let rt = Triolet::new(config().with_trace(traced));
    let (scattered, scatter_s) = timed(|| tr.span("scatter", || rt.scatter(input.points.clone())));
    WideKmeans {
        rt,
        centroids: input.initial_centroids(),
        points: input.points,
        dist: scattered.value,
        scatter_s,
        trace: TraceData::default(),
    }
}

impl WideKmeans {
    /// The sequential reference: a plain fold of `accumulate` at the
    /// current centroids.
    fn reference(&self) -> Vec<Point> {
        let zero = vec![0.0f64; ACC_STRIDE * self.centroids.len()];
        let acc = self.points.iter().fold(zero, |acc, &p| accumulate(&self.centroids, acc, p));
        next_centroids(&self.centroids, &acc)
    }

    /// A runtime built from `config` with the points scattered on it.
    fn fresh(&self, config: ClusterConfig) -> (Triolet, DistVec<Point>) {
        let rt = Triolet::new(config);
        let dist = rt.scatter(self.points.clone()).value;
        (rt, dist)
    }
}

impl Workload for WideKmeans {
    fn op(&mut self, tr: &Tracer, layers: &mut Samples) -> Op {
        let before = self.rt.cluster().stats().snapshot();
        let ((run, next), host_s) = timed(|| {
            let run = tr.span("fold_reduce", || sweep(&self.rt, &self.dist, &self.centroids, None));
            let next = next_centroids(&self.centroids, &run.value);
            (run, next)
        });
        let delta = self.rt.cluster().stats().snapshot().since(&before);

        let (expect, seq_s) = timed(|| tr.span("run_seq", || self.reference()));
        let ok = tr.span("validate", || kmeans::validate(&expect, &next, 1e-9));

        push_counters(layers, &run.stats, &delta, NODES);
        let makespan_s = run.stats.total_s;
        self.centroids = next;
        self.trace = run.trace;
        Op {
            host_s,
            seq_s,
            makespan_s,
            speedup: seq_s / makespan_s,
            latency_s: Some(makespan_s),
            ok,
        }
    }

    fn take_runtime_trace(&mut self) -> TraceData {
        std::mem::take(&mut self.trace)
    }

    fn sweep_host_s(&self, core: SimCore) -> f64 {
        let (rt, dist) = self.fresh(config().with_sim_core(core));
        sweep(&rt, &dist, &self.centroids, None);
        median_s(5, || sweep(&rt, &dist, &self.centroids, None))
    }

    fn reference_s(&self) -> f64 {
        median_s(3, || self.reference())
    }

    fn config(&self) -> ClusterConfig {
        config()
    }

    /// The scatter time, and the kernel/runtime split of a few sweeps on a
    /// fresh untraced runtime: the clock is kept out of the timed passes so
    /// `obs.trace_overhead` does not include its cost.
    fn finish(&mut self, layers: &mut Samples) {
        layers.push("core.scatter_s", self.scatter_s);
        let (rt, dist) = self.fresh(config());
        let clock = KernelClock::default();
        for _ in 0..KERNEL_SWEEPS {
            let (m0, n0) = clock.read();
            let (_, host_s) = timed(|| sweep(&rt, &dist, &self.centroids, Some(&clock)));
            let (m1, n1) = clock.read();
            let kernel_s = (n1 - n0) as f64 * 1e-9;
            layers.push("core.kernel_host_s", kernel_s);
            layers.push("core.merge_calls", (m1 - m0) as f64);
            layers.push("core.runtime_host_s", host_s - kernel_s);
        }
    }
}
