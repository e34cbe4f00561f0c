//! `paper-apps`: one round of the paper's four applications on its 8 x 16
//! cluster, each beside its sequential reference.

use triolet::{ClusterConfig, RunStats, SimCore, TraceData, Triolet};
use triolet_apps::{cutcp, mriq, sgemm, tpacf};

use crate::bench::{median_s, push_counters, timed, Op, Tracer, Workload};
use crate::seeds::derive;
use crate::stats::{geomean, Samples};

pub const NODES: usize = 8;
pub const THREADS: usize = 16;

/// The four inputs at the benchmark's fixed sizes.
pub struct Inputs {
    pub mriq: mriq::MriqInput,
    pub sgemm: sgemm::SgemmInput,
    pub tpacf: tpacf::TpacfInput,
    pub cutcp: cutcp::CutcpInput,
}

pub fn generate(seed: u64) -> Inputs {
    Inputs {
        mriq: mriq::generate(8_192, 1_024, derive(seed, 1)),
        sgemm: sgemm::generate(384, derive(seed, 2)),
        tpacf: tpacf::generate(192, 128, tpacf::DEFAULT_BINS, derive(seed, 3)),
        cutcp: cutcp::generate(16_384, 32, derive(seed, 4)),
    }
}

pub struct PaperApps {
    rt: Triolet,
    inputs: Inputs,
    trace: TraceData,
}

fn config() -> ClusterConfig {
    ClusterConfig::virtual_cluster(NODES, THREADS)
}

/// Generate the inputs and bring up the runtime (no op run yet).
pub fn setup(seed: u64, traced: bool, tr: &Tracer) -> PaperApps {
    let inputs = tr.span("generate", || generate(seed));
    let rt = Triolet::new(config().with_trace(traced));
    PaperApps { rt, inputs, trace: TraceData::default() }
}

/// One app's share of a round.
struct AppRun {
    host_s: f64,
    seq_s: f64,
    stats: RunStats,
    trace: TraceData,
    ok: bool,
}

/// Time the reference, then the Triolet call, then check one against the
/// other.
fn app_run<T, R>(
    tr: &Tracer,
    name: &'static str,
    seq: impl FnOnce() -> R,
    triolet: impl FnOnce() -> triolet::Run<T>,
    check: impl FnOnce(&R, &T) -> bool,
) -> AppRun {
    let (expect, seq_s) = timed(|| tr.span("run_seq", seq));
    let (run, host_s) = timed(|| tr.span(name, triolet));
    let ok = tr.span("validate", || check(&expect, &run.value));
    AppRun { host_s, seq_s, stats: run.stats, trace: run.trace, ok }
}

impl PaperApps {
    fn round(&self, tr: &Tracer) -> [(&'static str, AppRun); 4] {
        let rt = &self.rt;
        let inp = &self.inputs;
        [
            (
                "mriq",
                app_run(
                    tr,
                    "run_triolet",
                    || mriq::run_seq(&inp.mriq),
                    || mriq::run_triolet(rt, &inp.mriq),
                    |e, g| mriq::validate(e, g, 1e-4),
                ),
            ),
            (
                "sgemm",
                app_run(
                    tr,
                    "run_triolet_tiled",
                    || sgemm::run_seq(&inp.sgemm),
                    || sgemm::run_triolet_tiled(rt, &inp.sgemm),
                    |e, g| sgemm::validate(e, g, 1e-4),
                ),
            ),
            (
                "tpacf",
                app_run(
                    tr,
                    "run_triolet_tiled",
                    || tpacf::run_seq(&inp.tpacf),
                    || tpacf::run_triolet_tiled(rt, &inp.tpacf),
                    tpacf::validate,
                ),
            ),
            (
                "cutcp",
                app_run(
                    tr,
                    "run_triolet",
                    || cutcp::run_seq(&inp.cutcp),
                    || cutcp::run_triolet(rt, &inp.cutcp),
                    |e, g| cutcp::validate(e, g, 1e-9),
                ),
            ),
        ]
    }
}

impl Workload for PaperApps {
    fn op(&mut self, tr: &Tracer, layers: &mut Samples) -> Op {
        let before = self.rt.cluster().stats().snapshot();
        let apps = self.round(tr);
        let delta = self.rt.cluster().stats().snapshot().since(&before);

        let mut stats = RunStats::local(0.0);
        stats.node_compute_s.clear();
        let mut op = Op { ok: true, ..Op::default() };
        let mut speedups = Vec::with_capacity(apps.len());
        for (name, app) in apps {
            op.host_s += app.host_s;
            op.seq_s += app.seq_s;
            op.ok &= app.ok;
            speedups.push(app.seq_s / app.stats.total_s);
            layers.push(&format!("apps.{name}.host_s"), app.host_s);
            layers.push(&format!("apps.{name}.makespan_s"), app.stats.total_s);
            layers.push(&format!("apps.{name}.seq_s"), app.seq_s);
            stats = stats.then(app.stats);
            self.trace.then(app.trace);
        }
        push_counters(layers, &stats, &delta, NODES);
        op.makespan_s = stats.total_s;
        op.latency_s = Some(stats.total_s);
        op.speedup = geomean(&speedups);
        op
    }

    fn take_runtime_trace(&mut self) -> TraceData {
        std::mem::take(&mut self.trace)
    }

    fn sweep_host_s(&self, core: SimCore) -> f64 {
        let rt = Triolet::new(config().with_sim_core(core));
        let inp = &self.inputs;
        median_s(3, || {
            (
                mriq::run_triolet(&rt, &inp.mriq),
                sgemm::run_triolet_tiled(&rt, &inp.sgemm),
                tpacf::run_triolet_tiled(&rt, &inp.tpacf),
                cutcp::run_triolet(&rt, &inp.cutcp),
            )
        })
    }

    /// One run: the round's four references take about half a second.
    fn reference_s(&self) -> f64 {
        let inp = &self.inputs;
        median_s(1, || {
            (
                mriq::run_seq(&inp.mriq),
                sgemm::run_seq(&inp.sgemm),
                tpacf::run_seq(&inp.tpacf),
                cutcp::run_seq(&inp.cutcp),
            )
        })
    }

    fn config(&self) -> ClusterConfig {
        config()
    }
}
