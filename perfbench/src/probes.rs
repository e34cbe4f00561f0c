//! Out-of-band layer probes: each times calls into one layer's public
//! functions on the workload's own shapes, and prints how many calls it
//! made and the host seconds they took beside the rate it reports.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use triolet::{
    range, zip, Cluster, ClusterConfig, Domain, IdxFlat, Run, RunStats, SchedPolicy, Seq,
    ServiceConfig, StepFlat, Tenant, TrioIter, Triolet,
};
use triolet_apps::{cutcp, mriq, sgemm, tpacf};
use triolet_iter::ArrayIdx;
use triolet_pool::greedy_schedule;
use triolet_serial::{packed, unpack_all, PodView};

use crate::paper_apps;
use crate::seeds::mix;
use crate::stats::Report;

/// Host seconds each probe repeats its call for.
const BUDGET_S: f64 = 0.15;
const MIB: f64 = 1024.0 * 1024.0;

/// Call `f` until `BUDGET_S` has elapsed (at least `min` times); returns
/// the number of calls and the host seconds they took.
fn repeat(min: u64, mut f: impl FnMut()) -> (u64, f64) {
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls < min || t0.elapsed().as_secs_f64() < BUDGET_S {
        f();
        calls += 1;
    }
    (calls, t0.elapsed().as_secs_f64())
}

/// Report one probe: its rate as a metric, its count and time as a line.
fn record(
    report: &mut Report,
    name: &str,
    unit: &'static str,
    value: f64,
    count: u64,
    host_s: f64,
) {
    println!("probe {name}: count={count} host_s={host_s:.6} -> {value:.6} {unit}");
    report.put(name, value, unit);
}

/// Wire pack/unpack of a `Vec<f32>` of `len` elements, and the zero-copy
/// `PodView` decode of the same bytes.
pub fn serial(report: &mut Report, len: usize) {
    let v: Vec<f32> = (0..len).map(|i| i as f32 * 0.5).collect();
    let bytes = packed(&v);
    let size = bytes.len() as f64;
    let (n, s) = repeat(16, || {
        black_box(packed(black_box(&v)));
    });
    record(report, "serial.pack_mib_s", "MiB/s", n as f64 * size / s / MIB, n, s);
    let (n, s) = repeat(16, || {
        let back: Vec<f32> = unpack_all(bytes.clone()).expect("Vec<f32> round trip");
        black_box(back);
    });
    record(report, "serial.unpack_mib_s", "MiB/s", n as f64 * size / s / MIB, n, s);
    let (n, s) = repeat(16, || {
        let view: PodView<f32> = unpack_all(bytes.clone()).expect("PodView round trip");
        black_box(view);
    });
    record(report, "serial.view_unpack_mib_s", "MiB/s", n as f64 * size / s / MIB, n, s);
}

/// A fused zip/map/concat_map pipeline over `xs`, folded sequentially.
pub fn iter_fold(report: &mut Report, xs: &[f64]) {
    let data = Arc::new(xs.to_vec());
    let items = 3 * xs.len();
    let (n, s) = repeat(4, || {
        let src = IdxFlat::new(ArrayIdx::from_arc(Arc::clone(&data)));
        let total = zip(range(xs.len()), src)
            .map(|(i, x): (usize, f64)| x * (i % 7) as f64)
            .concat_map(|v: f64| StepFlat::new((0..3).map(move |j| v + j as f64)))
            .fold_items(0.0, &mut |a: f64, b: f64| a + b);
        black_box(total);
    });
    let ns = s * 1e9 / (n as f64 * items as f64);
    record(report, "iter.fold_ns_per_item", "ns", ns, n * items as u64, s);
}

/// Splitting the workload's outer domain into 128 and 1 024 parts.
pub fn domain_split(report: &mut Report, len: usize) {
    for parts in [128usize, 1_024] {
        let dom = Seq::new(len);
        let (n, s) = repeat(16, || {
            black_box(dom.split_parts(black_box(parts)));
        });
        let name = format!("domain.split_ns_per_part.p{parts}");
        let count = n * parts as u64;
        record(report, &name, "ns", s * 1e9 / count as f64, count, s);
    }
}

/// The virtual-time worker schedule of one node task: 64 chunks on 16
/// workers.
pub fn pool_schedule(report: &mut Report, seed: u64) {
    let durations: Vec<f64> =
        (0..64u64).map(|i| 1e-6 * (1 + mix(seed.wrapping_add(i)) % 100) as f64).collect();
    let (n, s) = repeat(64, || {
        black_box(greedy_schedule(black_box(&durations), 16));
    });
    let count = n * durations.len() as u64;
    record(report, "pool.schedule_ns_per_task", "ns", s * 1e9 / count as f64, count, s);
}

/// `Cluster::run` with one no-op task per rank at 1 024 ranks, on the
/// workload's cluster configuration otherwise.
pub fn cluster_dispatch(report: &mut Report, mut config: ClusterConfig) {
    config.nodes = 1_024;
    config.trace = false;
    let cluster = Cluster::new(config);
    let (n, s) = repeat(4, || {
        black_box(cluster.run(vec![(); config.nodes], |_, ()| ()));
    });
    let count = n * config.nodes as u64;
    record(report, "cluster.dispatch_ns_per_task", "ns", s * 1e9 / count as f64, count, s);
}

/// `JobService::step` on no-op jobs with `depth` jobs queued.
pub fn service_pick(report: &mut Report, mut config: ClusterConfig, depth: usize, name: &str) {
    config.trace = false;
    let weights = vec![1.0, 2.0, 4.0];
    let tenants = weights.len();
    let svc = Triolet::new(config)
        .into_service(ServiceConfig::new(SchedPolicy::FairShare { weights }).with_queue_cap(depth));
    let noop = |_: &Triolet| Run::new((), RunStats::local(0.0));
    for i in 0..depth {
        svc.submit(Tenant((i % tenants) as u32), 1.0, noop).expect("queue has room");
    }
    let mut busy = 0.0;
    let mut i = 0usize;
    let (n, _) = repeat(32, || {
        let t0 = Instant::now();
        black_box(svc.step());
        busy += t0.elapsed().as_secs_f64();
        svc.submit(Tenant((i % tenants) as u32), 1.0, noop).expect("a step freed a slot");
        i += 1;
    });
    record(report, name, "ns", busy * 1e9 / n as f64, n, busy);
}

/// The four apps' node kernels on the paper-apps inputs of this seed.
pub fn kernels(report: &mut Report, inputs: &paper_apps::Inputs) {
    // sgemm: the tiled kernel over the whole 384^3 problem.
    let sg = &inputs.sgemm;
    let (m, k, nn) = (sg.a.rows(), sg.a.cols(), sg.b.cols());
    let bt = sg.b.transpose();
    let (n, s) = repeat(2, || {
        black_box(sgemm::gemm_tiled(sg.a.as_slice(), bt.as_slice(), k, m, nn, sg.alpha));
    });
    let flops = 2.0 * (m * k * nn) as f64 * n as f64;
    record(report, "apps.sgemm.gemm_gflops", "GFLOP/s", flops / s / 1e9, n, s);

    // mri-q: one pixel against every sample, pixels in turn.
    let mq = &inputs.mriq;
    let samples = mq.samples();
    let ks = samples.kx.len();
    let mut px = 0usize;
    let (n, s) = repeat(16, || {
        let (x, y, z) = (mq.x[px], mq.y[px], mq.z[px]);
        let mut acc = (0.0f32, 0.0f32);
        for kk in 0..ks {
            let (r, i) = mriq::ftcoeff(&samples, kk, x, y, z);
            acc = (acc.0 + r, acc.1 + i);
        }
        black_box(acc);
        px = (px + 1) % mq.x.len();
    });
    let count = n * ks as u64;
    record(report, "apps.mriq.ftcoeff_ns", "ns", s * 1e9 / count as f64, count, s);

    // tpacf: one observed point scored against a whole random set.
    let tp = &inputs.tpacf;
    let mut row = 0usize;
    let (n, s) = repeat(16, || {
        let u = tp.obs[row % tp.obs.len()];
        let set = &tp.rands[row % tp.rands.len()];
        let mut acc = 0usize;
        for &v in set {
            acc += tpacf::score(&tp.bin_edges, u, v);
        }
        black_box(acc);
        row += 1;
    });
    let count = n * tp.rands[0].len() as u64;
    record(report, "apps.tpacf.score_ns", "ns", s * 1e9 / count as f64, count, s);

    // cutcp: one atom's potential at a sweep of squared distances.
    let cc = &inputs.cutcp;
    let cutoff2 = cc.geom.cutoff * cc.geom.cutoff;
    let steps = 1_024usize;
    let mut atom = 0usize;
    let (n, s) = repeat(16, || {
        let q = cc.atoms[atom].q;
        let mut acc = 0.0f64;
        for j in 0..steps {
            acc += cutcp::potential(q, j as f32 * cutoff2 / steps as f32, cutoff2);
        }
        black_box(acc);
        atom = (atom + 1) % cc.atoms.len();
    });
    let count = n * steps as u64;
    record(report, "apps.cutcp.potential_ns", "ns", s * 1e9 / count as f64, count, s);
}
