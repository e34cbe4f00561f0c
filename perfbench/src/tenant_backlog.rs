//! `tenant-backlog`: a closed loop over the job service. Three tenants share
//! FairShare 1:2:4 on an 8 x 2 cluster with a standing backlog of 16 384
//! jobs; each op runs one `step` and lets the completing tenant submit its
//! next job.

use std::collections::HashMap;
use std::sync::Arc;

use triolet::{
    ClusterConfig, IdxFlat, JobHandle, JobReport, JobService, SchedPolicy, ServiceConfig, SimCore,
    Tenant, TraceData, TrioIter, Triolet,
};
use triolet_iter::ArrayIdx;

use crate::bench::{median_s, push_counters, timed, Op, Tracer, Workload};
use crate::seeds::{derive, mix};
use crate::stats::{median, Samples};

pub const NODES: usize = 8;
pub const THREADS: usize = 2;
pub const BACKLOG: usize = 16_384;
pub const WEIGHTS: [f64; 3] = [1.0, 2.0, 4.0];
pub const SIZES: [usize; 3] = [512, 1_024, 2_048];
pub const BINS: usize = 64;
/// Distinct datasets per (kind, size) pair; jobs draw one by seed.
const VARIANTS: usize = 16;
/// `fair_share_err` is read after this many timed ops, so it does not
/// depend on how many ops the host managed in the run.
pub const FAIR_WINDOW: usize = 4_096;

/// One job's input and its exact expected result.
enum Data {
    /// f64 multiples of 0.25: every summation order is exact.
    Sum {
        xs: Arc<Vec<f64>>,
        expect: f64,
    },
    Hist {
        xs: Arc<Vec<usize>>,
        expect: Vec<u64>,
    },
}

fn sum_ref(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

fn hist_ref(xs: &[usize]) -> Vec<u64> {
    let mut h = vec![0u64; BINS];
    for &x in xs {
        h[x] += 1;
    }
    h
}

/// Every dataset the jobs of a run use: `(kind, size, variant)` flattened.
fn datasets(seed: u64) -> Vec<Data> {
    let mut out = Vec::with_capacity(2 * SIZES.len() * VARIANTS);
    for kind in 0..2u64 {
        for (s, &n) in SIZES.iter().enumerate() {
            for v in 0..VARIANTS {
                let base = derive(seed, 100 + (kind * 3 + s as u64) * 1_000 + v as u64);
                let draw = |i: usize| mix(base.wrapping_add(i as u64));
                out.push(if kind == 0 {
                    let xs: Vec<f64> = (0..n).map(|i| (draw(i) % 8_191) as f64 * 0.25).collect();
                    Data::Sum { expect: sum_ref(&xs), xs: Arc::new(xs) }
                } else {
                    let xs: Vec<usize> = (0..n).map(|i| (draw(i) % BINS as u64) as usize).collect();
                    Data::Hist { expect: hist_ref(&xs), xs: Arc::new(xs) }
                });
            }
        }
    }
    out
}

fn par_source<T: triolet::Wire + Clone + Send + Sync + 'static>(
    xs: &Arc<Vec<T>>,
) -> IdxFlat<ArrayIdx<T>> {
    IdxFlat::new(ArrayIdx::from_arc(Arc::clone(xs))).par()
}

/// Run one job body directly on a runtime (no service).
fn run_direct(rt: &Triolet, data: &Data) {
    match data {
        Data::Sum { xs, .. } => {
            rt.sum(par_source(xs));
        }
        Data::Hist { xs, .. } => {
            rt.histogram(BINS, par_source(xs));
        }
    }
}

enum Handle {
    Sum(JobHandle<f64>),
    Hist(JobHandle<Vec<u64>>),
}

pub struct TenantBacklog {
    svc: JobService,
    data: Vec<Data>,
    seed: u64,
    /// Jobs each tenant has submitted so far (sets its next job's shape).
    submitted: [u64; 3],
    pending: HashMap<u64, (Handle, usize)>,
    window_cost: [f64; 3],
    window_ops: usize,
    trace: TraceData,
}

fn config() -> ClusterConfig {
    ClusterConfig::virtual_cluster(NODES, THREADS)
}

/// Generate the datasets, bring up the service and fill the backlog.
pub fn setup(seed: u64, traced: bool, tr: &Tracer) -> TenantBacklog {
    let data = tr.span("generate", || datasets(seed));
    let policy = SchedPolicy::FairShare { weights: WEIGHTS.to_vec() };
    let svc = Triolet::new(config().with_trace(traced))
        .into_service(ServiceConfig::new(policy).with_queue_cap(BACKLOG));
    let mut w = TenantBacklog {
        svc,
        data,
        seed,
        submitted: [0; 3],
        pending: HashMap::with_capacity(BACKLOG),
        window_cost: [0.0; 3],
        window_ops: 0,
        trace: TraceData::default(),
    };
    // Each tenant's standing queue is proportional to its weight, so in
    // steady state every tenant's jobs wait about the same.
    let wsum: f64 = WEIGHTS.iter().sum();
    let mut left: Vec<usize> =
        WEIGHTS.iter().map(|w| (BACKLOG as f64 * w / wsum).round() as usize).collect();
    let mut i = 0;
    while left.iter().any(|&n| n > 0) {
        let t = i % left.len();
        if left[t] > 0 {
            w.submit(t, tr);
            left[t] -= 1;
        }
        i += 1;
    }
    // Admission events of the fill are set-up, not part of any op.
    w.svc.take_trace();
    w
}

impl TenantBacklog {
    /// The dataset index and declared cost of `tenant`'s `n`-th job: kinds
    /// alternate sum/histogram, sizes cycle 512/1 024/2 048, the variant
    /// comes from the seed.
    fn job(&self, tenant: usize, n: u64) -> (usize, f64) {
        let kind = (n % 2) as usize;
        let size = (n % SIZES.len() as u64) as usize;
        let variant = (derive(self.seed ^ ((tenant as u64) << 32), n) % VARIANTS as u64) as usize;
        ((kind * SIZES.len() + size) * VARIANTS + variant, SIZES[size] as f64)
    }

    /// Submit `tenant`'s next job; false when the service rejected it (the
    /// service counts the rejection).
    fn submit(&mut self, tenant: usize, tr: &Tracer) -> bool {
        let n = self.submitted[tenant];
        self.submitted[tenant] += 1;
        let (idx, cost) = self.job(tenant, n);
        let who = Tenant(tenant as u32);
        let admitted = tr.span("submit", || match &self.data[idx] {
            Data::Sum { xs, .. } => {
                let src = par_source(xs);
                self.svc.submit(who, cost, move |rt: &Triolet| rt.sum(src)).map(Handle::Sum)
            }
            Data::Hist { xs, .. } => {
                let src = par_source(xs);
                self.svc
                    .submit(who, cost, move |rt: &Triolet| rt.histogram(BINS, src))
                    .map(Handle::Hist)
            }
        });
        match admitted {
            Ok(h) => {
                let id = match &h {
                    Handle::Sum(h) => h.id.0,
                    Handle::Hist(h) => h.id.0,
                };
                self.pending.insert(id, (h, idx));
                true
            }
            Err(_) => false,
        }
    }

    /// Largest relative gap between a tenant's completed-cost share and
    /// its weight share, over the first `FAIR_WINDOW` timed ops.
    pub fn fair_share_err(&self) -> f64 {
        let total: f64 = self.window_cost.iter().sum();
        let wsum: f64 = WEIGHTS.iter().sum();
        WEIGHTS
            .iter()
            .zip(&self.window_cost)
            .map(|(w, c)| ((c / total) - w / wsum).abs() / (w / wsum))
            .fold(0.0, f64::max)
    }
}

/// A completed job's value.
enum Value {
    Sum(f64),
    Hist(Vec<u64>),
}

impl Workload for TenantBacklog {
    fn op(&mut self, tr: &Tracer, layers: &mut Samples) -> Op {
        let ((value, report, idx, admitted), host_s) = timed(|| {
            let id = tr.span("step", || self.svc.step()).expect("the backlog never drains");
            let (handle, idx) = self.pending.remove(&id.0).expect("every queued job is ours");
            let (value, report): (Value, JobReport) = match handle {
                Handle::Sum(h) => {
                    let out = self.svc.wait(h);
                    (Value::Sum(out.value), out.report)
                }
                Handle::Hist(h) => {
                    let out = self.svc.wait(h);
                    (Value::Hist(out.value), out.report)
                }
            };
            let admitted = self.submit(report.tenant.idx(), tr);
            (value, report, idx, admitted)
        });

        let ((seq_ok, got_ok), seq_s) = timed(|| {
            tr.span("run_seq", || match (&self.data[idx], &value) {
                (Data::Sum { xs, expect }, Value::Sum(got)) => {
                    (sum_ref(xs) == *expect, got.to_bits() == expect.to_bits())
                }
                (Data::Hist { xs, expect }, Value::Hist(got)) => {
                    (hist_ref(xs) == *expect, got == expect)
                }
                _ => (false, false),
            })
        });
        let ok = tr.span("validate", || seq_ok && got_ok && admitted);

        // Jobs the fill submitted all entered at time 0; only jobs that ops
        // submitted show the steady-state wait.
        let steady = report.id.0 >= BACKLOG as u64;
        push_counters(layers, &report.stats, &report.traffic, NODES);
        if steady {
            layers.push("service.queue_wait_s", report.queue_wait_s());
        }
        if self.window_ops < FAIR_WINDOW {
            self.window_cost[report.tenant.idx()] += report.cost;
            self.window_ops += 1;
        }
        if tr.enabled() {
            self.trace = self.svc.take_trace();
        }
        let makespan_s = report.stats.total_s;
        Op {
            host_s,
            seq_s,
            makespan_s,
            speedup: seq_s / makespan_s,
            latency_s: steady.then(|| report.latency_s()),
            ok,
        }
    }

    fn take_runtime_trace(&mut self) -> TraceData {
        std::mem::take(&mut self.trace)
    }

    fn sweep_host_s(&self, core: SimCore) -> f64 {
        let rt = Triolet::new(config().with_sim_core(core));
        let hosts: Vec<f64> = self.data.iter().map(|d| timed(|| run_direct(&rt, d)).1).collect();
        median(&hosts)
    }

    /// Generating the datasets with their expected results: the
    /// sequential reference of every job the service runs.
    fn reference_s(&self) -> f64 {
        median_s(5, || datasets(self.seed))
    }

    fn config(&self) -> ClusterConfig {
        config()
    }

    fn finish(&mut self, layers: &mut Samples) {
        let stats = self.svc.service_stats();
        layers.push("service.utilization", stats.utilization());
        layers.push("service.rejected", stats.rejected as f64);
        layers.push("service.fair_share_err", self.fair_share_err());
        // Summed tenant traffic must partition the cluster's own counters.
        let tenants: u64 = self.svc.usage().iter().map(|u| u.traffic.bytes).sum();
        let cluster = self.svc.runtime().cluster().stats().bytes();
        layers.push("obs.tenant_partition_drift_bytes", tenants.abs_diff(cluster) as f64);
    }
}
