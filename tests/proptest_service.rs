//! Property-based tenancy isolation: any interleaving of N tenants' jobs
//! through the shared [`JobService`] — under FairShare or Priority, across
//! topologies, pipeline modes, and seeded fault plans including crashed
//! ranks — yields per-job results bit-identical to running each job alone
//! on an identically configured cluster. Values and traffic accounting are
//! order-independent; only wall-measured timings may differ, so those are
//! deliberately not compared. The schedule itself must also be
//! deterministic: two identical services complete jobs in the same order.
//! And it must be the one a full-queue scan picks: any interleaving of
//! `submit`, `submit_blocking`, `step` and `wait` runs the service in
//! lockstep with a model that calls `SchedPolicy::select` over every
//! queued job, to the bit of each job's start and finish time.

use std::time::Duration;

use proptest::prelude::*;
use triolet::prelude::*;
use triolet::{JobHandle, JobId};

#[derive(Debug, Clone, Copy)]
enum PlanKind {
    None,
    Lossy,
    Crashy,
}

fn plan_for(kind: PlanKind, seed: u64, nodes: usize) -> FaultPlan {
    match kind {
        PlanKind::None => FaultPlan::none(),
        PlanKind::Lossy => FaultPlan::seeded(seed)
            .with_drop(0.2)
            .with_duplication(0.1)
            .with_corruption(0.05)
            .with_timeout(Duration::from_millis(1)),
        PlanKind::Crashy => {
            let plan =
                FaultPlan::seeded(seed).with_drop(0.15).with_timeout(Duration::from_millis(1));
            if nodes >= 2 {
                plan.with_crash(nodes / 2)
            } else {
                plan
            }
        }
    }
}

/// The shimmed proptest has no `prop_oneof`; pick enums from an integer.
fn topology_from(sel: u64) -> Topology {
    if sel % 2 == 0 {
        Topology::Linear
    } else {
        Topology::Tree
    }
}

fn pipeline_from(sel: u64) -> PipelineMode {
    if sel % 2 == 0 {
        PipelineMode::Barrier
    } else {
        PipelineMode::Streamed
    }
}

fn plan_kind_from(sel: u64) -> PlanKind {
    match sel % 3 {
        0 => PlanKind::None,
        1 => PlanKind::Lossy,
        _ => PlanKind::Crashy,
    }
}

fn policy_from(sel: u64, tenants: usize) -> SchedPolicy {
    if sel % 2 == 0 {
        SchedPolicy::FairShare { weights: (0..tenants).map(|t| (t + 1) as f64).collect() }
    } else {
        SchedPolicy::Priority { levels: (0..tenants as u32).rev().collect() }
    }
}

/// One job's deterministic recipe. `kind` selects among skeletons with
/// different dispatch shapes; the result is normalized to value bits.
#[derive(Debug, Clone, Copy)]
struct JobSpec {
    tenant: u32,
    kind: u64,
    size: usize,
    seed: u64,
}

fn run_spec(rt: &Triolet, spec: JobSpec) -> Run<Vec<u64>> {
    let xs: Vec<f64> = (0..spec.size)
        .map(|i| ((i as u64).wrapping_mul(spec.seed | 1) % 4093) as f64 * 0.125 - 64.0)
        .collect();
    match spec.kind % 3 {
        0 => rt.sum(from_vec(xs).par()).map(|v| vec![v.to_bits()]),
        1 => {
            let env: Vec<f64> = (0..32).map(|i| (i as f64) * 0.5 - 1.0).collect();
            rt.fold_reduce(
                from_vec(xs).par(),
                &env,
                || 0.0f64,
                |env, acc: f64, x: f64| acc + x * env[(x.abs() as usize) % env.len()],
                |a, b| a + b,
            )
            .map(|v| vec![v.to_bits()])
        }
        _ => rt.histogram(8, from_vec(xs).map(|x: f64| (x.abs() as usize) % 8).par()),
    }
}

fn specs_for(tenants: usize, jobs: usize, seed: u64) -> Vec<JobSpec> {
    (0..jobs)
        .map(|j| JobSpec {
            tenant: (j % tenants) as u32,
            kind: seed.wrapping_add(j as u64).wrapping_mul(0x9e37_79b9),
            size: 40 + (j * 31) % 300,
            seed: seed.wrapping_add(j as u64 * 7919),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn service_jobs_are_bit_identical_to_solo_runs(
        (nodes, tpn) in (2usize..=8, 1usize..=3),
        tenants in 1usize..=4,
        jobs in 1usize..=12,
        topo_sel in 0u64..2,
        pipe_sel in 0u64..2,
        kind_sel in 0u64..3,
        policy_sel in 0u64..2,
        seed in 0u64..1_000,
    ) {
        let cfg = ClusterConfig::virtual_cluster(nodes, tpn)
            .with_topology(topology_from(topo_sel))
            .with_pipeline(pipeline_from(pipe_sel))
            .with_faults(plan_for(plan_kind_from(kind_sel), seed, nodes));
        let specs = specs_for(tenants, jobs, seed);

        let svc = Triolet::new(cfg).into_service(
            ServiceConfig::new(policy_from(policy_sel, tenants)).with_queue_cap(jobs.max(1)),
        );
        let handles: Vec<_> = specs
            .iter()
            .map(|&spec| {
                svc.submit(Tenant(spec.tenant), spec.size as f64, move |rt: &Triolet| {
                    run_spec(rt, spec)
                })
                .expect("queue sized to hold every job")
            })
            .collect();
        svc.drain();

        for (handle, &spec) in handles.into_iter().zip(&specs) {
            let out = svc.wait(handle);
            // Solo baseline: a fresh, identically configured cluster
            // running only this job. Values and traffic counters are pure
            // functions of (config, job); the service's interleaving must
            // not leak into either.
            let solo = run_spec(&Triolet::new(cfg), spec);
            prop_assert_eq!(&out.value, &solo.value, "value diverged for {:?}", spec);
            prop_assert_eq!(out.report.stats.messages, solo.stats.messages);
            prop_assert_eq!(out.report.stats.retries, solo.stats.retries);
            prop_assert_eq!(out.report.stats.redispatches, solo.stats.redispatches);
            prop_assert_eq!(out.report.stats.bytes_out, solo.stats.bytes_out);
            prop_assert_eq!(out.report.stats.bytes_back, solo.stats.bytes_back);
            prop_assert_eq!(out.report.tenant, Tenant(spec.tenant));
        }
    }

    #[test]
    fn identical_services_complete_in_identical_order(
        (nodes, tpn) in (2usize..=6, 1usize..=2),
        tenants in 1usize..=4,
        jobs in 1usize..=16,
        policy_sel in 0u64..2,
        kind_sel in 0u64..3,
        seed in 0u64..1_000,
    ) {
        let cfg = ClusterConfig::virtual_cluster(nodes, tpn)
            .with_faults(plan_for(plan_kind_from(kind_sel), seed, nodes));
        let specs = specs_for(tenants, jobs, seed);
        let run_service = || {
            let svc = Triolet::new(cfg).into_service(
                ServiceConfig::new(policy_from(policy_sel, tenants))
                    .with_queue_cap(jobs.max(1)),
            );
            for &spec in &specs {
                svc.submit(Tenant(spec.tenant), spec.size as f64, move |rt: &Triolet| {
                    run_spec(rt, spec)
                })
                .expect("queue sized to hold every job");
            }
            svc.drain();
            svc.completion_order()
        };
        prop_assert_eq!(run_service(), run_service(), "schedule must be deterministic");
    }
}

/// One job of the model: what a full-queue scheduler needs to know.
#[derive(Debug, Clone, Copy)]
struct ModelJob {
    seq: u64,
    tenant: Tenant,
    cost: f64,
    submitted_s: f64,
    duration_s: f64,
}

/// The job service as a plain queue: admission bound, late-joining
/// tenants' vruntime floor, and a pick by `SchedPolicy::select` over the
/// whole queue in submission order.
struct ModelService {
    policy: SchedPolicy,
    cap: usize,
    now_s: f64,
    next_seq: u64,
    pending: Vec<ModelJob>,
    submitted: Vec<u64>,
    vruntime: Vec<f64>,
    done: Vec<(u64, Tenant, f64, f64, f64)>, // (seq, tenant, submitted, started, finished)
    rejected: u64,
}

impl ModelService {
    fn new(policy: SchedPolicy, cap: usize) -> Self {
        ModelService {
            policy,
            cap,
            now_s: 0.0,
            next_seq: 0,
            pending: Vec::new(),
            submitted: Vec::new(),
            vruntime: Vec::new(),
            done: Vec::new(),
            rejected: 0,
        }
    }

    /// A tenant seen for the first time joins at the least vruntime of the
    /// tenants that have submitted, together with every lower unseen id.
    fn join(&mut self, tenant: Tenant) {
        let idx = tenant.idx();
        if self.vruntime.len() <= idx {
            let floor = (0..self.submitted.len())
                .filter(|&t| self.submitted[t] > 0)
                .map(|t| self.vruntime[t])
                .fold(f64::INFINITY, f64::min);
            let floor = if floor.is_finite() { floor } else { 0.0 };
            self.vruntime.resize(idx + 1, floor);
            self.submitted.resize(idx + 1, 0);
        }
    }

    fn try_submit(
        &mut self,
        tenant: Tenant,
        cost: f64,
        duration_s: f64,
        count: bool,
    ) -> Option<u64> {
        if self.pending.len() >= self.cap {
            if count {
                self.rejected += 1;
                self.join(tenant);
            }
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.join(tenant);
        self.submitted[tenant.idx()] += 1;
        self.pending.push(ModelJob { seq, tenant, cost, submitted_s: self.now_s, duration_s });
        Some(seq)
    }

    fn submit_blocking(&mut self, tenant: Tenant, cost: f64, duration_s: f64) -> u64 {
        loop {
            if let Some(seq) = self.try_submit(tenant, cost, duration_s, false) {
                return seq;
            }
            self.step().expect("saturated model has queued jobs");
        }
    }

    fn step(&mut self) -> Option<u64> {
        if self.pending.is_empty() {
            return None;
        }
        let metas: Vec<(Tenant, u64)> = self.pending.iter().map(|j| (j.tenant, j.seq)).collect();
        let vr = &self.vruntime;
        let idx = self.policy.select(&metas, |t| vr.get(t.idx()).copied().unwrap_or(0.0));
        let job = self.pending.remove(idx);
        let start = self.now_s;
        self.now_s = start + job.duration_s.max(0.0);
        self.vruntime[job.tenant.idx()] += job.cost / self.policy.weight_of(job.tenant);
        self.done.push((job.seq, job.tenant, job.submitted_s, start, self.now_s));
        Some(job.seq)
    }

    fn order(&self) -> Vec<u64> {
        self.done.iter().map(|d| d.0).collect()
    }

    fn wait(&mut self, seq: u64) -> (u64, Tenant, f64, f64, f64) {
        loop {
            if let Some(rec) = self.done.iter().find(|d| d.0 == seq) {
                return *rec;
            }
            self.step().expect("waited job is queued");
        }
    }
}

fn order(svc: &JobService) -> Vec<u64> {
    svc.completion_order().iter().map(|id| id.0).collect()
}

/// Tenant ids for the lockstep test: sparse, and in a seed-chosen order of
/// first appearance, so tenants join late and below earlier ids.
fn tenant_pool(seed: u64) -> Vec<u32> {
    let mut pool = vec![0u32, 2, 3, 7, 12];
    let mut state = seed | 1;
    for i in (1..pool.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        pool.swap(i, ((state >> 33) % (i as u64 + 1)) as usize);
    }
    pool
}

fn lockstep_policy(sel: u64) -> SchedPolicy {
    match sel % 3 {
        0 => SchedPolicy::Fifo,
        // Tenants 7 and 12 are beyond both vectors: level 0, weight 1.0;
        // tenant 2's zero weight also counts as 1.0.
        1 => SchedPolicy::Priority { levels: vec![1, 0, 2, 2] },
        _ => SchedPolicy::FairShare { weights: vec![1.0, 9.0, 0.0, 0.7] },
    }
}

const COSTS: [f64; 4] = [1.0, 3.0, 0.5, 7.25];
const DURATIONS: [f64; 4] = [0.25, 0.1, 1.5, 0.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn service_schedule_matches_a_full_queue_scan(
        ops in proptest::collection::vec((0u64..10, 0u64..64, 0u64..4, 0u64..4), 1..120),
        cap in 1usize..=5,
        policy_sel in 0u64..3,
        pool_seed in any::<u64>(),
    ) {
        let policy = lockstep_policy(policy_sel);
        let pool = tenant_pool(pool_seed);
        let svc = Triolet::new(ClusterConfig::virtual_cluster(1, 1))
            .into_service(ServiceConfig::new(policy.clone()).with_queue_cap(cap));
        let mut model = ModelService::new(policy, cap);
        let mut handles: Vec<JobHandle<u64>> = Vec::new();

        for (i, &(kind, pick, cost_sel, dur_sel)) in ops.iter().enumerate() {
            // A new tenant id becomes available every eight ops.
            let joined = (1 + i / 8).min(pool.len());
            let tenant = Tenant(pool[(pick as usize) % joined]);
            let (cost, duration_s) = (COSTS[cost_sel as usize], DURATIONS[dur_sel as usize]);
            let job = move |_: &Triolet| {
                Run::new(cost.to_bits() ^ duration_s.to_bits(), RunStats::local(duration_s))
            };
            match kind {
                0..=3 => {
                    let got = svc.submit(tenant, cost, job);
                    let want = model.try_submit(tenant, cost, duration_s, true);
                    prop_assert_eq!(got.as_ref().ok().map(|h| h.id.0), want);
                    if let Ok(h) = got {
                        handles.push(h);
                    }
                }
                4 => {
                    let h = svc.submit_blocking(tenant, cost, job);
                    prop_assert_eq!(h.id.0, model.submit_blocking(tenant, cost, duration_s));
                    handles.push(h);
                }
                5..=7 => prop_assert_eq!(svc.step().map(|id| id.0), model.step()),
                _ => {
                    if !handles.is_empty() {
                        let h = handles.swap_remove(pick as usize % handles.len());
                        let seq = h.id.0;
                        let out = svc.wait(h);
                        let (_, tenant, submitted_s, started_s, finished_s) = model.wait(seq);
                        let r = &out.report;
                        prop_assert_eq!(out.value, r.cost.to_bits() ^ r.stats.total_s.to_bits());
                        prop_assert_eq!(r.id.0, seq);
                        prop_assert_eq!(r.tenant, tenant);
                        prop_assert_eq!(r.submitted_s.to_bits(), submitted_s.to_bits());
                        prop_assert_eq!(r.started_s.to_bits(), started_s.to_bits());
                        prop_assert_eq!(r.finished_s.to_bits(), finished_s.to_bits());
                    }
                }
            }
            prop_assert_eq!(svc.queue_len(), model.pending.len(), "queue_len after op {}", i);
            prop_assert_eq!(svc.now_s().to_bits(), model.now_s.to_bits());
            prop_assert_eq!(order(&svc), model.order(), "completion order after op {}", i);
        }

        svc.drain();
        while model.step().is_some() {}
        prop_assert_eq!(order(&svc), model.order());
        for &(seq, _, _, started_s, finished_s) in &model.done {
            if let Some(r) = svc.report(JobId(seq)) {
                prop_assert_eq!(r.started_s.to_bits(), started_s.to_bits());
                prop_assert_eq!(r.finished_s.to_bits(), finished_s.to_bits());
            }
        }
        prop_assert_eq!(svc.service_stats().rejected, model.rejected);
    }
}
