//! The cluster itself: scatter work to nodes, gather results, account time.
//!
//! Every dispatch runs in four steps. *Plan*: the fault schedule decides
//! every message's fate up front — each task's route, every environment
//! edge — through one attempt loop, `transmit`. *Account*: each planned
//! message is charged to the traffic counters by one function. *Execute*:
//! each task body runs exactly once, on the rank its route ends at. *Time
//! and draw*: the virtual arm lays the plan on the simulator's clock, the
//! measured arm on the wall clock, and both draw it with one emitter that
//! differs only in where each message lands.
//!
//! With an active [`FaultPlan`] the dispatcher also *recovers*: a rank that
//! never acknowledges its task payload (scheduled drops, or a crash) is
//! detected by timeout after the plan's retry budget, and the task is
//! re-dispatched to the next surviving rank. Because the fault schedule is
//! a pure function of the plan's seed, the routing decisions are made
//! before any task executes, so each `FnOnce` task body runs exactly once —
//! on whichever rank finally receives it — and results come back in task
//! order, bit-identical to a fault-free run.

use std::sync::Mutex;
use std::time::Instant;

use bytes::Bytes;
use triolet_obs::{tree_edge_args, ArgValue, TraceData, TraceHandle, Track};
use triolet_pool::ThreadPool;
use triolet_serial::{packed, unpack_all, unpack_counters, Wire, WireError};

use crate::cost::{CostModel, DistTiming, TrafficStats};
use crate::fault::FaultPlan;
use crate::node::{ExecMode, NodeCtx, ResidentStore};
use crate::sim::{self, SimCore, SimEnvEdge, SimProblem, SimTask, SimTimes};
use crate::tree;

/// Pseudo-rank of the root in fault-schedule coordinates (the root is not a
/// cluster rank; any value outside `0..nodes` works, this one is obvious).
const ROOT: usize = usize::MAX;
/// Fault-schedule tag for root -> node task payloads.
const FWD_TAG: u32 = 0;
/// Fault-schedule tag for node -> root results.
const RET_TAG: u32 = 1;
/// Fault-schedule tag for the broadcast-environment payload.
const ENV_TAG: u32 = 2;
/// Fault-schedule tag for resident-segment scatter payloads.
const SEG_TAG: u32 = 3;
/// Attempt cap on messages between two live endpoints (environment edges,
/// results, segment scatters). The sender never declares a live peer dead,
/// so only a drop rate of essentially 1.0 can exhaust it.
const LIVE_ATTEMPT_CAP: u32 = 10_000;

/// How one-to-all payloads (the broadcast environment) are routed.
///
/// `Tree` sends over the contiguous-subtree binomial tree of [`tree`]: the
/// root transmits `O(log N)` copies and ranks that already hold the payload
/// relay it concurrently, so the last arrival is `O(log N)` edge times
/// behind the root instead of `O(N)`. `Linear` is the pre-tree behavior
/// (root loops over every destination), kept for ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Root sends every copy itself, serialized on its one NIC.
    Linear,
    /// Binomial-tree relay (the default).
    #[default]
    Tree,
}

/// How the root overlaps its own work with node compute.
///
/// `Streamed` (the default) pipelines the distributed hot path: the root
/// charges each task's pack time immediately before that task's send — so
/// rank k computes while the root still packs for rank k+1 — and unpacks
/// each result the moment it arrives instead of barriering on the slowest
/// node. `Barrier` is the pre-pipeline behavior (pack everything, send
/// everything, wait for every result, then unpack everything), kept for
/// equivalence tests and ablation. Results are bit-identical in both modes:
/// only the modeled timeline and the trace structure differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineMode {
    /// Serial root prologue/epilogue: pack-all, send-all, wait-all,
    /// unpack-all.
    Barrier,
    /// Overlap root-side pack/send/unpack with node compute (the default).
    #[default]
    Streamed,
}

/// A result payload gathered at the root failed to decode.
///
/// A damaged or mistyped result surfaces as this typed error through
/// [`Cluster::try_run`] instead of a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum DispatchError {
    /// Task `task`'s result bytes did not decode as the expected type.
    Decode {
        /// Index of the task whose result failed to decode.
        task: usize,
        /// The underlying wire-format error.
        source: WireError,
    },
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::Decode { task, source } => {
                write!(f, "task {task}'s result failed to decode at the root: {source}")
            }
        }
    }
}

impl std::error::Error for DispatchError {}

/// Cluster shape and cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of nodes (MPI ranks).
    pub nodes: usize,
    /// Worker threads per node (the paper's 16 cores/node).
    pub threads_per_node: usize,
    /// Real-thread or virtual-time execution.
    pub mode: ExecMode,
    /// Inter-node transfer cost model.
    pub cost: CostModel,
    /// Injected-fault schedule ([`FaultPlan::none`] by default).
    pub faults: FaultPlan,
    /// Record a span/event timeline for every dispatch (off by default;
    /// the disabled path is a single branch per record site).
    pub trace: bool,
    /// Route for one-to-all payloads (tree by default).
    pub topology: Topology,
    /// Root-side overlap strategy (streamed by default).
    pub pipeline: PipelineMode,
    /// Which virtual-time core lays dispatch timelines (the event heap by
    /// default; the eager walk is kept for ablation and equivalence).
    pub core: SimCore,
    /// Run *both* cores on every virtual dispatch and panic unless their
    /// timelines agree to the bit (equivalence gates and benches; off by
    /// default — it doubles simulation work).
    pub sim_check: bool,
}

impl ClusterConfig {
    /// Virtual-time cluster with the default (paper-like) network model.
    pub fn virtual_cluster(nodes: usize, threads_per_node: usize) -> Self {
        ClusterConfig {
            nodes: nodes.max(1),
            threads_per_node: threads_per_node.max(1),
            mode: ExecMode::Virtual,
            cost: CostModel::default(),
            faults: FaultPlan::none(),
            trace: false,
            topology: Topology::default(),
            pipeline: PipelineMode::default(),
            core: SimCore::default(),
            sim_check: false,
        }
    }

    /// Real-thread cluster (for correctness tests on small shapes).
    pub fn measured(nodes: usize, threads_per_node: usize) -> Self {
        ClusterConfig {
            nodes: nodes.max(1),
            threads_per_node: threads_per_node.max(1),
            mode: ExecMode::Measured,
            cost: CostModel::default(),
            faults: FaultPlan::none(),
            trace: false,
            topology: Topology::default(),
            pipeline: PipelineMode::default(),
            core: SimCore::default(),
            sim_check: false,
        }
    }

    /// Replace the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Replace the fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enable or disable timeline recording.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Replace the one-to-all routing topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Replace the root-side overlap strategy.
    pub fn with_pipeline(mut self, pipeline: PipelineMode) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Replace the virtual-time simulator core.
    pub fn with_sim_core(mut self, core: SimCore) -> Self {
        self.core = core;
        self
    }

    /// Enable or disable the in-dispatch dual-core equivalence check: every
    /// virtual dispatch runs *both* cores and panics unless the timelines
    /// agree bitwise.
    pub fn with_sim_check(mut self, sim_check: bool) -> Self {
        self.sim_check = sim_check;
        self
    }

    /// Total cores across the cluster.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.threads_per_node
    }
}

/// Results of one distributed operation, with its timing breakdown.
#[derive(Debug)]
pub struct DistOutcome<R> {
    /// One result per task, in task order (under faults a task's result may
    /// have been computed on a different rank than its index).
    pub results: Vec<R>,
    /// When each task's result was unpacked and ready at the root, in task
    /// order, on the outcome's timeline. Under `PipelineMode::Streamed`
    /// these are staggered arrival-order times (the streaming-merge
    /// consumer folds the completed prefix as it grows); under `Barrier`
    /// every entry equals `timing.total_s`.
    pub arrivals: Vec<f64>,
    /// Timing and traffic breakdown.
    pub timing: DistTiming,
    /// Recorded timeline (empty unless [`ClusterConfig::trace`] is set).
    /// Times share one origin: the start of root-side preparation.
    pub trace: TraceData,
}

/// A task's claim on a resident segment of a persistent collection.
///
/// A task carrying one of these reads its input from node-local storage
/// rather than a root-shipped payload: dispatched to `home`, it pays zero
/// input bytes on the wire (a *resident hit*); forced onto any other rank —
/// a crash redispatch — the dispatcher re-ships the full `seg_bytes` to the
/// survivor (a *resident miss*), so recovery stays possible and its cost
/// stays visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentSpec {
    /// Collection id in the cluster's [`ResidentStore`].
    pub id: u64,
    /// Rank holding the segment this task reads.
    pub home: usize,
    /// Bytes re-shipped if the task must execute off its home rank.
    pub seg_bytes: usize,
    /// Ghost/halo bytes fetched from neighbor segments on *every* call
    /// (zero for non-halo views).
    pub halo_bytes: usize,
}

/// One node's share of a distributed operation, in prepared form: the
/// payload size it would occupy on the wire plus the work to run on the node.
pub struct RawTask<'a, R> {
    /// Bytes the node's input payload occupies when serialized.
    pub wire_bytes: usize,
    /// Root-side seconds spent slicing/packing this task's payload. Charged
    /// on the root clock immediately before the task's send under
    /// `PipelineMode::Streamed` (so later packs overlap earlier nodes'
    /// compute) and as one prologue lump under `Barrier`.
    pub pack_s: f64,
    /// Resident-segment claim: `Some` routes the task to the segment's home
    /// rank and makes its input bytes placement-dependent (zero on a hit,
    /// `seg_bytes` on a redispatch); `None` is the ordinary ship-the-slice
    /// path.
    pub resident: Option<ResidentSpec>,
    /// The node task; must route compute through the [`NodeCtx`].
    pub work: Box<dyn FnOnce(&NodeCtx<'_>) -> R + Send + 'a>,
}

impl<'a, R> RawTask<'a, R> {
    /// Input bytes this task puts on the wire for a hop targeting `dest`.
    ///
    /// Ordinary tasks ship `wire_bytes` to every candidate rank. Resident
    /// tasks ship only halo bytes to their home rank and additionally the
    /// full segment to anyone else.
    fn hop_bytes(&self, dest: usize) -> usize {
        match self.resident {
            None => self.wire_bytes,
            Some(spec) => {
                let base = self.wire_bytes + spec.halo_bytes;
                if dest == spec.home {
                    base
                } else {
                    base + spec.seg_bytes
                }
            }
        }
    }

    /// The rank this task is routed to first (its home).
    fn home(&self, i: usize) -> usize {
        self.resident.map_or(i, |spec| spec.home)
    }
}

/// A node task body, once its route has been planned.
type Work<'a, R> = Box<dyn FnOnce(&NodeCtx<'_>) -> R + Send + 'a>;

/// Trace arguments of one span or event.
type Args = Vec<(&'static str, ArgValue)>;

/// What the fault schedule does to one message: how many attempts it takes
/// and what became of them. Every message a dispatch models — task payload
/// hops, environment edges, results, segment scatters — is planned into one
/// of these by [`transmit`].
#[derive(Debug, Clone, Copy, Default)]
struct Delivery {
    /// Transmission attempts (1 + retries).
    attempts: u32,
    /// Attempts that additionally arrived twice.
    dups: u32,
    /// Attempts lost in flight.
    drops: u32,
    /// Attempts damaged in flight.
    corrupts: u32,
    /// Whether the final attempt arrived intact and was acknowledged.
    delivered: bool,
}

impl Delivery {
    /// Copies that crossed the wire: every attempt plus every duplicate.
    fn copies(&self) -> u64 {
        u64::from(self.attempts + self.dups)
    }

    /// Retransmissions after the first attempt.
    fn retries(&self) -> u32 {
        self.attempts - 1
    }

    /// Modeled seconds on the sender's NIC: every copy pays the edge time
    /// `dt`, every unacknowledged attempt one acknowledgement timeout.
    fn wire_s(&self, dt: f64, timeout_s: f64) -> f64 {
        let timeouts = self.attempts - u32::from(self.delivered);
        dt * self.copies() as f64 + timeout_s * timeouts as f64
    }
}

/// Plan one message from `from` to `to` through the fault schedule: retry
/// until an attempt arrives intact at a receiver that acknowledges it, or
/// `cap` attempts are spent. A crashed receiver takes delivery but never
/// acknowledges, so callers pass `acks = false` for it.
fn transmit(
    plan: &FaultPlan,
    from: usize,
    to: usize,
    tag: u32,
    seq: u64,
    cap: u32,
    acks: bool,
) -> Delivery {
    if !plan.is_active() {
        return Delivery { attempts: 1, delivered: true, ..Delivery::default() };
    }
    let mut d = Delivery::default();
    for attempt in 0..cap {
        d.attempts += 1;
        let f = plan.decide(from, to, tag, seq, attempt);
        if !f.deliver {
            d.drops += 1;
            continue;
        }
        if f.duplicate {
            d.dups += 1;
        }
        if f.corrupt {
            d.corrupts += 1;
            continue;
        }
        if acks {
            d.delivered = true;
            break;
        }
    }
    d
}

/// [`transmit`] between two live endpoints: the sender retries past the
/// plan's budget rather than declaring its peer dead.
fn transmit_live(plan: &FaultPlan, from: usize, to: usize, tag: u32, seq: u64) -> Delivery {
    let d = transmit(plan, from, to, tag, seq, LIVE_ATTEMPT_CAP, true);
    assert!(d.delivered, "fault plan never delivers message {seq} (tag {tag}) to rank {to}");
    d
}

/// One rank a task's payload was sent to.
struct Hop {
    /// The rank this hop targeted.
    dest: usize,
    /// Input bytes the payload occupies on this hop.
    bytes: usize,
    d: Delivery,
}

/// The full (pre-computed, deterministic) route of one task, plus what the
/// timeline needs of the task once its body has been handed off.
struct TaskRoute {
    /// The rank that finally executes the task.
    exec: usize,
    /// Every rank tried, in order; only the last one delivered.
    hops: Vec<Hop>,
    pack_s: f64,
    resident: Option<ResidentSpec>,
}

impl TaskRoute {
    /// Moves to the next candidate rank: one per undelivered hop.
    fn redispatches(&self) -> u64 {
        self.hops.len() as u64 - 1
    }
}

/// Decide, purely from the fault schedule, where task `i` ends up running.
/// Candidates are tried in order: the task's `home` rank first (its index
/// for ordinary tasks, its resident segment's rank for resident ones), then
/// the surviving ranks after it (wrapping), each with the plan's full retry
/// budget. Moving to the next candidate is one redispatch. The fault
/// schedule is keyed on the task index `i`, not the home rank, so a
/// resident and a re-broadcast run of the same call see the same faults.
fn plan_route<R>(plan: &FaultPlan, n_nodes: usize, i: usize, t: &RawTask<'_, R>) -> TaskRoute {
    let home = t.home(i);
    let survivors = (1..n_nodes).map(|off| (home + off) % n_nodes).filter(|&r| !plan.crashed(r));
    let mut hops = Vec::new();
    for dest in std::iter::once(home).chain(survivors) {
        let budget = plan.max_retries.saturating_add(1);
        let d = transmit(plan, ROOT, dest, FWD_TAG, i as u64, budget, !plan.crashed(dest));
        hops.push(Hop { dest, bytes: t.hop_bytes(dest), d });
        if d.delivered {
            return TaskRoute { exec: dest, hops, pack_s: t.pack_s, resident: t.resident };
        }
    }
    panic!(
        "fault plan leaves no route for task {i}: \
         every surviving candidate exhausted its retry budget"
    );
}

/// One planned edge of the environment broadcast. Positions index the
/// participant list (`0` = root, `1..` = executing ranks).
struct EnvEdge {
    sender_pos: usize,
    dest_pos: usize,
    /// Sender's rank ([`ROOT`] for the root).
    sender: usize,
    dest: usize,
    /// Destination's depth below the root (1 for every linear edge).
    depth: u32,
    /// Sender's child count (its serialized send burst).
    fanout: usize,
    d: Delivery,
}

/// Plan the environment broadcast over `participants` (ranks; index 0 is the
/// root's pseudo-rank slot). Both endpoints of every edge are alive by
/// construction, so each edge retries until it delivers intact.
fn plan_env_edges(plan: &FaultPlan, topology: Topology, participants: &[usize]) -> Vec<EnvEdge> {
    let m = participants.len();
    let shape: Vec<(usize, usize, u32, usize)> = match topology {
        Topology::Tree => tree::edges(m)
            .into_iter()
            .map(|(s, c)| (s, c, tree::depth(c), tree::fanout(s, m)))
            .collect(),
        Topology::Linear => (1..m).map(|c| (0, c, 1, m - 1)).collect(),
    };
    shape
        .into_iter()
        .map(|(s, c, depth, fanout)| {
            let sender = if s == 0 { ROOT } else { participants[s] };
            let dest = participants[c];
            let d = transmit_live(plan, sender, dest, ENV_TAG, c as u64);
            EnvEdge { sender_pos: s, dest_pos: c, sender, dest, depth, fanout, d }
        })
        .collect()
}

/// One dispatch's wire totals, accumulated as each planned message is
/// charged.
#[derive(Default)]
struct Tally {
    bytes_out: u64,
    bytes_back: u64,
    messages: u64,
    retries: u64,
    redispatches: u64,
    resident_hits: u64,
    resident_misses: u64,
}

impl Tally {
    fn timing(
        self,
        total_s: f64,
        comm_s: f64,
        node_compute_s: Vec<f64>,
        (unpack_copied, unpack_aliased): (u64, u64),
    ) -> DistTiming {
        DistTiming {
            total_s,
            comm_s,
            node_compute_s,
            bytes_out: self.bytes_out,
            bytes_back: self.bytes_back,
            messages: self.messages,
            retries: self.retries,
            redispatches: self.redispatches,
            resident_hits: self.resident_hits,
            resident_misses: self.resident_misses,
            unpack_copied,
            unpack_aliased,
        }
    }
}

/// Where one planned message is drawn on the dispatch timeline.
#[derive(Clone, Copy)]
enum Place {
    /// A modeled transfer: a span from `start` to `done`, its fault marks
    /// one edge time `dt` apart.
    Span { start: f64, done: f64, dt: f64 },
    /// A wall-clock instant: a point event, its fault marks at the same
    /// time.
    At(f64),
}

impl Place {
    fn end(self) -> f64 {
        match self {
            Place::Span { done, .. } => done,
            Place::At(t) => t,
        }
    }

    fn draw(self, tr: &TraceHandle, name: &'static str, track: Track, args: Args) {
        match self {
            Place::Span { start, done, .. } => tr.span(name, "comm", track, start, done, args),
            Place::At(t) => tr.event(name, "comm", track, t, args),
        }
    }

    /// Record `count` fault events named `name`, one per attempt position.
    /// Their placement inside a span is a model decoration; the counts are
    /// exact.
    fn marks(self, tr: &TraceHandle, name: &'static str, count: u32, track: Track, args: &Args) {
        for k in 0..count {
            let t = match self {
                Place::Span { start, dt, .. } => start + dt * (k + 1) as f64,
                Place::At(t) => t,
            };
            tr.event(name, "fault", track, t, args.clone());
        }
    }

    /// The retry, drop, corrupt, and duplicate marks of one delivery.
    fn faults(self, tr: &TraceHandle, d: &Delivery, track: Track, args: Args) {
        self.marks(tr, "retry", d.retries(), track, &args);
        self.marks(tr, "drop", d.drops, track, &args);
        self.marks(tr, "corrupt", d.corrupts, track, &args);
        self.marks(tr, "duplicate", d.dups, track, &args);
    }
}

/// When each forward message lands: the only thing the two execution arms
/// draw differently.
enum Clock<'t> {
    /// The virtual arm: spans laid by the simulator core.
    Modeled { times: &'t SimTimes, env_dt: &'t [f64], hop_dt: &'t [f64], tasks: &'t [SimTask] },
    /// The measured arm: every in-process send is an instant after packing.
    Wall(f64),
}

impl Clock<'_> {
    fn env(&self, e: usize) -> Place {
        match self {
            Clock::Modeled { times, env_dt, .. } => {
                let (start, done) = times.env_bounds[e];
                Place::Span { start, done, dt: env_dt[e] }
            }
            Clock::Wall(t) => Place::At(*t),
        }
    }

    fn hop(&self, h: usize) -> Place {
        match self {
            Clock::Modeled { times, hop_dt, .. } => {
                let (start, done) = times.hop_bounds[h];
                Place::Span { start, done, dt: hop_dt[h] }
            }
            Clock::Wall(t) => Place::At(*t),
        }
    }

    /// Task `i`'s own pack span, charged right before its first send (the
    /// streamed virtual timeline only).
    fn pack(&self, i: usize) -> Option<(f64, f64)> {
        match self {
            Clock::Modeled { times, tasks, .. } if tasks[i].pack_s > 0.0 => {
                Some((times.pack_start[i], times.pack_start[i] + tasks[i].pack_s))
            }
            _ => None,
        }
    }

    /// When task `i`'s payload finished leaving the root.
    fn sent(&self, i: usize) -> f64 {
        match self {
            Clock::Modeled { times, .. } => times.send_done[i],
            Clock::Wall(t) => *t,
        }
    }
}

/// Everything the fault schedule decides about one dispatch, fixed before
/// any task runs. Both execution arms time and draw this same plan.
struct Plan {
    routes: Vec<TaskRoute>,
    /// The root plus every executing rank, when an environment ships.
    n_participants: usize,
    env: Vec<EnvEdge>,
    bcast_bytes: usize,
    tally: Tally,
}

impl Plan {
    /// Draw the forward leg: every environment edge, then per task its pack,
    /// its sends with their fault marks and redispatches, and its resident
    /// hit or miss.
    fn draw_forward(&self, tr: &TraceHandle, clock: &Clock<'_>) {
        if !tr.enabled() {
            return;
        }
        for (idx, e) in self.env.iter().enumerate() {
            let place = clock.env(idx);
            let track = if e.sender_pos == 0 { Track::Root } else { Track::Node(e.sender) };
            let mut args = tree_edge_args(e.dest, ENV_TAG, e.depth, e.fanout);
            args.push(("bytes", self.bcast_bytes.into()));
            args.push(("attempts", u64::from(e.d.attempts).into()));
            place.draw(tr, "comm:tree", track, args);
            place.faults(tr, &e.d, track, vec![("dest", e.dest.into())]);
        }
        let mut h = 0;
        for (i, route) in self.routes.iter().enumerate() {
            if let Some((s0, s1)) = clock.pack(i) {
                tr.span("root:pack", "prep", Track::Root, s0, s1, vec![("task", i.into())]);
            }
            for (k, hop) in route.hops.iter().enumerate() {
                let place = clock.hop(h);
                h += 1;
                let args = vec![
                    ("task", i.into()),
                    ("dest", hop.dest.into()),
                    ("bytes", hop.bytes.into()),
                    ("attempts", u64::from(hop.d.attempts).into()),
                ];
                place.draw(tr, "send", Track::Root, args);
                place.faults(
                    tr,
                    &hop.d,
                    Track::Root,
                    vec![("task", i.into()), ("dest", hop.dest.into())],
                );
                if let Some(next) = route.hops.get(k + 1) {
                    tr.event(
                        "redispatch",
                        "fault",
                        Track::Root,
                        place.end(),
                        vec![
                            ("task", i.into()),
                            ("from", hop.dest.into()),
                            ("to", next.dest.into()),
                        ],
                    );
                }
            }
            if let Some(spec) = route.resident {
                let name = if route.exec == spec.home {
                    "dist:resident-hit"
                } else {
                    "dist:resident-miss"
                };
                tr.event(
                    name,
                    "dist",
                    Track::Root,
                    clock.sent(i),
                    vec![
                        ("task", i.into()),
                        ("seg", spec.id.into()),
                        ("home", spec.home.into()),
                        ("exec", route.exec.into()),
                    ],
                );
            }
        }
    }
}

/// Decode task `task`'s result bytes at the root, with the `(copied,
/// aliased)` unpack bytes it moved. Must run on the thread doing the
/// unpacking (the counters are thread-local).
fn decode<R: Wire>(task: usize, rb: Bytes) -> Result<(R, (u64, u64)), DispatchError> {
    let (c0, a0) = unpack_counters();
    let r = unpack_all(rb).map_err(|source| DispatchError::Decode { task, source })?;
    let (c1, a1) = unpack_counters();
    Ok((r, (c1.wrapping_sub(c0), a1.wrapping_sub(a0))))
}

/// A simulated cluster of multicore nodes.
///
/// `run` is the core collective: it ships one serialized payload to each
/// participating node, executes the task there (two-level: the task uses the
/// node's [`NodeCtx`] for thread parallelism), and gathers serialized
/// results back to the root — the fork-join pattern Triolet's distributed
/// skeletons compile to.
pub struct Cluster {
    config: ClusterConfig,
    pools: Vec<ThreadPool>,
    stats: TrafficStats,
    resident: ResidentStore,
    /// Reusable simulator state (clock vectors, event heap): capacity is
    /// retained across dispatches, so a collective step allocates no
    /// per-step `sender_clock` vectors.
    sim_scratch: Mutex<sim::SimScratch>,
}

impl Cluster {
    /// Bring up a cluster. `Measured` mode spawns `nodes * threads_per_node`
    /// real worker threads; `Virtual` mode spawns none.
    pub fn new(config: ClusterConfig) -> Self {
        let pools = match config.mode {
            ExecMode::Measured => {
                (0..config.nodes).map(|_| ThreadPool::new(config.threads_per_node)).collect()
            }
            ExecMode::Virtual => Vec::new(),
        };
        Cluster {
            config,
            pools,
            stats: TrafficStats::new(),
            resident: ResidentStore::new(),
            sim_scratch: Mutex::new(sim::SimScratch::new()),
        }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.config.nodes
    }

    /// Threads per node.
    pub fn threads_per_node(&self) -> usize {
        self.config.threads_per_node
    }

    /// Cumulative traffic counters.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// The node-local store tracking resident collection segments.
    pub fn resident_store(&self) -> &ResidentStore {
        &self.resident
    }

    /// Charge one planned message of `bytes` to the cumulative counters and
    /// to `tally`; returns the bytes it put on the wire.
    fn account(&self, d: &Delivery, bytes: usize, tally: &mut Tally) -> u64 {
        for _ in 0..d.copies() {
            self.stats.record(bytes);
        }
        for _ in 0..d.drops {
            self.stats.record_dropped();
        }
        for _ in 0..d.corrupts {
            self.stats.record_corrupted();
        }
        for _ in 0..d.dups {
            self.stats.record_duplicated();
        }
        for _ in 0..d.retries() {
            self.stats.record_retry();
        }
        tally.messages += d.copies();
        tally.retries += u64::from(d.retries());
        bytes as u64 * d.copies()
    }

    fn trace_handle(&self) -> TraceHandle {
        if self.config.trace {
            TraceHandle::recording()
        } else {
            TraceHandle::disabled()
        }
    }

    /// Scatter the segments of a persistent collection to their home ranks:
    /// one `(rank, bytes)` send per segment, serialized on the root NIC,
    /// each retrying through the fault schedule until delivered intact.
    ///
    /// This is the *one-time* placement cost of a resident collection; every
    /// later skeleton call over it ships zero input bytes (see
    /// [`ResidentSpec`]). Segments land in the [`ResidentStore`] and each
    /// send is counted in [`TrafficStats::seg_scatters`] — deliberately not
    /// in `env_packs`, so environment accounting never double-counts the
    /// scatter. Returns the modeled timing and a trace rooted at a
    /// `dist:scatter` span.
    pub fn scatter_segments(&self, id: u64, segs: &[(usize, usize)]) -> (DistTiming, TraceData) {
        let plan = self.config.faults;
        let timeout_s = plan.timeout.as_secs_f64();
        let tr = self.trace_handle();
        let mut tally = Tally::default();
        let mut clock = 0.0f64;
        for &(rank, bytes) in segs {
            self.resident.register(id, rank, bytes);
            self.stats.record_seg_scatter();
            // Both endpoints are treated as alive: crashes interact with a
            // resident collection at *call* time, via redispatch.
            let d = transmit_live(&plan, ROOT, rank, SEG_TAG, rank as u64);
            tally.bytes_out += self.account(&d, bytes, &mut tally);
            let edge_s = d.wire_s(self.config.cost.edge_time(ROOT, rank, bytes), timeout_s);
            if tr.enabled() {
                let args = vec![
                    ("seg", id.into()),
                    ("dest", rank.into()),
                    ("bytes", bytes.into()),
                    ("attempts", u64::from(d.attempts).into()),
                ];
                tr.span("send", "comm", Track::Root, clock, clock + edge_s, args);
            }
            clock += edge_s;
        }
        if tr.enabled() {
            let args = vec![
                ("seg", id.into()),
                ("segments", segs.len().into()),
                ("bytes", tally.bytes_out.into()),
            ];
            tr.span("dist:scatter", "dist", Track::Root, 0.0, clock, args);
        }
        // Segment sends are serialized on the root NIC: the scatter is all
        // communication.
        let timing = tally.timing(clock, clock, vec![0.0; self.config.nodes], (0, 0));
        (timing, tr.take())
    }

    /// Scatter `payloads` (one per node, at most `nodes()`), run `task` on
    /// each node, gather the results.
    ///
    /// Every payload genuinely crosses the node boundary as bytes: it is
    /// packed at the root, unpacked on the node, and the result travels back
    /// the same way. Transfer times come from the [`CostModel`] applied to
    /// the real byte counts.
    pub fn run<T, R, F>(&self, payloads: Vec<T>, task: F) -> DistOutcome<R>
    where
        T: Wire + Send,
        R: Wire + Send,
        F: Fn(&NodeCtx<'_>, T) -> R + Send + Sync,
    {
        self.try_run(payloads, task).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run`](Self::run), surfacing a result that fails to decode at the
    /// root as [`DispatchError::Decode`] instead of panicking.
    pub fn try_run<T, R, F>(
        &self,
        payloads: Vec<T>,
        task: F,
    ) -> Result<DistOutcome<R>, DispatchError>
    where
        T: Wire + Send,
        R: Wire + Send,
        F: Fn(&NodeCtx<'_>, T) -> R + Send + Sync,
    {
        assert!(
            payloads.len() <= self.config.nodes,
            "more payloads ({}) than nodes ({})",
            payloads.len(),
            self.config.nodes
        );
        // Root packs every outgoing message (the paper observed message
        // construction itself becoming a bottleneck for sgemm — we charge
        // it, per payload, so the streamed dispatcher can overlap rank k+1's
        // pack with rank k's compute).
        let task = &task;
        let tasks: Vec<RawTask<'_, R>> = payloads
            .into_iter()
            .map(|payload| {
                let t0 = Instant::now();
                let msg = packed(&payload);
                let pack_s = t0.elapsed().as_secs_f64();
                drop(payload);
                RawTask {
                    wire_bytes: msg.len(),
                    pack_s,
                    resident: None,
                    work: Box::new(move |ctx: &NodeCtx<'_>| {
                        // Deserialization happens on the node: charge it (and
                        // let the trace show how much of it was zero-copy).
                        let payload: T =
                            ctx.unpack_sequential(|| unpack_all(msg).expect("payload roundtrip"));
                        task(ctx, payload)
                    }),
                }
            })
            .collect();
        self.dispatch(tasks, 0)
    }

    /// Run the same (cloned) payload on every node: the broadcast pattern.
    pub fn run_broadcast<T, R, F>(&self, payload: T, task: F) -> DistOutcome<R>
    where
        T: Wire + Send + Clone,
        R: Wire + Send,
        F: Fn(&NodeCtx<'_>, T) -> R + Send + Sync,
    {
        let payloads = vec![payload; self.config.nodes];
        self.run(payloads, task)
    }

    /// Lowest-level collective: run one prepared task per node.
    ///
    /// Used by the skeleton engine, whose payloads are sliced indexers: the
    /// closure carries the (already serialization-roundtripped) data
    /// natively — code plus deserialized bytes, exactly what arrives at a
    /// real node — while `wire_bytes` declares the payload size for the cost
    /// model and traffic accounting. Each task must route its compute
    /// through the provided [`NodeCtx`] so virtual time observes it.
    ///
    /// `bcast_bytes` is one shared payload (the packed closure environment)
    /// broadcast from the root to every *executing* rank over the configured
    /// [`Topology`] before any slice payload goes out. It is accounted once
    /// per broadcast edge — not once per task — and in virtual time a task
    /// cannot start before its rank holds it. `0` (the unit environment)
    /// charges nothing.
    pub fn run_raw<R>(&self, tasks: Vec<RawTask<'_, R>>, bcast_bytes: usize) -> DistOutcome<R>
    where
        R: Wire + Send,
    {
        self.dispatch(tasks, bcast_bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The one dispatcher behind `run` and `run_raw`: plan every message
    /// through the fault schedule, execute each task once on its final rank,
    /// and gather results in task order.
    ///
    /// Under [`PipelineMode::Streamed`] the root's own pack/unpack work is
    /// pipelined against node compute: task k+1's pack is charged right
    /// before its send (so rank k already computes), and each result is
    /// unpacked the moment it arrives rather than after the slowest node.
    /// [`PipelineMode::Barrier`] keeps the serial prologue/epilogue. Both
    /// modes produce bit-identical results and traffic accounting — a
    /// redispatched task's result still lands in its original task slot.
    fn dispatch<R>(
        &self,
        tasks: Vec<RawTask<'_, R>>,
        bcast_bytes: usize,
    ) -> Result<DistOutcome<R>, DispatchError>
    where
        R: Wire + Send,
    {
        assert!(
            tasks.len() <= self.config.nodes,
            "more tasks ({}) than nodes ({})",
            tasks.len(),
            self.config.nodes
        );
        let (plan, works) = self.plan(tasks, bcast_bytes);
        match self.config.mode {
            ExecMode::Virtual => self.run_virtual(plan, works),
            ExecMode::Measured => self.run_measured(plan, works),
        }
    }

    /// Plan and account the forward leg — every task's route, then the
    /// environment broadcast to the ranks the routes end at. The schedule,
    /// not the executor, decides what happens on the wire, so both arms
    /// account identical traffic.
    fn plan<'a, R>(
        &self,
        tasks: Vec<RawTask<'a, R>>,
        bcast_bytes: usize,
    ) -> (Plan, Vec<Work<'a, R>>) {
        let faults = self.config.faults;
        let n_nodes = self.config.nodes;
        if faults.is_active() {
            assert!(
                (0..n_nodes).any(|r| !faults.crashed(r)),
                "fault plan crashes every node: nothing can recover"
            );
        }
        let mut tally = Tally::default();
        let mut routes = Vec::with_capacity(tasks.len());
        let mut works = Vec::with_capacity(tasks.len());
        for (i, t) in tasks.into_iter().enumerate() {
            let route = plan_route(&faults, n_nodes, i, &t);
            for hop in &route.hops {
                tally.bytes_out += self.account(&hop.d, hop.bytes, &mut tally);
            }
            for _ in 0..route.redispatches() {
                self.stats.record_redispatch();
            }
            tally.redispatches += route.redispatches();
            if let Some(spec) = route.resident {
                if route.exec == spec.home {
                    self.stats.record_resident_hit();
                    tally.resident_hits += 1;
                } else {
                    self.stats.record_resident_miss();
                    tally.resident_misses += 1;
                }
            }
            routes.push(route);
            works.push(t.work);
        }

        // Environment broadcast: one shared payload reaches every executing
        // rank, routed by the configured topology.
        let mut participants: Vec<usize> = Vec::new();
        if bcast_bytes > 0 && !routes.is_empty() {
            participants.push(ROOT);
            participants.extend(routes.iter().map(|r| r.exec));
            participants[1..].sort_unstable();
            participants.dedup();
        }
        let env = plan_env_edges(&faults, self.config.topology, &participants);
        for e in &env {
            tally.bytes_out += self.account(&e.d, bcast_bytes, &mut tally);
        }
        let plan = Plan { routes, n_participants: participants.len(), env, bcast_bytes, tally };
        (plan, works)
    }

    /// The virtual arm: run every task once, clockless, then lay the plan on
    /// the simulator's clock and draw it.
    fn run_virtual<R>(
        &self,
        mut plan: Plan,
        works: Vec<Work<'_, R>>,
    ) -> Result<DistOutcome<R>, DispatchError>
    where
        R: Wire + Send,
    {
        let faults = self.config.faults;
        let cost = self.config.cost;
        let timeout_s = faults.timeout.as_secs_f64();
        let n_tasks = works.len();
        let streamed = self.config.pipeline == PipelineMode::Streamed;
        let tr = self.trace_handle();

        // Root prologue: `Barrier` charges the whole pack lump before
        // anything leaves; `Streamed` charges each task's share right before
        // its own send, so rank k's compute overlaps the pack for rank k+1.
        let total_pack: f64 = plan.routes.iter().map(|r| r.pack_s).sum();
        let mut start_clock = 0.0;
        if !streamed && total_pack > 0.0 {
            tr.span("root:pack", "prep", Track::Root, 0.0, total_pack, vec![]);
            start_clock = total_pack;
        }

        // --- Reduce the dispatch to pure durations (a SimProblem). comm_s
        // accumulates in canonical order — environment edges, then task
        // hops, then returns below — so the breakdown is bit-identical
        // whichever core lays the timeline.
        let mut comm_s = 0.0f64;
        let mut sim_env: Vec<SimEnvEdge> = Vec::with_capacity(plan.env.len());
        let mut env_dt: Vec<f64> = Vec::with_capacity(plan.env.len());
        for e in &plan.env {
            let dt = cost.edge_time(e.sender, e.dest, plan.bcast_bytes);
            let edge_s = e.d.wire_s(dt, timeout_s);
            comm_s += edge_s;
            env_dt.push(dt);
            sim_env.push(SimEnvEdge {
                sender_pos: e.sender_pos,
                dest_pos: e.dest_pos,
                dest_rank: e.dest,
                edge_s,
            });
        }
        let mut hop_s: Vec<f64> = Vec::new();
        let mut hop_dt: Vec<f64> = Vec::new();
        let mut sim_tasks: Vec<SimTask> = Vec::with_capacity(n_tasks);
        for route in &plan.routes {
            let h0 = hop_s.len();
            for hop in &route.hops {
                let dt = cost.edge_time(ROOT, hop.dest, hop.bytes);
                let s = hop.d.wire_s(dt, timeout_s);
                comm_s += s;
                hop_s.push(s);
                hop_dt.push(dt);
            }
            sim_tasks.push(SimTask {
                pack_s: if streamed { route.pack_s } else { 0.0 },
                exec: route.exec,
                elapsed: 0.0, // measured below, once the task has run
                ret_s: 0.0,   // filled once result sizes are known
                hops: h0..hop_s.len(),
            });
        }

        // --- Execute every task once, in task order. Execution is
        // clockless: results and wall-measured node seconds feed the
        // simulator; they never depend on it.
        let mut node_compute = vec![0.0f64; self.config.nodes];
        let mut results_bytes = Vec::with_capacity(n_tasks);
        let mut sub_traces = Vec::with_capacity(n_tasks);
        for (i, work) in works.into_iter().enumerate() {
            let exec = plan.routes[i].exec;
            let node_tr =
                if tr.enabled() { TraceHandle::recording() } else { TraceHandle::disabled() };
            let ctx = NodeCtx::new(exec, self.config.threads_per_node, ExecMode::Virtual, None)
                .with_trace(node_tr);
            let result = work(&ctx);
            let rb = ctx.sequential_labeled("pack", "prep", || packed(&result));
            let elapsed = ctx.elapsed();
            node_compute[exec] += elapsed;
            sim_tasks[i].elapsed = elapsed;
            sub_traces.push(ctx.take_trace());
            results_bytes.push(rb);
        }

        // Return trips, planned and accounted in task order (the third leg
        // of the canonical comm_s order).
        let mut returns: Vec<(Delivery, f64)> = Vec::with_capacity(n_tasks);
        for (i, rb) in results_bytes.iter().enumerate() {
            let exec = plan.routes[i].exec;
            let ret = transmit_live(&faults, exec, ROOT, RET_TAG, i as u64);
            plan.tally.bytes_back += self.account(&ret, rb.len(), &mut plan.tally);
            let rdt = cost.edge_time(exec, ROOT, rb.len());
            let path_s = ret.wire_s(rdt, timeout_s);
            comm_s += path_s;
            sim_tasks[i].ret_s = path_s;
            returns.push((ret, rdt));
        }

        // --- Lay the dispatch on the virtual clock (optionally with both
        // cores, asserting bitwise agreement).
        let problem = SimProblem {
            start_clock,
            n_nodes: self.config.nodes,
            n_participants: plan.n_participants,
            env_edges: &sim_env,
            hop_s: &hop_s,
            tasks: &sim_tasks,
        };
        let times = {
            let mut scratch = self.sim_scratch.lock().expect("sim scratch poisoned");
            if self.config.sim_check {
                let eager = sim::run_eager(&problem, &mut scratch);
                let event = sim::run_event(&problem, &mut scratch);
                sim::assert_cores_agree(&eager, &event);
                if self.config.core == SimCore::Eager {
                    eager
                } else {
                    event
                }
            } else {
                sim::run(self.config.core, &problem, &mut scratch)
            }
        };
        self.stats.record_sim(times.events, times.peak_heap as u64);
        let finish = times.ret_done.iter().fold(0.0f64, |a, &b| a.max(b));

        // --- Draw the timeline.
        let clock =
            Clock::Modeled { times: &times, env_dt: &env_dt, hop_dt: &hop_dt, tasks: &sim_tasks };
        plan.draw_forward(&tr, &clock);
        if tr.enabled() {
            for (i, mut sub) in sub_traces.into_iter().enumerate() {
                let (start, done) = times.node_bounds[i];
                sub.shift(start);
                tr.absorb(sub);
                let track = Track::Node(plan.routes[i].exec);
                tr.span("node:task", "dispatch", track, start, done, vec![("task", i.into())]);
            }
            for (i, (ret, rdt)) in returns.iter().enumerate() {
                let exec = plan.routes[i].exec;
                let place = Place::Span {
                    start: times.node_bounds[i].1,
                    done: times.ret_done[i],
                    dt: *rdt,
                };
                let args = vec![
                    ("task", i.into()),
                    ("from", exec.into()),
                    ("bytes", results_bytes[i].len().into()),
                    ("attempts", u64::from(ret.attempts).into()),
                ];
                place.draw(&tr, "return", Track::Root, args);
                let args = vec![("task", i.into()), ("from", exec.into())];
                place.marks(&tr, "retry", ret.retries(), Track::Root, &args);
            }
        }

        // --- Root epilogue.
        let mut arrivals = vec![0.0f64; n_tasks];
        let mut moved_total = (0u64, 0u64);
        let mut results: Vec<R> = Vec::with_capacity(n_tasks);
        let total_s = if streamed {
            // The root (one core) unpacks results in arrival order, each
            // the moment it lands — early results are ready while late
            // nodes still compute, so most of the unpack cost hides inside
            // the network tail. Ties break on task index so the processing
            // order is deterministic.
            let mut order: Vec<usize> = (0..n_tasks).collect();
            order.sort_by(|&a, &b| {
                times.ret_done[a]
                    .partial_cmp(&times.ret_done[b])
                    .expect("arrival times are finite")
                    .then(a.cmp(&b))
            });
            let mut uclock = times.root_free; // root free after last send
            let mut slots: Vec<Option<R>> = (0..n_tasks).map(|_| None).collect();
            let mut spans = vec![(0.0f64, 0.0f64, (0u64, 0u64)); n_tasks];
            for &i in &order {
                uclock = uclock.max(times.ret_done[i]);
                let t1 = Instant::now();
                let (r, moved) = decode(i, std::mem::take(&mut results_bytes[i]))?;
                let u = t1.elapsed().as_secs_f64();
                moved_total = (moved_total.0 + moved.0, moved_total.1 + moved.1);
                slots[i] = Some(r);
                spans[i] = (uclock, uclock + u, moved);
                uclock += u;
                arrivals[i] = uclock;
            }
            // Spans are emitted in task order (not arrival order) so the
            // recorded line order is a pure function of the inputs,
            // independent of measured unpack durations.
            if tr.enabled() {
                for (i, &(s0, s1, moved)) in spans.iter().enumerate() {
                    tr.span(
                        "root:unpack",
                        "prep",
                        Track::Root,
                        s0,
                        s1,
                        unpack_args(Some(i), moved),
                    );
                }
            }
            results.extend(slots.into_iter().map(|s| s.expect("every task unpacked")));
            uclock.max(finish)
        } else {
            // Serial epilogue: the root waits out the slowest return, then
            // unpacks everything in one lump.
            let t1 = Instant::now();
            for (i, rb) in results_bytes.into_iter().enumerate() {
                let (r, moved) = decode(i, rb)?;
                moved_total = (moved_total.0 + moved.0, moved_total.1 + moved.1);
                results.push(r);
            }
            let total = finish + t1.elapsed().as_secs_f64();
            tr.span(
                "root:unpack",
                "prep",
                Track::Root,
                finish,
                total,
                unpack_args(None, moved_total),
            );
            arrivals.iter_mut().for_each(|a| *a = total);
            total
        };
        self.stats.record_unpack(moved_total.0, moved_total.1);
        Ok(DistOutcome {
            results,
            arrivals,
            trace: tr.take(),
            timing: plan.tally.timing(total_s, comm_s, node_compute, moved_total),
        })
    }

    /// The measured arm: run every task on its rank's real thread pool and
    /// gather results on the root thread, on a wall-clock timeline whose
    /// origin is the start of root-side packing.
    fn run_measured<'a, R>(
        &self,
        mut plan: Plan,
        works: Vec<Work<'a, R>>,
    ) -> Result<DistOutcome<R>, DispatchError>
    where
        R: Wire + Send,
    {
        let faults = self.config.faults;
        let n_tasks = works.len();
        let streamed = self.config.pipeline == PipelineMode::Streamed;
        let tpn = self.config.threads_per_node;
        let tr = self.trace_handle();
        let t_start = Instant::now();
        // Measured mode genuinely packed every payload serially before
        // dispatch, so the pack lump sits at the timeline origin in both
        // pipeline modes; what streaming overlaps here is the *gather*
        // side — the root unpacks each result as its node thread hands it
        // over, while slower node threads still compute. Sends are
        // instantaneous in-process, so they all land at `prep_off`.
        let prep_off: f64 = plan.routes.iter().map(|r| r.pack_s).sum();
        if prep_off > 0.0 {
            tr.span("root:pack", "prep", Track::Root, 0.0, prep_off, vec![]);
        }
        plan.draw_forward(&tr, &Clock::Wall(prep_off));

        // Group tasks by executing rank; each group runs in task order on
        // its rank's real thread pool.
        let mut groups: Vec<Vec<(usize, Work<'a, R>)>> =
            (0..self.config.nodes).map(|_| Vec::new()).collect();
        for (i, work) in works.into_iter().enumerate() {
            groups[plan.routes[i].exec].push((i, work));
        }
        let pools = &self.pools;
        let mut node_compute = vec![0.0f64; self.config.nodes];
        let mut raw: Vec<Option<Bytes>> = (0..n_tasks).map(|_| None).collect();
        let mut slots: Vec<Option<R>> = (0..n_tasks).map(|_| None).collect();
        let mut arrivals = vec![0.0f64; n_tasks];
        let mut unpack_spans = vec![(0.0f64, 0.0f64, (0u64, 0u64)); n_tasks];
        let mut moved_total = (0u64, 0u64);
        let mut first_ready: Option<f64> = None;
        let mut decode_err: Option<DispatchError> = None;
        let (res_tx, res_rx) = std::sync::mpsc::channel::<(usize, usize, Bytes, f64)>();
        std::thread::scope(|s| {
            for (rank, group) in groups.into_iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let pool = &pools[rank];
                let tr = tr.clone();
                let res_tx = res_tx.clone();
                s.spawn(move || {
                    for (i, work) in group {
                        let node_tr = if tr.enabled() {
                            TraceHandle::recording()
                        } else {
                            TraceHandle::disabled()
                        };
                        let start_off = prep_off + t_start.elapsed().as_secs_f64();
                        let ctx = NodeCtx::new(rank, tpn, ExecMode::Measured, Some(pool))
                            .with_trace(node_tr);
                        let result = work(&ctx);
                        let rb = ctx.sequential_labeled("pack", "prep", || packed(&result));
                        if tr.enabled() {
                            let end_off = prep_off + t_start.elapsed().as_secs_f64();
                            let mut sub = ctx.take_trace();
                            sub.shift(start_off);
                            tr.absorb(sub);
                            let args = vec![("task", i.into())];
                            tr.span(
                                "node:task",
                                "dispatch",
                                Track::Node(rank),
                                start_off,
                                end_off,
                                args,
                            );
                        }
                        // The root may have bailed on a decode error; a dead
                        // receiver is not our problem.
                        let _ = res_tx.send((rank, i, rb, ctx.elapsed()));
                    }
                });
            }
            drop(res_tx);
            // The root thread is the gather consumer. Streamed: take each
            // result as its node thread finishes and unpack it immediately,
            // overlapping slower nodes' compute. Barrier: only record
            // receipt here; the unpack lump happens after every node is done.
            while let Ok((rank, i, rb, secs)) = res_rx.recv() {
                node_compute[rank] += secs;
                if streamed {
                    let at = prep_off + t_start.elapsed().as_secs_f64();
                    first_ready.get_or_insert(at);
                    match decode(i, rb.clone()) {
                        Ok((r, moved)) => {
                            moved_total = (moved_total.0 + moved.0, moved_total.1 + moved.1);
                            slots[i] = Some(r);
                            let done = prep_off + t_start.elapsed().as_secs_f64();
                            unpack_spans[i] = (at, done, moved);
                            arrivals[i] = done;
                        }
                        Err(e) => {
                            decode_err = Some(e);
                            break;
                        }
                    }
                }
                raw[i] = Some(rb);
            }
        });
        if let Some(e) = decode_err {
            return Err(e);
        }
        let gather_off = first_ready.unwrap_or_else(|| prep_off + t_start.elapsed().as_secs_f64());
        if !streamed {
            for (i, rb) in raw.iter().enumerate() {
                let rb = rb.clone().expect("every task produced a result");
                let (r, moved) = decode(i, rb)?;
                moved_total = (moved_total.0 + moved.0, moved_total.1 + moved.1);
                slots[i] = Some(r);
            }
        }
        // Return-path accounting runs in task order after the fact: the
        // counters are order-independent sums, and emitting the trace lines
        // here keeps the recorded order deterministic even though
        // completion order is not.
        for (i, rb) in raw.iter().enumerate() {
            let len = rb.as_ref().expect("every task produced a result").len();
            let exec = plan.routes[i].exec;
            let ret = transmit_live(&faults, exec, ROOT, RET_TAG, i as u64);
            plan.tally.bytes_back += self.account(&ret, len, &mut plan.tally);
            if tr.enabled() {
                let args = vec![("task", i.into()), ("from", exec.into())];
                Place::At(gather_off).marks(&tr, "retry", ret.retries(), Track::Root, &args);
                if streamed {
                    let (s0, s1, moved) = unpack_spans[i];
                    tr.span(
                        "root:unpack",
                        "prep",
                        Track::Root,
                        s0,
                        s1,
                        unpack_args(Some(i), moved),
                    );
                }
            }
        }
        let end_off = prep_off + t_start.elapsed().as_secs_f64();
        tr.span("root:gather", "comm", Track::Root, gather_off, end_off, vec![]);
        if !streamed {
            arrivals.iter_mut().for_each(|a| *a = end_off);
        }
        let results: Vec<R> =
            slots.into_iter().map(|s| s.expect("every task produced a result")).collect();
        self.stats.record_unpack(moved_total.0, moved_total.1);
        // Real transfers are in-process; wall time covers them.
        let timing = plan.tally.timing(end_off, 0.0, node_compute, moved_total);
        Ok(DistOutcome { results, arrivals, trace: tr.take(), timing })
    }
}

/// Arguments of a `root:unpack` span: its task (absent for the barrier
/// lump) and the bytes it copied and aliased.
fn unpack_args(task: Option<usize>, (copied, aliased): (u64, u64)) -> Args {
    let mut args: Args = task.map(|i| ("task", i.into())).into_iter().collect();
    args.push(("copied", copied.into()));
    args.push(("aliased", aliased.into()));
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn virtual_run_scatters_and_gathers() {
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(4, 2));
        let payloads: Vec<Vec<u64>> = (0..4).map(|i| vec![i as u64; 10]).collect();
        let out = cluster.run(payloads, |ctx, v: Vec<u64>| {
            assert_eq!(v.len(), 10);
            v.iter().sum::<u64>() + ctx.rank() as u64 * 1000
        });
        assert_eq!(out.results, vec![0, 1010, 2020, 3030]);
        assert_eq!(out.timing.messages, 8);
        assert_eq!(out.timing.retries, 0);
        assert_eq!(out.timing.redispatches, 0);
        assert!(out.timing.bytes_out > 0);
        assert_eq!(cluster.stats().messages(), 8);
    }

    #[test]
    fn measured_run_matches_virtual_results() {
        let payloads: Vec<Vec<u64>> = (0..3).map(|i| (0..=i as u64).collect()).collect();
        let task = |_ctx: &NodeCtx<'_>, v: Vec<u64>| v.iter().sum::<u64>();
        let v = Cluster::new(ClusterConfig::virtual_cluster(3, 2)).run(payloads.clone(), task);
        let m = Cluster::new(ClusterConfig::measured(3, 2)).run(payloads, task);
        assert_eq!(v.results, m.results);
        assert_eq!(v.timing.bytes_out, m.timing.bytes_out);
    }

    #[test]
    fn broadcast_clones_payload_per_node() {
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(3, 1));
        let out =
            cluster.run_broadcast(vec![1u32, 2, 3], |ctx, v: Vec<u32>| v[ctx.rank() % 3] as u64);
        assert_eq!(out.results, vec![1, 2, 3]);
        // Broadcast ships the payload once per node.
        let one = (vec![1u32, 2, 3]).packed_size() as u64;
        assert_eq!(out.timing.bytes_out, 3 * one);
    }

    #[test]
    fn fewer_payloads_than_nodes_is_fine() {
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(8, 2));
        let out = cluster.run(vec![1u64, 2], |_ctx, x: u64| x * 2);
        assert_eq!(out.results, vec![2, 4]);
    }

    #[test]
    #[should_panic(expected = "more payloads")]
    fn too_many_payloads_panics() {
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(2, 1));
        let _ = cluster.run(vec![1u64, 2, 3], |_ctx, x: u64| x);
    }

    #[test]
    fn comm_cost_scales_with_bytes() {
        let cfg = ClusterConfig::virtual_cluster(2, 1).with_cost(CostModel::flat(0.0, 1e6));
        let cluster = Cluster::new(cfg);
        let big = vec![0u8; 1_000_000];
        let small = vec![0u8; 10];
        let t_big = cluster.run(vec![big], |_c, v: Vec<u8>| v.len() as u64).timing.comm_s;
        let t_small = cluster.run(vec![small], |_c, v: Vec<u8>| v.len() as u64).timing.comm_s;
        assert!(t_big > 50.0 * t_small, "1MB at 1MB/s must dominate: {t_big} vs {t_small}");
    }

    #[test]
    fn free_cost_model_zero_comm() {
        let cfg = ClusterConfig::virtual_cluster(2, 1).with_cost(CostModel::free());
        let out = Cluster::new(cfg)
            .run(vec![vec![0u8; 1000], vec![0u8; 1000]], |_c, v: Vec<u8>| v.len() as u64);
        assert_eq!(out.timing.comm_s, 0.0);
    }

    #[test]
    fn node_ctx_time_feeds_timing() {
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(2, 4));
        let out = cluster.run(vec![5u64, 6], |ctx, x: u64| {
            ctx.sequential(|| std::thread::sleep(std::time::Duration::from_millis(3)));
            x
        });
        assert!(out.timing.node_compute_s.iter().all(|&t| t >= 0.003));
        assert!(out.timing.total_s >= 0.003);
    }

    fn lossy_plan(seed: u64) -> FaultPlan {
        FaultPlan::seeded(seed)
            .with_drop(0.3)
            .with_duplication(0.1)
            .with_corruption(0.05)
            .with_timeout(Duration::from_millis(1))
    }

    #[test]
    fn lossy_virtual_run_matches_fault_free_results() {
        let payloads: Vec<Vec<u64>> = (0..4).map(|i| (0..50u64).map(|x| x * i).collect()).collect();
        let task = |_ctx: &NodeCtx<'_>, v: Vec<u64>| v.iter().sum::<u64>();
        let clean = Cluster::new(ClusterConfig::virtual_cluster(4, 2)).run(payloads.clone(), task);
        let faulty = Cluster::new(ClusterConfig::virtual_cluster(4, 2).with_faults(lossy_plan(42)))
            .run(payloads, task);
        assert_eq!(clean.results, faulty.results, "faults must not change results");
        assert!(faulty.timing.retries > 0, "a 30% drop rate over 8 transfers must retry");
        assert!(faulty.timing.messages > clean.timing.messages);
        assert!(faulty.timing.bytes_out > clean.timing.bytes_out);
        assert!(faulty.timing.comm_s > clean.timing.comm_s, "faults must cost modeled time");
    }

    #[test]
    fn crashed_rank_tasks_are_redispatched() {
        let plan = FaultPlan::seeded(7).with_crash(1).with_timeout(Duration::from_millis(1));
        let cfg = ClusterConfig::virtual_cluster(4, 2).with_faults(plan);
        let cluster = Cluster::new(cfg);
        let out = cluster.run(vec![10u64, 20, 30, 40], |_ctx, x: u64| x * 2);
        assert_eq!(out.results, vec![20, 40, 60, 80], "task order survives redispatch");
        assert!(out.timing.redispatches >= 1, "rank 1's task must move to a survivor");
        assert_eq!(cluster.stats().redispatches(), out.timing.redispatches);
        // The crashed rank computed nothing.
        assert_eq!(out.timing.node_compute_s[1], 0.0);
    }

    #[test]
    fn crashed_rank_tasks_are_redispatched_measured() {
        let plan = FaultPlan::seeded(7).with_crash(0).with_timeout(Duration::from_millis(1));
        let cfg = ClusterConfig::measured(3, 2).with_faults(plan);
        let cluster = Cluster::new(cfg);
        let out = cluster.run(vec![1u64, 2, 3], |_ctx, x: u64| x + 100);
        assert_eq!(out.results, vec![101, 102, 103]);
        assert!(out.timing.redispatches >= 1);
        assert_eq!(out.timing.node_compute_s[0], 0.0);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let payloads: Vec<Vec<u64>> = (0..4).map(|i| vec![i as u64; 20]).collect();
        let task = |_ctx: &NodeCtx<'_>, v: Vec<u64>| v.iter().sum::<u64>();
        let cfg = ClusterConfig::virtual_cluster(4, 2).with_faults(lossy_plan(5));
        let a = Cluster::new(cfg).run(payloads.clone(), task);
        let b = Cluster::new(cfg).run(payloads, task);
        assert_eq!(a.results, b.results);
        assert_eq!(a.timing.messages, b.timing.messages);
        assert_eq!(a.timing.retries, b.timing.retries);
        assert_eq!(a.timing.redispatches, b.timing.redispatches);
    }

    #[test]
    fn untraced_dispatch_returns_empty_trace() {
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(2, 2));
        let out = cluster.run(vec![1u64, 2], |_ctx, x: u64| x);
        assert!(out.trace.is_empty());
    }

    #[test]
    fn traced_virtual_dispatch_records_the_timeline() {
        let cfg = ClusterConfig::virtual_cluster(3, 2).with_trace(true);
        let out = Cluster::new(cfg)
            .run(vec![vec![1u64; 50], vec![2; 50], vec![3; 50]], |ctx, v: Vec<u64>| {
                ctx.sequential(|| v.iter().sum::<u64>())
            });
        let names = out.trace.span_names();
        for required in ["root:pack", "send", "node:task", "return", "root:unpack"] {
            assert!(names.contains(&required), "missing span {required:?} in {names:?}");
        }
        // One send + one exec envelope + one return per task.
        assert_eq!(out.trace.spans.iter().filter(|s| s.name == "send").count(), 3);
        assert_eq!(out.trace.spans.iter().filter(|s| s.name == "node:task").count(), 3);
        // Every span fits the run: no negative times, none past the total.
        for s in &out.trace.spans {
            assert!(s.t0 >= 0.0 && s.t1 <= out.timing.total_s + 1e-9, "{s:?}");
        }
    }

    #[test]
    fn traced_fault_run_shows_retries_and_redispatches() {
        let plan = FaultPlan::seeded(2024)
            .with_drop(0.2)
            .with_crash(1)
            .with_timeout(Duration::from_millis(1));
        let cfg = ClusterConfig::virtual_cluster(4, 2).with_faults(plan).with_trace(true);
        let out = Cluster::new(cfg).run(vec![1u64, 2, 3, 4], |_ctx, x: u64| x * 2);
        assert_eq!(out.results, vec![2, 4, 6, 8]);
        assert!(out.trace.count_events("retry") > 0);
        assert!(out.trace.count_events("redispatch") > 0);
        assert_eq!(out.trace.count_events("redispatch") as u64, out.timing.redispatches);
    }

    #[test]
    fn traced_measured_dispatch_records_node_tasks() {
        let cfg = ClusterConfig::measured(2, 2).with_trace(true);
        let out = Cluster::new(cfg).run(vec![10u64, 20], |ctx, x: u64| ctx.sequential(|| x + 1));
        assert_eq!(out.results, vec![11, 21]);
        let names = out.trace.span_names();
        assert!(names.contains(&"node:task"), "missing node:task in {names:?}");
        assert!(names.contains(&"root:gather"), "missing root:gather in {names:?}");
        assert_eq!(out.trace.spans.iter().filter(|s| s.name == "node:task").count(), 2);
    }

    #[test]
    #[should_panic(expected = "crashes every node")]
    fn all_crashed_plan_is_rejected() {
        let plan = FaultPlan::seeded(1).with_crash(0).with_crash(1);
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(2, 1).with_faults(plan));
        let _ = cluster.run(vec![1u64, 2], |_ctx, x: u64| x);
    }

    #[test]
    fn streamed_and_barrier_are_bit_identical() {
        // Same payloads, same fault schedule: only the modeled timeline may
        // differ between pipeline modes, never results or wire accounting.
        let payloads: Vec<Vec<f64>> =
            (0..4).map(|i| (0..60).map(|x| (x as f64) * 0.1 + i as f64).collect()).collect();
        let task = |_ctx: &NodeCtx<'_>, v: Vec<f64>| v.iter().fold(0.0f64, |a, &x| a + x * x);
        for faults in [FaultPlan::none(), lossy_plan(11)] {
            let base = ClusterConfig::virtual_cluster(4, 2).with_faults(faults);
            let s = Cluster::new(base.with_pipeline(PipelineMode::Streamed))
                .run(payloads.clone(), task);
            let b =
                Cluster::new(base.with_pipeline(PipelineMode::Barrier)).run(payloads.clone(), task);
            assert_eq!(s.results, b.results, "pipeline mode must not change results");
            assert_eq!(s.timing.bytes_out, b.timing.bytes_out);
            assert_eq!(s.timing.bytes_back, b.timing.bytes_back);
            assert_eq!(s.timing.messages, b.timing.messages);
            assert_eq!(s.timing.retries, b.timing.retries);
            assert_eq!(s.timing.redispatches, b.timing.redispatches);
        }
    }

    #[test]
    fn streamed_arrivals_are_staggered() {
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(4, 1));
        let payloads: Vec<Vec<u64>> = (0..4).map(|i| vec![i as u64; 100]).collect();
        let out = cluster.run(payloads, |_ctx, v: Vec<u64>| v.iter().sum::<u64>());
        assert_eq!(out.arrivals.len(), 4);
        // Equal-size payloads on an idle cluster return in task order; the
        // root's serialized sends stagger them.
        for w in out.arrivals.windows(2) {
            assert!(w[0] < w[1], "arrivals must be staggered: {:?}", out.arrivals);
        }
        assert!(out.arrivals[0] < out.timing.total_s);
        assert!(*out.arrivals.last().unwrap() <= out.timing.total_s + 1e-12);
    }

    #[test]
    fn barrier_arrivals_all_equal_total() {
        let cfg = ClusterConfig::virtual_cluster(3, 1).with_pipeline(PipelineMode::Barrier);
        let out = Cluster::new(cfg).run(vec![1u64, 2, 3], |_ctx, x: u64| x + 1);
        assert!(out.arrivals.iter().all(|&a| a == out.timing.total_s));
    }

    /// Packs one word, demands two on unpack: every decode fails.
    #[derive(Debug)]
    struct Truncated(u64);

    impl Wire for Truncated {
        fn pack(&self, w: &mut triolet_serial::WireWriter) {
            self.0.pack(w);
        }
        fn unpack(r: &mut triolet_serial::WireReader) -> triolet_serial::WireResult<Self> {
            let a = u64::unpack(r)?;
            let _ = u64::unpack(r)?;
            Ok(Truncated(a))
        }
        fn packed_size(&self) -> usize {
            8
        }
    }

    #[test]
    fn result_decode_failure_is_a_typed_error() {
        for mode in [PipelineMode::Streamed, PipelineMode::Barrier] {
            let cfg = ClusterConfig::virtual_cluster(2, 1).with_pipeline(mode);
            let err = Cluster::new(cfg)
                .try_run(vec![1u64, 2], |_ctx, x: u64| Truncated(x))
                .expect_err("truncated results must not decode");
            assert!(
                matches!(err, DispatchError::Decode { task: 0, .. }),
                "unexpected error in {mode:?}: {err}"
            );
        }
    }

    #[test]
    fn measured_decode_failure_is_a_typed_error() {
        for mode in [PipelineMode::Streamed, PipelineMode::Barrier] {
            let cfg = ClusterConfig::measured(2, 1).with_pipeline(mode);
            let err = Cluster::new(cfg)
                .try_run(vec![1u64, 2], |_ctx, x: u64| Truncated(x))
                .expect_err("truncated results must not decode");
            assert!(matches!(err, DispatchError::Decode { .. }), "{mode:?}: {err}");
        }
    }

    #[test]
    fn streamed_pack_overlaps_earlier_node_compute() {
        let cfg = ClusterConfig::virtual_cluster(3, 1).with_trace(true);
        let out = Cluster::new(cfg).run(
            vec![vec![1u64; 64], vec![2; 64], vec![3; 64]],
            |ctx, v: Vec<u64>| {
                // Every compute is long enough that a loaded host's
                // scheduling jitter in the wall-measured pack times cannot
                // push a pack span past it (a shared 1-vCPU host can steal a
                // whole scheduling quantum mid-measurement), and later tasks
                // run progressively longer so arrivals are staggered by tens
                // of milliseconds — not just by the µs-scale pack/send
                // stagger — keeping the unpack-overlap assertion below
                // robust to the same jitter.
                let ms = 60 * v[0];
                ctx.sequential(|| std::thread::sleep(std::time::Duration::from_millis(ms)));
                v.iter().sum::<u64>()
            },
        );
        let span_for = |name: &str, task: u64| {
            out.trace
                .spans
                .iter()
                .find(|s| {
                    s.name == name
                        && s.args.iter().any(|(k, v)| {
                            *k == "task" && matches!(v, triolet_obs::ArgValue::U64(t) if *t == task)
                        })
                })
                .unwrap_or_else(|| panic!("missing {name} span for task {task}"))
        };
        // One pack and one unpack span per task.
        assert_eq!(out.trace.spans.iter().filter(|s| s.name == "root:pack").count(), 3);
        assert_eq!(out.trace.spans.iter().filter(|s| s.name == "root:unpack").count(), 3);
        // The tentpole overlap: while node 0 computes, the root is already
        // packing (and sending) task 1.
        let node0 = span_for("node:task", 0);
        let pack1 = span_for("root:pack", 1);
        assert!(
            pack1.t0 >= node0.t0 && pack1.t1 <= node0.t1,
            "root:pack for task 1 ({}..{}) must sit inside node 0's compute ({}..{})",
            pack1.t0,
            pack1.t1,
            node0.t0,
            node0.t1
        );
        // And the first result is unpacked before the last one arrives.
        let unpack0 = span_for("root:unpack", 0);
        let unpack2 = span_for("root:unpack", 2);
        assert!(unpack0.t1 <= unpack2.t0, "streamed unpacks must not wait for stragglers");
    }

    #[test]
    fn barrier_keeps_the_serial_epilogue() {
        let cfg = ClusterConfig::virtual_cluster(3, 1)
            .with_trace(true)
            .with_pipeline(PipelineMode::Barrier);
        let out = Cluster::new(cfg)
            .run(vec![vec![1u64; 64], vec![2; 64], vec![3; 64]], |ctx, v: Vec<u64>| {
                ctx.sequential(|| v.iter().sum::<u64>())
            });
        // One lump pack, one lump unpack; the unpack starts after the last
        // node:task ends.
        assert_eq!(out.trace.spans.iter().filter(|s| s.name == "root:pack").count(), 1);
        let unpacks: Vec<_> = out.trace.spans.iter().filter(|s| s.name == "root:unpack").collect();
        assert_eq!(unpacks.len(), 1);
        let last_node_end = out
            .trace
            .spans
            .iter()
            .filter(|s| s.name == "node:task")
            .map(|s| s.t1)
            .fold(0.0f64, f64::max);
        assert!(unpacks[0].t0 >= last_node_end);
    }

    #[test]
    fn measured_streamed_matches_barrier() {
        let payloads: Vec<Vec<u64>> = (0..3).map(|i| (0..=i as u64).collect()).collect();
        let task = |_ctx: &NodeCtx<'_>, v: Vec<u64>| v.iter().sum::<u64>();
        let s = Cluster::new(ClusterConfig::measured(3, 2).with_pipeline(PipelineMode::Streamed))
            .run(payloads.clone(), task);
        let b = Cluster::new(ClusterConfig::measured(3, 2).with_pipeline(PipelineMode::Barrier))
            .run(payloads, task);
        assert_eq!(s.results, b.results);
        assert_eq!(s.timing.bytes_out, b.timing.bytes_out);
        assert_eq!(s.timing.bytes_back, b.timing.bytes_back);
        assert_eq!(s.timing.messages, b.timing.messages);
    }

    #[test]
    fn redispatched_result_lands_in_original_slot_mid_stream() {
        // Rank 1 crashes, so its task is redispatched and returns out of
        // step with the stream — its result must still occupy slot 1.
        let plan = FaultPlan::seeded(9).with_crash(1).with_timeout(Duration::from_millis(1));
        for mode in [PipelineMode::Streamed, PipelineMode::Barrier] {
            let cfg = ClusterConfig::virtual_cluster(4, 2).with_faults(plan).with_pipeline(mode);
            let out = Cluster::new(cfg).run(vec![10u64, 20, 30, 40], |_ctx, x: u64| x * 2);
            assert_eq!(out.results, vec![20, 40, 60, 80], "slot order broken in {mode:?}");
            assert!(out.timing.redispatches >= 1);
        }
    }
}
