//! Simulated message-passing cluster: triolet-rs's distributed substrate.
//!
//! The Triolet paper (§3.4) runs on MPI across 8 nodes; this reproduction
//! replaces MPI with an in-process cluster that exercises the identical code
//! paths — data is genuinely packed to bytes before it crosses a node
//! boundary and unpacked after — while making the *communication cost* an
//! explicit, configurable [`CostModel`] instead of an artifact of whatever
//! network the host happens to have.
//!
//! Two execution modes ([`ExecMode`]):
//!
//! * `Measured` — node tasks run concurrently on real OS threads, each node
//!   owning a real work-stealing [`ThreadPool`](triolet_pool::ThreadPool).
//!   Timing is wall-clock. Correct but meaningless as a scaling measurement
//!   on a host with fewer cores than the simulated cluster.
//! * `Virtual` — node tasks run one at a time (sound: cluster nodes share
//!   nothing between collectives); every leaf task is timed and replayed
//!   through the greedy virtual-time scheduler of [`triolet_pool::vtime`];
//!   the distributed makespan combines per-node compute times with modeled
//!   transfer times over the *actually serialized* byte counts. This is how
//!   the paper's 128-core scaling figures are regenerated on a small host.
//!
//! Every dispatch models one message protocol. The root sends each task's
//! payload to its rank and the rank sends the result back; a non-empty
//! closure environment is broadcast first, over a binomial [`tree`] or a
//! linear loop ([`Topology`]). With an active [`FaultPlan`] each message is
//! acknowledged: the sender retransmits lost, corrupted, or unacknowledged
//! attempts until the retry budget is spent, and a task whose rank stays
//! silent is re-dispatched to the next surviving rank. The [`fault`] module
//! makes that schedule a pure function of a seed, so the dispatcher plans
//! every attempt before any task runs and results stay bit-identical with
//! faults on.

pub mod cluster;
pub mod cost;
pub mod fault;
pub mod node;
pub mod sim;
pub mod tree;

pub use cluster::{
    Cluster, ClusterConfig, DispatchError, DistOutcome, PipelineMode, RawTask, ResidentSpec,
    Topology,
};
pub use cost::{CostModel, DistTiming, TrafficSnapshot, TrafficStats};
pub use fault::{FaultDecision, FaultPlan};
pub use node::{ExecMode, NodeCtx, ResidentStore};
pub use sim::SimCore;
pub use triolet_obs::{TraceData, TraceHandle, Track};
