//! The unified skeleton-input abstraction: [`IntoDistInput`] for data and
//! [`AsEnv`] for broadcast environments.
//!
//! Every skeleton entry point takes one `input` (anything convertible to a
//! [`DistInput`]: a [`DistIter`] runs through the slice-and-ship path, a
//! resident [`DistVec`](super::DistVec) view runs in place on its home
//! ranks) and one `env` (anything implementing [`AsEnv`]: a plain `&E`
//! packed once inside the call, or a [`PackedEnv`] packed once across many
//! calls). The `*_packed` / `_env` method families this replaces are gone —
//! the type of the argument, not the name of the method, selects the path.

use std::sync::Arc;

use triolet_cluster::TrafficStats;
use triolet_domain::{Domain, SeqPart};
use triolet_serial::{PackedPayload, Wire};

use super::DistIter;

/// A broadcast environment serialized exactly once.
///
/// Skeletons with a `&E` environment pack it once per call; a `PackedEnv`
/// lifts that caching across *calls*: multi-phase apps (tpacf's DD/RR/DR
/// correlations share the observed dataset) pack the shared data once via
/// [`Triolet::pack_env`](crate::Triolet::pack_env) and hand the same
/// `PackedEnv` to each skeleton. Every per-node copy and retransmission
/// reuses the one buffer — the paper's "serialize the closure's captured
/// environment once" (§3.4) made explicit. The original value stays
/// available for root-local execution paths, which never touch the bytes.
pub struct PackedEnv<E> {
    value: E,
    payload: PackedPayload,
}

impl<E: Wire> PackedEnv<E> {
    pub(crate) fn new(value: E, payload: PackedPayload) -> Self {
        PackedEnv { value, payload }
    }

    /// The environment value (used by sequential/local execution).
    pub fn value(&self) -> &E {
        &self.value
    }

    /// Bytes one copy of the environment occupies on the wire.
    pub fn wire_bytes(&self) -> usize {
        self.payload.len()
    }
}

/// How a skeleton call received its environment: a plain reference (packed
/// once inside the call) or an already-packed [`PackedEnv`] (packed once
/// across many calls). Root-local paths read the value; the distributed
/// path ships the payload. Produced by [`AsEnv::env_arg`]; not constructed
/// directly.
pub enum EnvArg<'a, E> {
    /// A borrowed environment value, serialized inside the skeleton call.
    Plain(&'a E),
    /// A pre-packed environment whose bytes are reused across calls.
    Packed(&'a PackedEnv<E>),
}

impl<'a, E: Wire> EnvArg<'a, E> {
    pub(crate) fn value(&self) -> &'a E {
        match self {
            EnvArg::Plain(e) => e,
            EnvArg::Packed(p) => &p.value,
        }
    }

    /// The serialized environment, packing now (and counting it) only for
    /// plain references. The zero-byte unit environment is never counted:
    /// nothing ships.
    pub(crate) fn payload(&self, stats: &TrafficStats) -> PackedPayload {
        match self {
            EnvArg::Plain(e) => {
                let p = PackedPayload::pack(*e);
                if !p.is_empty() {
                    stats.record_env_pack();
                }
                p
            }
            EnvArg::Packed(pe) => pe.payload.clone(),
        }
    }
}

/// A broadcast environment argument: `&E` (packed per call) or
/// `&PackedEnv<E>` (packed once across calls). Every skeleton with an
/// environment takes `impl AsEnv`, so one signature covers both — callers
/// that previously reached for a `*_packed` variant now just pass the
/// packed handle to the same method.
pub trait AsEnv {
    /// The environment value type every task reads.
    type Env: Wire + Send + Sync;

    /// View this argument as the engine's internal environment handle.
    fn env_arg(&self) -> EnvArg<'_, Self::Env>;
}

impl<E: Wire + Send + Sync> AsEnv for &E {
    type Env = E;

    fn env_arg(&self) -> EnvArg<'_, E> {
        EnvArg::Plain(self)
    }
}

impl<E: Wire + Send + Sync> AsEnv for &PackedEnv<E> {
    type Env = E;

    fn env_arg(&self) -> EnvArg<'_, E> {
        EnvArg::Packed(self)
    }
}

/// One resident task: a part of the input's index space whose backing
/// segment lives on `home`.
///
/// `fold` enumerates the items at the input-space indices of a chunk of
/// `part` — the engine splits `part` into the same chunks as the
/// re-broadcast path, so a resident execution folds and merges in an
/// identical order and the result is bit-identical.
pub struct ResidentPart<T, P = SeqPart> {
    /// Rank holding this part's segment.
    pub home: usize,
    /// The input-space range this part covers.
    pub part: P,
    /// Bytes re-shipped if a crash forces this task off its home rank.
    pub seg_bytes: usize,
    /// Ghost/halo bytes a view needs from neighboring segments each call.
    pub halo_bytes: usize,
    /// Enumerate the items of one chunk of `part`.
    #[allow(clippy::type_complexity)]
    pub fold: Arc<dyn Fn(&P, &mut dyn FnMut(T)) + Send + Sync>,
}

impl<T, P: Clone> Clone for ResidentPart<T, P> {
    fn clone(&self) -> Self {
        ResidentPart {
            home: self.home,
            part: self.part.clone(),
            seg_bytes: self.seg_bytes,
            halo_bytes: self.halo_bytes,
            fold: Arc::clone(&self.fold),
        }
    }
}

/// A resident execution plan: one [`ResidentPart`] per home rank, covering
/// the view's index space in order. Produced by resident collection views;
/// consumed by the engine's resident dispatch arm.
pub struct ResidentRun<T, P = SeqPart> {
    /// The backing collection's store id (for hit/miss accounting).
    pub id: u64,
    /// Total items in the view's index space.
    pub len: usize,
    /// Parts in index order; `parts[i].part` ranges tile `0..len`.
    pub parts: Vec<ResidentPart<T, P>>,
}

/// A skeleton input, resolved: either an iterator to slice and ship, or a
/// resident plan to run in place.
pub enum DistInput<It: DistIter> {
    /// Root-held data: slice per part and ship each node its share.
    Iter(It),
    /// Resident data: dispatch zero-byte descriptors to the home ranks.
    Resident(ResidentRun<It::Item, <It::OuterDom as Domain>::Part>),
}

/// Anything a skeleton can consume as its data input: every [`DistIter`]
/// (local iterators, sliced and shipped per call) and every resident
/// collection view (`&DistVec`, [`SliceView`](super::SliceView), …, which
/// run on the ranks already holding their segments).
pub trait IntoDistInput {
    /// The element type the skeleton's closures receive.
    type Item;
    /// The iterator type of the shipped path. Resident inputs never
    /// construct one; the type only carries `Item` and the outer domain
    /// shape to the engine's bounds.
    type Iter: DistIter<Item = Self::Item>;

    /// Resolve to the concrete input the engine dispatches on.
    fn into_dist_input(self) -> DistInput<Self::Iter>;
}

impl<It: DistIter> IntoDistInput for It {
    type Item = It::Item;
    type Iter = It;

    fn into_dist_input(self) -> DistInput<It> {
        DistInput::Iter(self)
    }
}
