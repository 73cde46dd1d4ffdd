//! # harmony-simulator
//!
//! A deterministic discrete-event simulator of a multi-GPU server, the
//! substrate on which Harmony's schedules are evaluated (substituting for
//! the paper's physical 4×1080Ti testbed — see DESIGN.md §2).
//!
//! The engine models two resource classes:
//!
//! * **Compute streams** — one FIFO stream per GPU: a submitted kernel
//!   occupies its GPU exclusively for its duration (the CUDA stream model
//!   per device that frameworks use).
//! * **Bandwidth channels** — directed links from `harmony-topology`.
//!   Concurrent transfers sharing a channel receive a fair share of its
//!   capacity; a transfer's instantaneous rate is its *bottleneck share*
//!   `min_c (bw_c / active_c)` over the channels on its route (flow-level
//!   network simulation). This is what exposes the paper's
//!   oversubscribed-host-link collapse: four swapping GPUs each get a
//!   quarter of the uplink.
//!
//! ## Near-O(affected) event processing: route-class flights
//!
//! Two transfers with the same route always see the same bottleneck
//! share, so their rates are equal at every instant. The engine therefore
//! aggregates in-flight transfers into **flights** (route classes):
//!
//! * A per-channel **active count** is the fair-share denominator, and
//!   each channel caches its **share** `bw_c / max(active_c, 1)`, so a
//!   flight's rate is a min over cached shares. Each flight records, when
//!   it is created, its **conflict set**: a bitset of the flights that
//!   share a channel with it (itself included). An event on flight `k`
//!   re-derives exactly `conflicts[k] ∩ occupied`, where *occupied* is a
//!   bitset of the flights holding queued transfers — no walk over the
//!   in-flight population, nor over idle or disjoint flights.
//! * Byte progress is **lazy and per flight**: a flight stores
//!   `(drained, rate, touch)` — cumulative bytes drained per member as of
//!   its last materialization — and is materialized only when its rate
//!   *value* changes. A member transfer stores a single immutable
//!   **departure threshold** `depart = bytes + drained(start)`: it
//!   completes exactly when the flight's drain reaches `depart`.
//! * Because departures never change after submission, each flight keeps
//!   its members in a plain min-heap ordered by `(depart, id)` with no
//!   invalidation: rate changes move predicted *times*, not departure
//!   *order*. Picking the next completion is a heap peek; the next
//!   network completion is the minimum of the flights' cached predictions.
//!
//! ## The network candidate: no network entries in the event heap
//!
//! The event heap holds only compute completions and timers. The next
//! network completion lives in one cached **candidate**: its due time,
//! the `(wave, lane)` it orders under, and which flight head or pending
//! immediate it delivers. Every network state change (a transfer start,
//! completion or cancel, an immediate insert, a bandwidth change) only
//! marks the candidate stale; [`Simulator::next`] refreshes a stale
//! candidate in one pass over the occupied flights, then delivers
//! whichever of the heap top and the candidate comes first in the
//! canonical order. Network deliveries rank after timers and computes at
//! the same `(time, wave, lane)`, so the comparison never ties.
//!
//! Per-event cost is O(affected flights + occupied flights + log
//! members + channels), versus the previous engine's three full passes
//! over every in-flight transfer (progress advance, rate recompute,
//! completion min-scan).
//!
//! A dense-reference mode ([`Simulator::new_dense_reference`]) ignores
//! the conflict and occupied sets: it re-derives **every** occupied flight's rate on every network
//! event and scans every flight for the next completion — the
//! full-rescan structure of the previous engine. Both modes share
//! the same per-flight arithmetic, and a flight whose re-derived rate is
//! bitwise unchanged is left untouched, so the rescan degenerates to a
//! no-op for unaffected flights and the two engines produce
//! **bit-identical traces**; the harness checks this differentially.
//!
//! The driver (a scheduler runtime) submits compute and transfers with
//! opaque `tag`s and repeatedly calls [`Simulator::next`] to advance
//! virtual time and receive completions — the structure of Harmony's
//! *online* task-and-swap scheduler.
//!
//! Determinism: same-instant events order canonically by
//! `(wave, lane, event-kind rank, submission seq)` — the wave counts
//! intra-instant causal phases (events spawned while the instant's own
//! handlers run join a later wave) and the lane is the driver's logical
//! lane (GPU index), so the cross-lane order at an instant is a
//! function of each lane's own causal history, never of global
//! submission interleaving. Simultaneous transfer completions resolve
//! lowest-`(wave, lane, id)`-first. No wall clock or randomness enters
//! the engine. Every committed golden (conformance verdicts, pinned
//! matrix, Gantt, benchmark trace digests) pins the bytes this order
//! produces, so the wave key stays part of it (DESIGN §8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stats;

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};

use harmony_topology::{ChannelId, Topology};

pub use stats::{NetCounters, SimStats};

/// Virtual time in seconds.
pub type SimTime = f64;

/// Identifier of an in-flight transfer.
pub type TransferId = u64;

/// A completion delivered to the driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Completion {
    /// A compute kernel finished on `gpu`.
    Compute {
        /// GPU index.
        gpu: usize,
        /// Driver-supplied tag.
        tag: u64,
    },
    /// A transfer finished.
    Transfer {
        /// Transfer id returned by [`Simulator::start_transfer`].
        id: TransferId,
        /// Driver-supplied tag.
        tag: u64,
    },
    /// A timer fired.
    Timer {
        /// Driver-supplied tag.
        tag: u64,
    },
}

/// Simulator errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Referenced GPU does not exist.
    UnknownGpu(usize),
    /// Referenced channel does not exist.
    UnknownChannel(ChannelId),
    /// Negative or non-finite duration/byte count.
    InvalidParameter(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownGpu(g) => write!(f, "unknown gpu {g}"),
            SimError::UnknownChannel(c) => write!(f, "unknown channel {c}"),
            SimError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    ComputeDone { gpu: usize, tag: u64 },
    Timer { tag: u64 },
}

/// Canonical within-(time, wave, lane) rank of a network delivery, which
/// never enters the heap (see [`EventKind::rank`]).
const NETWORK_RANK: u8 = 2;

impl EventKind {
    /// Canonical within-(time, lane) rank: timers fire first (fault
    /// injection precedes the work it perturbs, matching the old
    /// seq-order behaviour where fault timers carry the lowest seqs),
    /// then compute completions, then network deliveries
    /// ([`NETWORK_RANK`]; a kernel's completion is typically submitted
    /// before the transfer that races it, so this also matches the
    /// common old order).
    fn rank(self) -> u8 {
        match self {
            EventKind::Timer { .. } => 0,
            EventKind::ComputeDone { .. } => 1,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: SimTime,
    /// Intra-instant causality wave (see [`Event::cmp`]): 0 for events
    /// scheduled from an earlier instant, `w + 1` for events spawned at
    /// the current instant while a wave-`w` event was being processed.
    /// Waves make the same-instant order *spawn-phased*: everything
    /// already due when the instant opens fires (lane-major) before
    /// anything the instant's own handlers create.
    wave: u32,
    /// Canonical ordering lane (see [`Event::cmp`]): the submitting
    /// driver's logical lane (GPU index for compute and lane-attributed
    /// transfers/timers; [`CONTROL_LANE`] for cross-lane control).
    lane: u32,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: earlier time first; same-instant events order by
        // (wave, lane, kind rank, seq). The wave/lane keys make the
        // same-instant order *canonical* — spawn-phase-major, then a
        // function of each lane's own history, never of global
        // submission interleaving. `total_cmp` keeps the heap a total
        // order even for adversarial times; non-finite times are
        // rejected at every submission site so none can enter.
        other
            .time
            .total_cmp(&self.time)
            .then(other.wave.cmp(&self.wave))
            .then(other.lane.cmp(&self.lane))
            .then(other.kind.rank().cmp(&self.kind.rank()))
            .then(other.seq.cmp(&self.seq))
    }
}

/// Heap lane for events that belong to no single lane (used for
/// cross-lane control timers): sorts after every real lane at the same
/// instant.
pub const CONTROL_LANE: u32 = u32::MAX;

/// A flight member awaiting departure: `(departure threshold bits, id,
/// tag, lane)`. The threshold is a non-negative finite f64 whose raw
/// bit pattern preserves numeric order, so the derived lexicographic
/// `Ord` is exactly "earliest departure first, lowest id first" — ids
/// are unique, so `tag` and `lane` never decide. The lane rides along
/// for the cross-flight delivery order (see
/// [`Simulator::refresh_candidate`]).
type Member = (u64, TransferId, u64, u32);

/// A route class: every in-flight transfer with this exact channel route.
/// All members share one fair-share rate at every instant, so byte
/// progress is accounted once per flight, not once per transfer.
#[derive(Debug)]
struct Flight {
    route: Vec<ChannelId>,
    /// Bytes drained per member as of `touch` (reset whenever the flight
    /// restarts from empty, bounding floating-point cancellation).
    drained: f64,
    /// Common bottleneck fair-share rate (bytes/sec) since `touch`.
    rate: f64,
    /// Virtual time of the last materialization.
    touch: SimTime,
    /// Cached predicted time of the earliest member departure (`+inf`
    /// when empty). Refreshed whenever the rate or the head changes.
    pred: SimTime,
    /// Wave at which a *due* prediction fires: 0 when `pred` lies in the
    /// future (it opens its own instant), the spawning wave + 1 when a
    /// refresh pinned `pred` to the current instant (the head became due
    /// mid-instant and must not outrun completions already due).
    pred_wave: u32,
    /// Members ordered by `(depart, id)`; departures are immutable, so
    /// entries are never invalidated or reordered.
    queue: BinaryHeap<Reverse<Member>>,
}

impl Flight {
    /// Credits byte progress under the current rate up to `now`.
    fn materialize(&mut self, now: SimTime) {
        let dt = now - self.touch;
        if dt > 0.0 {
            self.drained += self.rate * dt;
        }
        self.touch = now;
    }

    /// Refreshes the cached prediction. Must be called at `touch == now`
    /// (immediately after a materialization or an insert/removal).
    /// `due_wave` is the wave a due-right-now prediction belongs to
    /// (the caller's spawn wave); future predictions reset to wave 0.
    fn refresh_pred(&mut self, now: SimTime, due_wave: u32) {
        self.pred = match self.queue.peek() {
            None => f64::INFINITY,
            Some(&Reverse((bits, _, _, _))) => {
                let rem = f64::from_bits(bits) - self.drained;
                // A transfer carries whole bytes, so a sub-byte remainder
                // is floating-point residue of an already-finished
                // transfer: pin its departure to `now` so it completes
                // immediately and releases its bandwidth share.
                if rem <= RESIDUE_BYTES {
                    now
                } else if self.rate > 0.0 && self.rate.is_finite() {
                    now + rem / self.rate
                } else {
                    f64::INFINITY
                }
            }
        };
        self.pred_wave = if self.pred <= now { due_wave } else { 0 };
    }
}

// Sub-byte drain remainders are fp residue, not real payload.
const RESIDUE_BYTES: f64 = 0.5;

/// Bottleneck fair share over `route`: the min of its channels' cached
/// shares `bw_c / max(active_c, 1)`.
fn derive_rate(share: &[f64], route: &[ChannelId]) -> f64 {
    let mut rate = f64::INFINITY;
    for &c in route {
        rate = rate.min(share[c]);
    }
    rate
}

/// Sets bit `i` of a growable bitset.
fn set_bit(bits: &mut Vec<u64>, i: usize) {
    let w = i / 64;
    if bits.len() <= w {
        bits.resize(w + 1, 0);
    }
    bits[w] |= 1 << (i % 64);
}

/// The indices of the set bits of `bits`, ascending.
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + b
            })
        })
    })
}

#[derive(Debug, Default)]
struct GpuStream {
    busy: bool,
    queue: VecDeque<(f64, u64)>, // (duration, tag)
}

/// What a network delivery hands out: either a pending immediate (by its
/// map key) or the head of a due flight (by index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Candidate {
    Immediate((u32, u32, TransferId)),
    Flight(usize),
}

/// The cached next network completion: the due completion with the
/// lowest `(at, wave, lane, id)`, where `at` is its predicted time
/// clamped to now. `(at, wave, lane)` is where it orders against the
/// event heap; `pick` is what it delivers. No state it reads changes
/// between a refresh and the delivery without marking it stale.
#[derive(Debug, Clone, Copy)]
struct NetCandidate {
    at: SimTime,
    wave: u32,
    lane: u32,
    pick: Candidate,
}

impl NetCandidate {
    /// Whether this delivery comes before heap event `ev` in the
    /// canonical `(time, wave, lane, kind rank)` order. The ranks differ,
    /// so `seq` never decides.
    fn precedes(&self, ev: &Event) -> bool {
        self.at
            .total_cmp(&ev.time)
            .then(self.wave.cmp(&ev.wave))
            .then(self.lane.cmp(&ev.lane))
            .then(NETWORK_RANK.cmp(&ev.kind.rank()))
            == Ordering::Less
    }
}

/// The discrete-event engine. See module docs.
#[derive(Debug)]
pub struct Simulator {
    /// Dense-reference mode: every network event re-derives every
    /// occupied flight and scans every flight (full rescan, the previous
    /// engine's structure) instead of consulting the conflict and
    /// occupied sets. Same arithmetic, same traces — the differential
    /// oracle.
    dense: bool,
    now: SimTime,
    seq: u64,
    /// Compute completions and timers; network completions come from
    /// `candidate` instead.
    events: BinaryHeap<Event>,
    streams: Vec<GpuStream>,
    channel_bw: Vec<f64>,
    /// Per-channel count of in-flight routed transfers: the fair-share
    /// denominator, maintained incrementally.
    active: Vec<u32>,
    /// Per-channel fair share `channel_bw[c] / max(active[c], 1)`,
    /// updated wherever either input changes.
    share: Vec<f64>,
    /// Route → flight index.
    class_of: HashMap<Vec<ChannelId>, usize>,
    flights: Vec<Flight>,
    /// Per flight, a bitset over flight indices: the flights sharing a
    /// channel with it, itself included. Flights are never deleted, so a
    /// set only grows (as later conflicting flights are created).
    conflicts: Vec<Vec<u64>>,
    /// Bitset of the occupied flights (non-empty queue): a flight joins
    /// when a transfer enters its empty queue and leaves when its last
    /// member completes or is cancelled. One word per 64 flights.
    occupied: Vec<u64>,
    /// Number of in-flight transfers with a non-empty route.
    routed: usize,
    /// Tags of pending zero-byte/empty-route transfers, keyed by
    /// `(wave, lane, id)` — the wave is the spawn wave at insertion.
    /// They are delivered through the network candidate: at any
    /// instant, all due completions — immediate or routed — are handed
    /// out in ascending `(wave, lane, id)`. That total order depends
    /// only on spawn phase and each lane's own issue order, never on
    /// event-heap sequence numbers or cross-lane interleaving.
    immediates: BTreeMap<(u32, u32, TransferId), u64>,
    next_transfer_id: TransferId,
    /// The next network completion, valid while `candidate_stale` is
    /// false; `None` when nothing routed or immediate can complete.
    candidate: Option<NetCandidate>,
    /// Set by every network state change; cleared by
    /// [`Self::refresh_candidate`].
    candidate_stale: bool,
    /// Wave of the event currently being processed (the last delivery);
    /// pushes at the same instant join wave `cur_wave + 1`.
    cur_wave: u32,
    /// Whether anything has been delivered yet: pre-run submissions at
    /// `t == 0` are wave 0, not spawns of a phantom instant.
    popped: bool,
    /// Per-channel busy-accrual watermark: the last time each channel's
    /// own activity (start/finish/cancel/bandwidth change) was accounted.
    last_busy_update: Vec<SimTime>,
    stats: SimStats,
    counters: NetCounters,
}

impl Simulator {
    /// Creates a simulator over a topology's GPUs and channels.
    pub fn new(topology: &Topology) -> Self {
        Self::with_mode(topology, false)
    }

    /// Creates a simulator in dense-reference mode: the previous
    /// engine's full-rescan structure (every network event re-derives
    /// every occupied flight) with identical per-flight arithmetic, used
    /// as the differential oracle against the indexed fast path.
    pub fn new_dense_reference(topology: &Topology) -> Self {
        Self::with_mode(topology, true)
    }

    fn with_mode(topology: &Topology, dense: bool) -> Self {
        let channel_bw: Vec<f64> = topology.channels().iter().map(|c| c.bandwidth).collect();
        Simulator {
            dense,
            now: 0.0,
            seq: 0,
            events: BinaryHeap::new(),
            streams: (0..topology.num_gpus())
                .map(|_| GpuStream::default())
                .collect(),
            active: vec![0; channel_bw.len()],
            share: channel_bw.clone(),
            channel_bw,
            class_of: HashMap::new(),
            flights: Vec::new(),
            conflicts: Vec::new(),
            occupied: Vec::new(),
            routed: 0,
            immediates: BTreeMap::new(),
            next_transfer_id: 0,
            candidate: None,
            candidate_stale: false,
            cur_wave: 0,
            popped: false,
            last_busy_update: vec![0.0; topology.channels().len()],
            stats: SimStats::new(topology.num_gpus(), topology.channels().len()),
            counters: NetCounters::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of bandwidth channels.
    pub fn num_channels(&self) -> usize {
        self.channel_bw.len()
    }

    /// Changes a channel's bandwidth at the current virtual time (fault
    /// injection: link degradation or recovery). In-flight transfers keep
    /// the bytes they have already moved; rates and completion
    /// predictions are recomputed for the flights routed over this
    /// channel only.
    pub fn set_channel_bandwidth(
        &mut self,
        channel: ChannelId,
        bandwidth: f64,
    ) -> Result<(), SimError> {
        if channel >= self.channel_bw.len() {
            return Err(SimError::UnknownChannel(channel));
        }
        if !(bandwidth.is_finite() && bandwidth > 0.0) {
            return Err(SimError::InvalidParameter(format!("bandwidth {bandwidth}")));
        }
        self.accrue_busy_time(channel);
        self.channel_bw[channel] = bandwidth;
        self.update_share(channel);
        // A channel has no conflict set of its own: scan the occupied
        // flights for the ones crossing it (every occupied flight in
        // dense mode).
        let due_wave = self.spawn_wave(self.now);
        for k in 0..self.flights.len() {
            let crosses = self.dense || self.flights[k].route.contains(&channel);
            if crosses && !self.flights[k].queue.is_empty() {
                self.recompute_flight(k, due_wave);
            }
        }
        self.candidate_stale = true;
        Ok(())
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Diagnostic counters of the network core (per-flight rate
    /// derivations, queue and event-heap traffic, candidate refreshes).
    /// These expose the O(affected) contract: an event on one route must
    /// not touch flights on disjoint routes, however many transfers they
    /// carry.
    pub fn net_counters(&self) -> &NetCounters {
        &self.counters
    }

    /// Wave that an event spawned at `time` belongs to: `cur_wave + 1`
    /// when spawned at the instant being processed, 0 when it opens an
    /// instant of its own.
    fn spawn_wave(&self, time: SimTime) -> u32 {
        if self.popped && time == self.now {
            self.cur_wave + 1
        } else {
            0
        }
    }

    fn push(&mut self, time: SimTime, lane: u32, kind: EventKind) {
        debug_assert!(time.is_finite(), "non-finite event time");
        let wave = self.spawn_wave(time);
        let seq = self.seq;
        self.seq += 1;
        self.counters.heap_pushes += 1;
        self.events.push(Event {
            time,
            wave,
            lane,
            seq,
            kind,
        });
    }

    /// Submits a compute kernel of `secs` duration to `gpu`'s FIFO stream.
    pub fn submit_compute(&mut self, gpu: usize, secs: f64, tag: u64) -> Result<(), SimError> {
        if !(secs.is_finite() && secs >= 0.0) {
            return Err(SimError::InvalidParameter(format!("duration {secs}")));
        }
        let stream = self.streams.get_mut(gpu).ok_or(SimError::UnknownGpu(gpu))?;
        if stream.busy {
            stream.queue.push_back((secs, tag));
        } else {
            stream.busy = true;
            self.stats.gpu_busy_secs[gpu] += secs;
            let t = self.now + secs;
            self.push(t, gpu as u32, EventKind::ComputeDone { gpu, tag });
        }
        Ok(())
    }

    // Reserved ceiling for user timer tags (immediate transfers formerly
    // rode timer events above this bias; they now deliver through the
    // network candidate so same-instant completions stay id-ordered).
    const IMMEDIATE_BIAS: u64 = 1 << 62;

    /// Starts a transfer of `bytes` along `route` (ordered channels),
    /// attributed to ordering lane `lane` (the driver's logical lane —
    /// same-instant completions deliver in ascending `(wave, lane, id)`).
    /// Returns its id; completion carries `tag`. A zero-byte transfer or an
    /// empty route (same-device move) completes at the current time.
    pub fn start_transfer(
        &mut self,
        route: &[ChannelId],
        bytes: u64,
        tag: u64,
        lane: u32,
    ) -> Result<TransferId, SimError> {
        for &c in route {
            if c >= self.channel_bw.len() {
                return Err(SimError::UnknownChannel(c));
            }
        }
        if bytes == 0 || route.is_empty() {
            let id = self.next_transfer_id;
            self.next_transfer_id += 1;
            // It completes "now", but in ascending-(wave, lane, id) order
            // with every other due completion.
            let wave = self.spawn_wave(self.now);
            self.immediates.insert((wave, lane, id), tag);
            self.candidate_stale = true;
            return Ok(id);
        }
        let k = self.flight_for(route);
        Ok(self.start_routed(k, bytes, tag, lane))
    }

    /// Pre-registers (or looks up) the flight class for `route`, so
    /// repeat senders can skip per-transfer route validation and the
    /// route-key hash via [`Simulator::start_transfer_on_class`]. The
    /// class is created exactly as the first non-empty
    /// [`Simulator::start_transfer`] over `route` would create it, so
    /// interleaving the two entry points never perturbs flight order.
    /// Empty routes have no flight (they complete immediately) and are
    /// rejected.
    pub fn register_route_class(&mut self, route: &[ChannelId]) -> Result<usize, SimError> {
        for &c in route {
            if c >= self.channel_bw.len() {
                return Err(SimError::UnknownChannel(c));
            }
        }
        if route.is_empty() {
            return Err(SimError::InvalidParameter(
                "empty route has no flight class".to_string(),
            ));
        }
        Ok(self.flight_for(route))
    }

    /// Starts a transfer of `bytes > 0` on a class previously returned by
    /// [`Simulator::register_route_class`]. Behaviour (ids, event order,
    /// accounting) is bit-identical to [`Simulator::start_transfer`] over
    /// the class's route; only the per-call route validation and hash
    /// lookup are skipped.
    pub fn start_transfer_on_class(
        &mut self,
        class: usize,
        bytes: u64,
        tag: u64,
        lane: u32,
    ) -> Result<TransferId, SimError> {
        if class >= self.flights.len() {
            return Err(SimError::InvalidParameter(format!(
                "unknown route class {class}"
            )));
        }
        if bytes == 0 {
            return Err(SimError::InvalidParameter(
                "zero-byte transfers take the immediate path of start_transfer".to_string(),
            ));
        }
        Ok(self.start_routed(class, bytes, tag, lane))
    }

    /// Starts a transfer of `bytes > 0` on flight `k`: takes a share of
    /// every channel on the route, re-derives the flights that share one
    /// with it, and queues the transfer.
    fn start_routed(&mut self, k: usize, bytes: u64, tag: u64, lane: u32) -> TransferId {
        let id = self.next_transfer_id;
        self.next_transfer_id += 1;
        for i in 0..self.flights[k].route.len() {
            let c = self.flights[k].route[i];
            self.accrue_busy_time(c);
            self.stats.channel_bytes[c] += bytes;
            self.active[c] += 1;
            self.update_share(c);
        }
        self.routed += 1;
        // Every occupied flight crossing one of these channels saw its
        // denominator grow, strictly lowering its share — including `k`
        // itself, whose materialization leaves it fresh for the insert.
        self.recompute_conflicts(k);
        let f = &mut self.flights[k];
        if f.queue.is_empty() {
            // Fresh drain epoch: nothing shares this route right now, so
            // the cumulative drain restarts at zero (bounds cancellation).
            f.drained = 0.0;
            f.touch = self.now;
            f.rate = derive_rate(&self.share, &f.route);
            self.counters.rate_recomputes += 1;
            set_bit(&mut self.occupied, k);
        }
        let f = &mut self.flights[k];
        debug_assert_eq!(f.touch, self.now, "flight must be fresh at insert");
        let depart = bytes as f64 + f.drained;
        debug_assert!(depart >= 0.0 && depart.is_finite());
        self.counters.queue_pushes += 1;
        f.queue.push(Reverse((depart.to_bits(), id, tag, lane)));
        let due_wave = self.spawn_wave(self.now);
        self.flights[k].refresh_pred(self.now, due_wave);
        self.candidate_stale = true;
        id
    }

    /// Releases one transfer's share of every channel on flight `k`'s
    /// route and re-derives the flights that share one with it.
    fn release_routed(&mut self, k: usize) {
        for i in 0..self.flights[k].route.len() {
            let c = self.flights[k].route[i];
            self.accrue_busy_time(c);
            self.active[c] -= 1;
            self.update_share(c);
        }
        self.routed -= 1;
        self.recompute_conflicts(k);
        self.candidate_stale = true;
    }

    /// Schedules a timer at absolute time `at` (clamped to now) on
    /// ordering lane `lane` ([`CONTROL_LANE`] sorts after every real
    /// lane at the same instant). `tag` must be below `2^62`.
    pub fn set_timer(&mut self, at: SimTime, tag: u64, lane: u32) -> Result<(), SimError> {
        if !at.is_finite() {
            return Err(SimError::InvalidParameter(format!("time {at}")));
        }
        if tag >= Self::IMMEDIATE_BIAS {
            return Err(SimError::InvalidParameter(format!(
                "timer tag {tag} too large"
            )));
        }
        let t = at.max(self.now);
        self.push(t, lane, EventKind::Timer { tag });
        Ok(())
    }

    /// Cancels an in-flight transfer at the current virtual time (the
    /// resilience layer's reroute path: a fault degraded a link and the
    /// driver re-issues the payload over another route). Returns
    /// `Ok(true)` when the transfer was found and removed, `Ok(false)`
    /// when it already completed (or never existed) — by the time a
    /// fault lands, its victim may legitimately have drained.
    ///
    /// The cancelled transfer's bytes stay in [`SimStats::channel_bytes`]:
    /// traffic is accounted at issue time (the bandwidth-conservation
    /// oracle tallies the same way), and the aborted attempt did occupy
    /// the links. Its bandwidth share is released immediately: sibling
    /// flights re-derive their rates exactly as on a completion.
    ///
    /// Cost is O(in-flight members) for the scan plus a heap rebuild of
    /// the victim's flight — a deliberate trade: cancellation happens
    /// only on the rare fault path, so the hot path carries no tombstone
    /// state for it.
    pub fn cancel_transfer(&mut self, id: TransferId) -> Result<bool, SimError> {
        if let Some(&key) = self.immediates.keys().find(|&&(_, _, i)| i == id) {
            self.immediates.remove(&key);
            self.candidate_stale = true;
            return Ok(true);
        }
        let Some(k) = ones(&self.occupied).find(|&k| {
            self.flights[k]
                .queue
                .iter()
                .any(|&Reverse((_, m, _, _))| m == id)
        }) else {
            return Ok(false);
        };
        // Credit drain up to now under the old rate, then rebuild the
        // member heap without the victim. Departure thresholds are
        // immutable, so the survivors' order is untouched.
        self.flights[k].materialize(self.now);
        let members = std::mem::take(&mut self.flights[k].queue);
        self.flights[k].queue = members
            .into_iter()
            .filter(|&Reverse((_, m, _, _))| m != id)
            .collect();
        if self.flights[k].queue.is_empty() {
            self.vacate(k);
        }
        self.release_routed(k);
        // The victim may have been the flight's head while the rate (and
        // hence `recompute_flight`'s no-op check) is unchanged — e.g. the
        // flight's other channels still bottleneck it — so the cached
        // prediction must be refreshed unconditionally.
        let due_wave = self.spawn_wave(self.now);
        self.flights[k].refresh_pred(self.now, due_wave);
        Ok(true)
    }

    /// True if no work remains: no heap event and no routed or immediate
    /// transfer.
    pub fn idle(&self) -> bool {
        self.events.is_empty() && self.routed == 0 && self.immediates.is_empty()
    }

    /// Flight index for `route`, created on first use with its conflict
    /// set. Flights persist — there are at most O(endpoint pairs)
    /// distinct routes — and an empty flight costs one skip per rescan in
    /// dense mode, nothing in fast mode.
    fn flight_for(&mut self, route: &[ChannelId]) -> usize {
        if let Some(&k) = self.class_of.get(route) {
            return k;
        }
        let k = self.flights.len();
        let mut mine = Vec::new();
        for j in 0..k {
            if self.flights[j].route.iter().any(|c| route.contains(c)) {
                set_bit(&mut mine, j);
                set_bit(&mut self.conflicts[j], k);
            }
        }
        set_bit(&mut mine, k);
        self.conflicts.push(mine);
        if self.occupied.len() <= k / 64 {
            self.occupied.push(0);
        }
        self.class_of.insert(route.to_vec(), k);
        self.flights.push(Flight {
            route: route.to_vec(),
            drained: 0.0,
            rate: 0.0,
            touch: self.now,
            pred: f64::INFINITY,
            pred_wave: 0,
            queue: BinaryHeap::new(),
        });
        self.counters.route_classes = self.flights.len() as u64;
        k
    }

    /// Advances busy-time accounting for `channel` to `now`. A channel
    /// is busy while any transfer uses it — exactly when its active count
    /// is nonzero. Accrual happens only at a channel's *own* transitions
    /// (a transfer starting, finishing or cancelling on it, or a
    /// bandwidth change), so each channel's floating-point accumulation
    /// order is a function of its own event times alone — activity on
    /// disjoint channels cannot re-partition the sum.
    fn accrue_busy_time(&mut self, c: ChannelId) {
        let dt = self.now - self.last_busy_update[c];
        if dt > 0.0 && self.active[c] > 0 {
            self.stats.channel_busy_secs[c] += dt;
        }
        self.last_busy_update[c] = self.now;
    }

    /// Re-caches channel `c`'s fair share after its bandwidth or active
    /// count changed.
    fn update_share(&mut self, c: ChannelId) {
        self.share[c] = self.channel_bw[c] / self.active[c].max(1) as f64;
    }

    /// Removes flight `k`, whose queue just emptied, from the occupied
    /// set.
    fn vacate(&mut self, k: usize) {
        debug_assert!(self.occupied[k / 64] & (1 << (k % 64)) != 0);
        self.occupied[k / 64] &= !(1 << (k % 64));
    }

    /// The occupied-set invariant: `occupied` holds exactly the flights
    /// with a non-empty queue.
    fn occupied_is_exact(&self) -> bool {
        self.occupied.len() == self.flights.len().div_ceil(64)
            && self
                .flights
                .iter()
                .enumerate()
                .all(|(k, f)| (self.occupied[k / 64] & (1 << (k % 64)) != 0) != f.queue.is_empty())
    }

    /// Re-derives the flights whose share may have changed after an
    /// event on flight `k`'s route: `conflicts[k] ∩ occupied` (fast
    /// mode), or every occupied flight (dense reference — the full
    /// rescan). Each flight's re-derivation reads only the cached shares
    /// and its own state, so the visiting order changes no bits.
    fn recompute_conflicts(&mut self, k: usize) {
        let due_wave = self.spawn_wave(self.now);
        if self.dense {
            for j in 0..self.flights.len() {
                if !self.flights[j].queue.is_empty() {
                    self.recompute_flight(j, due_wave);
                }
            }
            return;
        }
        for w in 0..self.conflicts[k].len() {
            let mut word = self.conflicts[k][w] & self.occupied[w];
            while word != 0 {
                let j = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.recompute_flight(j, due_wave);
            }
        }
    }

    /// Re-derives flight `k`'s bottleneck fair-share rate. A flight whose
    /// rate value is unchanged is left untouched — its lazy drain tuple
    /// and cached prediction stay valid. (This is what makes the indexed
    /// and dense modes trace-identical: an unaffected flight's inputs are
    /// unchanged, so the dense rescan re-derives the same bits and also
    /// no-ops.) On a change the flight is materialized — drain credited
    /// under the old rate — then the new rate and prediction are
    /// installed.
    fn recompute_flight(&mut self, k: usize, due_wave: u32) {
        self.counters.rate_recomputes += 1;
        let f = &mut self.flights[k];
        let rate = derive_rate(&self.share, &f.route);
        if rate == f.rate {
            return;
        }
        f.materialize(self.now);
        f.rate = rate;
        f.refresh_pred(self.now, due_wave);
    }

    /// Recomputes the cached network candidate in one pass over the
    /// occupied flights (every flight in dense mode): the lowest
    /// `(at, wave, lane, id)` over the pending immediates (due now) and
    /// each flight head (due at its prediction clamped to now). A flight
    /// that can never complete (`pred == +inf`) is no candidate.
    fn refresh_candidate(&mut self) {
        debug_assert!(self.occupied_is_exact(), "occupied set out of sync");
        self.counters.candidate_refreshes += 1;
        self.candidate_stale = false;
        let now = self.now;
        let mut best = self.immediates.keys().next().map(|&(wave, lane, id)| {
            (
                now,
                (wave, lane, id),
                Candidate::Immediate((wave, lane, id)),
            )
        });
        let mut consider = |f: &Flight, k: usize| {
            if !f.pred.is_finite() {
                return;
            }
            if let Some(&Reverse((_, id, _, lane))) = f.queue.peek() {
                let at = f.pred.max(now);
                let key = (f.pred_wave, lane, id);
                let better = best.is_none_or(|(b_at, b_key, _)| {
                    at.total_cmp(&b_at).then(key.cmp(&b_key)) == Ordering::Less
                });
                if better {
                    best = Some((at, key, Candidate::Flight(k)));
                }
            }
        };
        if self.dense {
            for (k, f) in self.flights.iter().enumerate() {
                consider(f, k);
            }
        } else {
            for k in ones(&self.occupied) {
                consider(&self.flights[k], k);
            }
        }
        self.candidate = best.map(|(at, (wave, lane, _), pick)| NetCandidate {
            at,
            wave,
            lane,
            pick,
        });
    }

    /// The completion due at the current time with the lowest
    /// `(wave, lane, id)`, if any, found by a full rescan: the head of a
    /// due flight (`pred <= now`) or a pending immediate (always due).
    /// Debug builds check every delivery of the cached candidate against
    /// it.
    fn pick_candidate(&self) -> Option<Candidate> {
        let mut best: Option<((u32, u32, TransferId), usize)> = None;
        for (k, f) in self.flights.iter().enumerate() {
            if f.pred <= self.now {
                if let Some(&Reverse((_, id, _, lane))) = f.queue.peek() {
                    let key = (f.pred_wave, lane, id);
                    if best.is_none_or(|(b, _)| key < b) {
                        best = Some((key, k));
                    }
                }
            }
        }
        match (self.immediates.keys().next().copied(), best) {
            (Some(i), Some((b, _))) if i < b => Some(Candidate::Immediate(i)),
            (_, Some((_, k))) => Some(Candidate::Flight(k)),
            (Some(i), None) => Some(Candidate::Immediate(i)),
            (None, None) => None,
        }
    }

    /// Advances virtual time to the next completion and returns it, or
    /// `None` when no work remains. Refreshes a stale network candidate
    /// at most once, then delivers whichever of it and the event-heap
    /// top comes first. One completion per call keeps ordering
    /// deterministic; ascending-(wave, lane, id) delivery makes the
    /// same-instant order spawn-phase-major, then lane-major, with each
    /// lane's sub-order a function of its own issue order alone.
    ///
    /// Named like — but deliberately not implementing — `Iterator::next`:
    /// drivers interleave `next()` with new submissions, which an
    /// `Iterator` cannot express.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, Completion)> {
        if self.candidate_stale {
            self.refresh_candidate();
        }
        match (self.candidate, self.events.peek()) {
            (Some(c), None) => Some(self.deliver(c)),
            (Some(c), Some(ev)) if c.precedes(ev) => Some(self.deliver(c)),
            (_, Some(_)) => Some(self.pop_event()),
            (None, None) => None,
        }
    }

    /// Pops the event-heap top: a compute completion (starting the GPU's
    /// next queued kernel, if any) or a timer.
    fn pop_event(&mut self) -> (SimTime, Completion) {
        let ev = self
            .events
            .pop()
            .expect("invariant: next() pops only a non-empty heap");
        self.counters.heap_pops += 1;
        debug_assert!(ev.time >= self.now - 1e-12, "time went backwards");
        self.now = self.now.max(ev.time);
        self.cur_wave = ev.wave;
        self.popped = true;
        match ev.kind {
            EventKind::ComputeDone { gpu, tag } => {
                match self.streams[gpu].queue.pop_front() {
                    Some((secs, next_tag)) => {
                        self.stats.gpu_busy_secs[gpu] += secs;
                        let t = self.now + secs;
                        self.push(t, gpu as u32, EventKind::ComputeDone { gpu, tag: next_tag });
                    }
                    None => self.streams[gpu].busy = false,
                }
                (self.now, Completion::Compute { gpu, tag })
            }
            EventKind::Timer { tag } => (self.now, Completion::Timer { tag }),
        }
    }

    /// Delivers the cached network candidate `c` at its due time.
    fn deliver(&mut self, c: NetCandidate) -> (SimTime, Completion) {
        debug_assert!(c.at >= self.now - 1e-12, "time went backwards");
        self.counters.net_deliveries += 1;
        self.now = self.now.max(c.at);
        self.cur_wave = c.wave;
        self.popped = true;
        self.candidate_stale = true;
        debug_assert_eq!(
            Some(c.pick),
            self.pick_candidate(),
            "cached candidate differs from a full rescan"
        );
        match c.pick {
            Candidate::Immediate(key) => {
                let tag = self
                    .immediates
                    .remove(&key)
                    .expect("invariant: the candidate is a pending immediate");
                // No channel state to release (never routed).
                let (_, _, id) = key;
                (self.now, Completion::Transfer { id, tag })
            }
            Candidate::Flight(k) => {
                let f = &mut self.flights[k];
                f.materialize(self.now);
                let Reverse((_, id, tag, _)) = f.queue.pop().expect(
                    "invariant: a flight candidate has a finite pred, and pred is \
                     finite only while the flight's transfer queue is non-empty",
                );
                if f.queue.is_empty() {
                    f.pred = f64::INFINITY;
                    self.vacate(k);
                }
                // The head's share frees up on every channel of the
                // route: sibling flights (including this one, if still
                // occupied) re-derive their rates.
                self.release_routed(k);
                (self.now, Completion::Transfer { id, tag })
            }
        }
    }
}

#[cfg(test)]
mod tests;
