//! Outside-in layer tracing: timing wrappers around the simulator's
//! [`Scheduler`] and around [`AsymDagRider`] as a [`Protocol`]. No protocol
//! crate is instrumented; every span is a call into a layer's public
//! surface, timed from the benchmark's side.
//!
//! Each protocol call is attributed to exactly one [`Class`] by its
//! observable effect, under the precedence
//! **snapshot > decide > insert > message kind**:
//!
//! 1. the call grew the WAL's `snapshots_written` → [`Class::Snapshot`];
//! 2. else it advanced `decided_wave()` → [`Class::Decide`];
//! 3. else it grew `dag().len()` → [`Class::Insert`];
//! 4. else the kind of the delivered message decides.
//!
//! `on_recover` calls are always [`Class::Recover`].

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use asym_broadcast::BcastMsg;
use asym_core::{AsymDagRider, AsymRiderMsg, Block, OrderedVertex};
use asym_dag::Vertex;
use asym_quorum::ProcessId;
use asym_sim::{Context, InFlight, Protocol, Scheduler, Step};

/// What one protocol call was charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Took a WAL snapshot (and pruned, when pruning is on).
    Snapshot,
    /// Decided at least one wave.
    Decide,
    /// Inserted at least one vertex into the local DAG.
    Insert,
    /// Arb `Send` that inserted nothing.
    BcastSend,
    /// Arb `Echo` that inserted nothing.
    BcastEcho,
    /// Arb `Ready` that inserted nothing.
    BcastReady,
    /// `Ack`, `Ready` or `Confirm` of the wave control ladder.
    Control,
    /// `Fetch` or `FetchReply` (vertex catch-up).
    Fetch,
    /// `StateOffer`, `StateRequest` or `StateChunk` (delivered-state transfer).
    Transfer,
    /// `on_recover`: rebuilding from the WAL and rejoining.
    Recover,
}

impl Class {
    /// Every class, in declaration order (a class indexes by `as usize`).
    pub const ALL: [Class; 10] = [
        Class::Snapshot,
        Class::Decide,
        Class::Insert,
        Class::BcastSend,
        Class::BcastEcho,
        Class::BcastReady,
        Class::Control,
        Class::Fetch,
        Class::Transfer,
        Class::Recover,
    ];

    /// The layer-qualified name used in the report.
    pub fn name(self) -> &'static str {
        match self {
            Class::Snapshot => "storage.snapshot",
            Class::Decide => "ordering.decide",
            Class::Insert => "dag.insert",
            Class::BcastSend => "broadcast.send",
            Class::BcastEcho => "broadcast.echo",
            Class::BcastReady => "broadcast.ready",
            Class::Control => "core.control",
            Class::Fetch => "recovery.fetch",
            Class::Transfer => "transfer.msg",
            Class::Recover => "recovery.on_recover",
        }
    }

    fn of_message(m: &AsymRiderMsg) -> Class {
        match m {
            AsymRiderMsg::Arb(BcastMsg::Send { .. }) => Class::BcastSend,
            AsymRiderMsg::Arb(BcastMsg::Echo { .. }) => Class::BcastEcho,
            AsymRiderMsg::Arb(BcastMsg::Ready { .. }) => Class::BcastReady,
            AsymRiderMsg::Ack { .. }
            | AsymRiderMsg::Ready { .. }
            | AsymRiderMsg::Confirm { .. } => Class::Control,
            AsymRiderMsg::Fetch { .. } | AsymRiderMsg::FetchReply { .. } => Class::Fetch,
            AsymRiderMsg::StateOffer { .. }
            | AsymRiderMsg::StateRequest { .. }
            | AsymRiderMsg::StateChunk { .. } => Class::Transfer,
        }
    }
}

/// Wire kinds for the byte estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Arb `Send`.
    ArbSend,
    /// Arb `Echo`.
    ArbEcho,
    /// Arb `Ready`.
    ArbReady,
    /// `Ack`, `Ready`, `Confirm`.
    Control,
    /// `Fetch`, `FetchReply`, `StateOffer`, `StateRequest`, `StateChunk`.
    Recovery,
}

impl Kind {
    /// Every kind, in declaration order (a kind indexes by `as usize`).
    pub const ALL: [Kind; 5] =
        [Kind::ArbSend, Kind::ArbEcho, Kind::ArbReady, Kind::Control, Kind::Recovery];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ArbSend => "arb_send",
            Kind::ArbEcho => "arb_echo",
            Kind::ArbReady => "arb_ready",
            Kind::Control => "control",
            Kind::Recovery => "recovery",
        }
    }
}

/// Estimated encoded size, in bytes, of one delivered message.
///
/// The simulator moves Rust values, not bytes, so this models a compact
/// binary codec: an 8-byte envelope (sender, recipient, kind, length);
/// 8 bytes per round, wave, tag or transaction; 2 bytes per process id;
/// a process set as an `n`-bit bitmap; 4-byte length prefixes on lists.
pub fn wire_bytes(m: &AsymRiderMsg, n: usize) -> (Kind, u64) {
    const ENVELOPE: u64 = 8;
    let vertex_id = 2 + 8;
    let block = |b: &Block| 4 + 8 * b.txs.len() as u64;
    let vertex = |v: &Vertex<Block>| {
        vertex_id
            + n.div_ceil(8) as u64
            + 4
            + vertex_id * v.weak_edges().len() as u64
            + block(v.block())
    };
    let (kind, body) = match m {
        AsymRiderMsg::Arb(BcastMsg::Send { value, .. }) => (Kind::ArbSend, 8 + vertex(value)),
        AsymRiderMsg::Arb(BcastMsg::Echo { value, .. }) => (Kind::ArbEcho, 2 + 8 + vertex(value)),
        AsymRiderMsg::Arb(BcastMsg::Ready { value, .. }) => (Kind::ArbReady, 2 + 8 + vertex(value)),
        AsymRiderMsg::Ack { .. } | AsymRiderMsg::Ready { .. } | AsymRiderMsg::Confirm { .. } => {
            (Kind::Control, 8)
        }
        AsymRiderMsg::Fetch { .. } | AsymRiderMsg::StateRequest { .. } => (Kind::Recovery, 8),
        AsymRiderMsg::StateOffer { .. } => (Kind::Recovery, 16),
        AsymRiderMsg::FetchReply { vertices, confirmed } => (
            Kind::Recovery,
            4 + vertices.iter().map(vertex).sum::<u64>() + 4 + 8 * confirmed.len() as u64,
        ),
        AsymRiderMsg::StateChunk { segments } => (
            Kind::Recovery,
            4 + segments
                .iter()
                .map(|s| {
                    8 + 8
                        + vertex_id
                        + 4
                        + s.deliveries.iter().map(|(_, b)| vertex_id + block(b)).sum::<u64>()
                })
                .sum::<u64>(),
        ),
    };
    (kind, ENVELOPE + body)
}

/// Calls and nanoseconds charged to one [`Class`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassStat {
    /// Calls charged.
    pub calls: u64,
    /// Their summed wall time.
    pub ns: u64,
}

/// Everything the wrappers and the traced run loop accumulate.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Per-class self time, indexed like [`Class::ALL`].
    pub classes: [ClassStat; Class::ALL.len()],
    /// Scheduler `next` + `delivery_time` wall time.
    pub sched_ns: u64,
    /// Wall time of whole `Simulation::step` calls.
    pub step_ns: u64,
    /// Steps timed.
    pub steps: u64,
    /// Largest in-flight bag the scheduler was offered.
    pub in_flight_max: usize,
    /// In-flight bag sizes summed over every scheduler offer.
    pub in_flight_sum: u64,
    /// Scheduler offers (`next` calls).
    pub offers: u64,
    /// Estimated bytes of released messages, indexed like [`Kind::ALL`].
    pub bytes: [u64; Kind::ALL.len()],
}

impl Trace {
    /// The stat of one class.
    pub fn class(&self, c: Class) -> ClassStat {
        self.classes[c as usize]
    }

    fn charge(&mut self, c: Class, ns: u64) {
        let s = &mut self.classes[c as usize];
        s.calls += 1;
        s.ns += ns;
    }

    /// Summed self time of every protocol call.
    pub fn callback_ns(&self) -> u64 {
        self.classes.iter().map(|c| c.ns).sum()
    }
}

/// A shared trace: the wrappers of every traced execution write to it.
pub type SharedTrace = Rc<RefCell<Trace>>;

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// [`AsymDagRider`] behind a timing [`Protocol`] wrapper.
pub struct Traced {
    /// The wrapped process, unchanged.
    pub inner: AsymDagRider,
    trace: SharedTrace,
}

impl Traced {
    /// Wraps `inner`, charging its calls to `trace`.
    pub fn new(inner: AsymDagRider, trace: SharedTrace) -> Self {
        Traced { inner, trace }
    }
}

type Ctx<'a> = Context<'a, AsymRiderMsg, OrderedVertex>;

impl Protocol for Traced {
    type Msg = AsymRiderMsg;
    type Input = Block;
    type Output = OrderedVertex;

    // Start and input run during set-up, which the untraced run times.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_input(&mut self, input: Block, ctx: &mut Ctx<'_>) {
        self.inner.on_input(input, ctx);
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_>) {
        let t = Instant::now();
        self.inner.on_recover(ctx);
        let ns = elapsed_ns(t);
        self.trace.borrow_mut().charge(Class::Recover, ns);
    }

    fn on_message(&mut self, from: ProcessId, msg: AsymRiderMsg, ctx: &mut Ctx<'_>) {
        let by_kind = Class::of_message(&msg);
        let snapshots = |r: &AsymDagRider| r.storage().map_or(0, |l| l.stats().snapshots_written);
        let (snaps0, wave0, len0) =
            (snapshots(&self.inner), self.inner.decided_wave(), self.inner.dag().len());
        let t = Instant::now();
        self.inner.on_message(from, msg, ctx);
        let ns = elapsed_ns(t);
        let class = if snapshots(&self.inner) > snaps0 {
            Class::Snapshot
        } else if self.inner.decided_wave() > wave0 {
            Class::Decide
        } else if self.inner.dag().len() > len0 {
            Class::Insert
        } else {
            by_kind
        };
        self.trace.borrow_mut().charge(class, ns);
    }
}

/// A [`Scheduler`] behind a timing wrapper that also records the in-flight
/// high-water mark and the estimated bytes of every released message.
pub struct TimedScheduler<S> {
    inner: S,
    n: usize,
    trace: SharedTrace,
}

impl<S> TimedScheduler<S> {
    /// Wraps `inner` for an `n`-process run.
    pub fn new(inner: S, n: usize, trace: SharedTrace) -> Self {
        TimedScheduler { inner, n, trace }
    }
}

impl<S: Scheduler<AsymRiderMsg>> Scheduler<AsymRiderMsg> for TimedScheduler<S> {
    fn next(&mut self, pending: &[InFlight<AsymRiderMsg>], now: Step) -> Option<usize> {
        let t = Instant::now();
        let pick = self.inner.next(pending, now);
        let ns = elapsed_ns(t);
        let mut tr = self.trace.borrow_mut();
        tr.sched_ns += ns;
        tr.in_flight_max = tr.in_flight_max.max(pending.len());
        tr.in_flight_sum += pending.len() as u64;
        tr.offers += 1;
        if let Some(i) = pick {
            let (kind, bytes) = wire_bytes(&pending[i].msg, self.n);
            tr.bytes[kind as usize] += bytes;
        }
        pick
    }

    fn delivery_time(&mut self, chosen: &InFlight<AsymRiderMsg>, now: Step) -> Step {
        let t = Instant::now();
        let at = self.inner.delivery_time(chosen, now);
        self.trace.borrow_mut().sched_ns += elapsed_ns(t);
        at
    }
}
