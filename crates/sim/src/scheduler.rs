//! Delivery schedulers: the asynchronous adversary.
//!
//! In the asynchronous model the adversary controls message delivery order
//! subject only to *eventual delivery between correct processes*. A
//! [`Scheduler`] realizes one adversary strategy: given the multiset of
//! in-flight messages it picks the next one to deliver (or `None` to starve
//! the remainder, which models "delayed beyond the end of the observed
//! execution" — legal in an asynchronous system as long as the run has
//! finished its observable work).
//!
//! All schedulers are deterministic given their seed, so every execution in
//! tests and benchmarks is replayable.
//!
//! The schedulers that deliver the smallest `(key, seq)` within some class
//! of messages ([`Fifo`], [`RandomLatency`], [`TargetedDelay`], [`Starve`],
//! [`Partition`]) keep an incremental index of the in-flight bag, so a pick
//! costs O(log in-flight) instead of a scan; see the [`Scheduler`] contract.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use asym_quorum::{ProcessId, ProcessSet};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::process::Step;

/// A message in flight: sent but not yet delivered.
#[derive(Clone, Debug)]
pub struct InFlight<M> {
    /// Monotone sequence number (send order).
    pub seq: u64,
    /// Authenticated sender.
    pub from: ProcessId,
    /// Recipient.
    pub to: ProcessId,
    /// Time at which the message was sent.
    pub sent_at: Step,
    /// Payload.
    pub msg: M,
}

/// An adversary strategy choosing the next message to deliver.
///
/// # The pending-slice contract
///
/// [`crate::Simulation`] keeps the in-flight bag as a `Vec` and changes it
/// in two ways only: new sends are pushed at the tail in `seq` order, and
/// [`crate::Simulation::step`] calls `swap_remove` on the index `next`
/// picked, then `delivery_time` with the removed message. Between two calls
/// of `next` the slice is therefore the previous slice, minus the reported
/// pick, plus a tail of newer messages.
///
/// The indexed schedulers ([`Fifo`], [`RandomLatency`], [`TargetedDelay`],
/// [`Starve`], [`Partition`]) rely on this to update a copy of the bag's
/// layout in O(new messages · log in-flight) per `next`. When the contract
/// is broken they rebuild the copy from the slice, keeping every key (e.g.
/// latency deadline) they already know, so the picks stay those of a full
/// scan. They see a break as: a clock that moved without a reported
/// delivery (what [`crate::Simulation::flush_starved`] does while removing
/// messages behind their back), a `delivery_time` for a message other than
/// the pick, a picked message still in the slice, or a slice shorter than
/// the copy or disagreeing with its last slot. Other edits of the slice
/// that leave the clock alone go unseen in release builds; debug builds
/// assert on every `next` that the copy matches the slice.
pub trait Scheduler<M> {
    /// Returns the index (into `pending`) of the next message to deliver, or
    /// `None` to leave all remaining messages undelivered for now.
    ///
    /// `now` is the current simulation time.
    fn next(&mut self, pending: &[InFlight<M>], now: Step) -> Option<usize>;

    /// Advisory simulated delivery time for the chosen message; the default
    /// advances the clock by one step. Latency-modelling schedulers override
    /// this to report the message's arrival time.
    fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        let _ = chosen;
        now + 1
    }
}

impl<M, S: Scheduler<M> + ?Sized> Scheduler<M> for Box<S> {
    fn next(&mut self, pending: &[InFlight<M>], now: Step) -> Option<usize> {
        (**self).next(pending, now)
    }

    fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        (**self).delivery_time(chosen, now)
    }
}

/// Hasher for the `u64` sequence numbers keying [`PendingIndex`]: one
/// multiplication (Fibonacci hashing) instead of SipHash.
#[derive(Default)]
struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.write_u64(self.0 ^ u64::from(*b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// One slot of [`PendingIndex`]'s copy of the in-flight bag.
#[derive(Clone, Copy, Debug)]
struct Slot {
    seq: u64,
    key: u64,
    /// Heap the message is indexed in; `None` for messages never picked.
    class: Option<u8>,
}

/// Incremental index over the in-flight bag for the schedulers that deliver
/// the smallest `(key, seq)` of a class of messages.
///
/// It holds a copy of the bag's layout (`seq`, key and class per slot), a
/// `seq → slot` map and one `(key, seq)` min-heap per class. Heap entries
/// whose message has left the bag are dropped lazily when they reach the
/// top. Each [`PendingIndex::sync`] first applies the `swap_remove` of the
/// pick the previous `delivery_time` reported, then indexes the new tail;
/// when the slice shows that the [`Scheduler`] contract was broken it
/// rebuilds from the slice instead.
#[derive(Clone, Debug, Default)]
struct PendingIndex {
    slots: Vec<Slot>,
    slot_of: HashMap<u64, usize, BuildHasherDefault<SeqHasher>>,
    /// One heap per class; no scheduler needs more than two classes.
    heaps: [BinaryHeap<Reverse<(u64, u64)>>; 2],
    /// Clock the next sync expects: the one of the last sync, or the
    /// delivery time of the reported pick.
    now: Step,
    /// `(key, seq, slot)` of the last pick.
    pick: Option<(u64, u64, usize)>,
    /// Slot of the pick `delivery_time` reported, still in the copy.
    delivered: Option<usize>,
    /// A `delivery_time` broke the contract: rebuild on the next sync.
    broken: bool,
}

impl PendingIndex {
    /// Brings the copy in line with `pending`. `entry` gives the key and
    /// class of a message seen for the first time; it is called in slice
    /// order, once per message.
    fn sync<M>(
        &mut self,
        pending: &[InFlight<M>],
        now: Step,
        mut entry: impl FnMut(&InFlight<M>) -> (u64, Option<u8>),
    ) {
        let delivered = self.delivered.take();
        if let Some(i) = delivered {
            self.remove(i);
        }
        self.pick = None;
        let m = self.slots.len();
        let follows = !self.broken
            && now == self.now
            && pending.len() >= m
            && self.slots.last().is_none_or(|s| pending[m - 1].seq == s.seq)
            && delivered.is_none_or(|i| i >= m || pending[i].seq == self.slots[i].seq);
        if follows {
            for msg in &pending[m..] {
                let (key, class) = entry(msg);
                self.push(Slot { seq: msg.seq, key, class });
            }
        } else {
            self.rebuild(pending, entry);
        }
        self.now = now;
        debug_assert!(
            self.slots.len() == pending.len()
                && self.slots.iter().zip(pending).all(|(s, msg)| s.seq == msg.seq),
            "pending index out of step with the in-flight bag"
        );
    }

    /// Rebuilds the copy from `pending`, reusing the key and class of every
    /// message still known (in `slot_of`), so `entry` only sees the others.
    fn rebuild<M>(
        &mut self,
        pending: &[InFlight<M>],
        mut entry: impl FnMut(&InFlight<M>) -> (u64, Option<u8>),
    ) {
        let known: HashMap<u64, Slot, BuildHasherDefault<SeqHasher>> = self
            .slots
            .iter()
            .filter(|s| self.slot_of.contains_key(&s.seq))
            .map(|s| (s.seq, *s))
            .collect();
        self.slots.clear();
        self.slot_of.clear();
        self.heaps.iter_mut().for_each(BinaryHeap::clear);
        self.broken = false;
        for msg in pending {
            let slot = known.get(&msg.seq).copied().unwrap_or_else(|| {
                let (key, class) = entry(msg);
                Slot { seq: msg.seq, key, class }
            });
            self.push(slot);
        }
    }

    fn push(&mut self, slot: Slot) {
        self.slot_of.insert(slot.seq, self.slots.len());
        if let Some(c) = slot.class {
            self.heaps[usize::from(c)].push(Reverse((slot.key, slot.seq)));
        }
        self.slots.push(slot);
    }

    /// Mirrors the bag's `swap_remove(i)`; the removed message has already
    /// left `slot_of`.
    fn remove(&mut self, i: usize) {
        self.slots.swap_remove(i);
        if let Some(moved) = self.slots.get(i) {
            if let Some(slot) = self.slot_of.get_mut(&moved.seq) {
                *slot = i;
            }
        }
    }

    /// Smallest live `(key, seq, slot)` of `class`. An entry is live while
    /// its message is in the copy with that key: a message re-indexed after
    /// a broken contract may have a new key.
    fn min(&mut self, class: u8) -> Option<(u64, u64, usize)> {
        let heap = &mut self.heaps[usize::from(class)];
        while let Some(&Reverse((key, seq))) = heap.peek() {
            match self.slot_of.get(&seq) {
                Some(&slot) if self.slots[slot].key == key => return Some((key, seq, slot)),
                _ => heap.pop(),
            };
        }
        None
    }

    /// Picks the message with the smallest `(key, seq)` over `classes` and
    /// remembers it as the pick. Returns its index in the slice.
    fn pick(&mut self, classes: &[u8]) -> Option<usize> {
        let best = classes.iter().filter_map(|c| self.min(*c)).min()?;
        self.pick = Some(best);
        Some(best.2)
    }

    /// Key of the message `seq`, if it is in the copy.
    fn key(&self, seq: u64) -> Option<u64> {
        self.slot_of.get(&seq).map(|i| self.slots[*i].key)
    }

    /// Records that the bag removed message `seq` and delivered it at `at`,
    /// and forgets its key. Anything but the last pick breaks the contract:
    /// the next sync rebuilds.
    fn delivered(&mut self, seq: u64, at: Step) {
        self.slot_of.remove(&seq);
        match self.pick.take() {
            Some((_, picked, slot)) if picked == seq => {
                self.delivered = Some(slot);
                self.now = at;
            }
            _ => self.broken = true,
        }
    }
}

/// Delivers messages in send order — the synchronous-looking baseline.
#[derive(Clone, Debug, Default)]
pub struct Fifo {
    index: PendingIndex,
}

impl Fifo {
    /// Creates a FIFO scheduler.
    pub fn new() -> Self {
        Fifo::default()
    }
}

impl<M> Scheduler<M> for Fifo {
    fn next(&mut self, pending: &[InFlight<M>], now: Step) -> Option<usize> {
        self.index.sync(pending, now, |m| (m.seq, Some(0)));
        self.index.pick(&[0])
    }

    fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        self.index.delivered(chosen.seq, now + 1);
        now + 1
    }
}

/// Delivers a uniformly random pending message — the classic "oblivious"
/// asynchronous adversary. Deterministic given its seed.
#[derive(Clone, Debug)]
pub struct Random {
    rng: SmallRng,
}

impl Random {
    /// Creates a seeded random scheduler.
    pub fn new(seed: u64) -> Self {
        Random { rng: SmallRng::seed_from_u64(seed) }
    }
}

impl<M> Scheduler<M> for Random {
    fn next(&mut self, pending: &[InFlight<M>], _now: Step) -> Option<usize> {
        if pending.is_empty() {
            None
        } else {
            Some(self.rng.random_range(0..pending.len()))
        }
    }
}

/// Assigns every message an independent random latency in `min..=max` and
/// delivers in arrival-time order; the simulation clock jumps to each arrival
/// time. Use this scheduler for latency measurements in "simulated time
/// units" rather than delivery steps.
#[derive(Clone, Debug)]
pub struct RandomLatency {
    rng: SmallRng,
    min: Step,
    max: Step,
    /// Arrival times, drawn when a message is first seen (in `seq` order).
    index: PendingIndex,
}

impl RandomLatency {
    /// Creates a seeded latency scheduler with per-message latency drawn
    /// uniformly from `min..=max`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or `max == 0`.
    pub fn new(seed: u64, min: Step, max: Step) -> Self {
        assert!(min <= max && max > 0, "latency range must be non-empty and positive");
        RandomLatency {
            rng: SmallRng::seed_from_u64(seed),
            min,
            max,
            index: PendingIndex::default(),
        }
    }
}

/// Draws an arrival time for `m`.
fn draw_deadline(rng: &mut SmallRng, min: Step, max: Step, m: &InFlight<impl Sized>) -> Step {
    m.sent_at + rng.random_range(min..=max)
}

impl<M> Scheduler<M> for RandomLatency {
    fn next(&mut self, pending: &[InFlight<M>], now: Step) -> Option<usize> {
        let (rng, min, max) = (&mut self.rng, self.min, self.max);
        self.index.sync(pending, now, |m| (draw_deadline(rng, min, max, m), Some(0)));
        self.index.pick(&[0])
    }

    fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        let deadline = match self.index.key(chosen.seq) {
            Some(d) => d,
            None => draw_deadline(&mut self.rng, self.min, self.max, chosen),
        };
        let at = deadline.max(now);
        self.index.delivered(chosen.seq, at);
        at
    }
}

/// Starves every message to or from the `victims` for as long as any other
/// message is pending, then delivers victim messages oldest-first — a
/// targeted-delay adversary that still guarantees eventual delivery.
#[derive(Clone, Debug)]
pub struct TargetedDelay {
    victims: ProcessSet,
    /// Class 0: traffic between non-victims; class 1: victim traffic.
    index: PendingIndex,
}

impl TargetedDelay {
    /// Creates a targeted-delay adversary against the given victims.
    pub fn new(victims: ProcessSet) -> Self {
        TargetedDelay { victims, index: PendingIndex::default() }
    }
}

/// `true` if `m` is to or from one of the `victims`.
fn targets(victims: &ProcessSet, m: &InFlight<impl Sized>) -> bool {
    victims.contains(m.from) || victims.contains(m.to)
}

impl<M> Scheduler<M> for TargetedDelay {
    fn next(&mut self, pending: &[InFlight<M>], now: Step) -> Option<usize> {
        let victims = &self.victims;
        self.index.sync(pending, now, |m| (m.seq, Some(u8::from(targets(victims, m)))));
        self.index.pick(&[0]).or_else(|| self.index.pick(&[1]))
    }

    fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        self.index.delivered(chosen.seq, now + 1);
        now + 1
    }
}

/// A network partition: until the heal, only messages within the same group
/// are deliverable. The partition heals at step `heal_at`, or **earlier** if
/// no intra-group message is left (simulated time only advances on
/// deliveries, and an asynchronous partition may delay messages only
/// finitely). Cross-group messages queue up — none are lost, modelling an
/// asynchronous partition rather than a crash.
#[derive(Clone, Debug)]
pub struct Partition {
    groups: Vec<ProcessSet>,
    heal_at: Step,
    healed: bool,
    /// Class 0: intra-group traffic; class 1: cross-group traffic.
    index: PendingIndex,
}

impl Partition {
    /// Creates a partition of the given groups healing at step `heal_at`
    /// (or earlier on intra-group quiescence). Processes not in any group
    /// are isolated until the heal.
    pub fn new(groups: Vec<ProcessSet>, heal_at: Step) -> Self {
        Partition { groups, heal_at, healed: false, index: PendingIndex::default() }
    }

    /// `true` once the partition has healed.
    pub fn healed(&self) -> bool {
        self.healed
    }
}

/// `true` if `a` and `b` share one of the `groups`.
fn same_group(groups: &[ProcessSet], a: ProcessId, b: ProcessId) -> bool {
    groups.iter().any(|g| g.contains(a) && g.contains(b))
}

impl<M> Scheduler<M> for Partition {
    fn next(&mut self, pending: &[InFlight<M>], now: Step) -> Option<usize> {
        let groups = &self.groups;
        self.index
            .sync(pending, now, |m| (m.seq, Some(u8::from(!same_group(groups, m.from, m.to)))));
        if now >= self.heal_at {
            self.healed = true;
        }
        if !self.healed {
            let intra = self.index.pick(&[0]);
            if intra.is_some() {
                return intra;
            }
            if pending.is_empty() {
                return None;
            }
            // Both sides quiesced: the partition cannot starve any longer.
            self.healed = true;
        }
        self.index.pick(&[0, 1])
    }

    fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        self.index.delivered(chosen.seq, now + 1);
        now + 1
    }
}

/// Starves every message to or from the `victims` **forever**: unlike
/// [`TargetedDelay`] it never falls back to delivering victim traffic, so
/// the run quiesces with victim messages still pending — the Appendix-A
/// starvation shape as a plain-data adversary. Harnesses must follow up
/// with [`crate::Simulation::flush_starved`] ("the delayed messages
/// eventually arrive") before checking liveness properties.
#[derive(Clone, Debug)]
pub struct Starve {
    victims: ProcessSet,
    /// Class 0: traffic between non-victims; victim traffic is not indexed.
    index: PendingIndex,
}

impl Starve {
    /// Creates a hard-starvation adversary against the given victims.
    pub fn new(victims: ProcessSet) -> Self {
        Starve { victims, index: PendingIndex::default() }
    }
}

impl<M> Scheduler<M> for Starve {
    fn next(&mut self, pending: &[InFlight<M>], now: Step) -> Option<usize> {
        let victims = &self.victims;
        self.index.sync(pending, now, |m| (m.seq, (!targets(victims, m)).then_some(0)));
        self.index.pick(&[0])
    }

    fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
        self.index.delivered(chosen.seq, now + 1);
        now + 1
    }
}

/// Delivers (oldest-first) only messages satisfying a predicate; the rest are
/// starved until [`crate::Simulation::flush_starved`] or forever. This is the
/// scheduler used to realize the paper's Appendix-A execution, where every
/// process hears **exactly its own quorum** in each round.
pub struct Filtered<F> {
    allow: F,
}

impl<F> Filtered<F> {
    /// Creates a filtered scheduler from an `allow(from, to) -> bool`
    /// predicate.
    pub fn new(allow: F) -> Self {
        Filtered { allow }
    }
}

impl<M, F: FnMut(ProcessId, ProcessId) -> bool> Scheduler<M> for Filtered<F> {
    fn next(&mut self, pending: &[InFlight<M>], _now: Step) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .filter(|(_, m)| (self.allow)(m.from, m.to))
            .min_by_key(|(_, m)| m.seq)
            .map(|(i, _)| i)
    }
}

impl<F> core::fmt::Debug for Filtered<F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("Filtered(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(seq: u64, from: usize, to: usize) -> InFlight<u8> {
        InFlight { seq, from: ProcessId::new(from), to: ProcessId::new(to), sent_at: 0, msg: 0 }
    }

    #[test]
    fn fifo_picks_lowest_seq() {
        let pending = vec![msg(5, 0, 1), msg(2, 1, 0), msg(9, 2, 0)];
        assert_eq!(Scheduler::<u8>::next(&mut Fifo::new(), &pending, 0), Some(1));
        assert_eq!(Scheduler::<u8>::next(&mut Fifo::new(), &[], 0), None);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let pending: Vec<_> = (0..10).map(|i| msg(i, 0, 1)).collect();
        let picks_a: Vec<_> = (0..20).map(|_| Random::new(7).next(&pending, 0).unwrap()).collect();
        let picks_b: Vec<_> = (0..20).map(|_| Random::new(7).next(&pending, 0).unwrap()).collect();
        assert_eq!(picks_a, picks_b);
    }

    #[test]
    fn random_covers_range() {
        let pending: Vec<_> = (0..5).map(|i| msg(i, 0, 1)).collect();
        let mut r = Random::new(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(Scheduler::<u8>::next(&mut r, &pending, 0).unwrap());
        }
        assert_eq!(seen.len(), 5, "all pending messages eventually pickable");
    }

    #[test]
    fn latency_scheduler_orders_by_deadline_and_advances_clock() {
        let mut s = RandomLatency::new(1, 10, 20);
        let pending = vec![msg(0, 0, 1), msg(1, 1, 0)];
        let i = s.next(&pending, 0).unwrap();
        let t = s.delivery_time(&pending[i], 0);
        assert!((10..=20).contains(&t));
        // Deterministic per seed.
        let mut s2 = RandomLatency::new(1, 10, 20);
        let i2 = s2.next(&pending, 0).unwrap();
        assert_eq!(i, i2);
    }

    #[test]
    fn targeted_delay_starves_victims_until_last() {
        let mut s = TargetedDelay::new(ProcessSet::from_indices([2]));
        let pending = vec![msg(0, 2, 1), msg(1, 0, 1), msg(2, 1, 2)];
        // Picks seq 1 (only non-victim message) first.
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 0), Some(1));
        // With only victim messages left, delivers oldest.
        let pending = vec![msg(0, 2, 1), msg(2, 1, 2)];
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 0), Some(0));
    }

    #[test]
    fn partition_prefers_intra_group_until_heal() {
        let g1 = ProcessSet::from_indices([0, 1]);
        let g2 = ProcessSet::from_indices([2, 3]);
        let mut s = Partition::new(vec![g1.clone(), g2.clone()], 100);
        let pending = vec![msg(0, 0, 2), msg(1, 0, 1)];
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 5), Some(1));
        assert!(!s.healed());
        // After the heal time, cross-group traffic flows (oldest first).
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 100), Some(0));
        assert!(s.healed());
    }

    #[test]
    fn partition_self_heals_on_intra_group_quiescence() {
        let g1 = ProcessSet::from_indices([0, 1]);
        let g2 = ProcessSet::from_indices([2, 3]);
        let mut s = Partition::new(vec![g1, g2], 1_000_000);
        // Only a cross-group message is pending: the partition cannot starve
        // it forever — it heals early instead of deadlocking the run.
        let pending = vec![msg(0, 0, 2)];
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 5), Some(0));
        assert!(s.healed());
        assert_eq!(Scheduler::<u8>::next(&mut s, &[], 6), None);
    }

    #[test]
    fn starve_never_delivers_victim_traffic() {
        let mut s = Starve::new(ProcessSet::from_indices([2]));
        let pending = vec![msg(0, 2, 1), msg(1, 0, 1), msg(2, 1, 2)];
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 0), Some(1));
        // Unlike TargetedDelay there is NO fallback: victim-only traffic
        // starves forever.
        let pending = vec![msg(0, 2, 1), msg(2, 1, 2)];
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 0), None);
    }

    #[test]
    fn filtered_starves_disallowed() {
        let allow_from_0 = |from: ProcessId, _to: ProcessId| from.index() == 0;
        let mut s = Filtered::new(allow_from_0);
        let pending = vec![msg(0, 1, 2), msg(1, 0, 2)];
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 0), Some(1));
        let pending = vec![msg(0, 1, 2)];
        assert_eq!(Scheduler::<u8>::next(&mut s, &pending, 0), None);
    }
}
