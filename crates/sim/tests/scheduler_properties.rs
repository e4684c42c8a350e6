//! Scheduler guarantees the scenario harness leans on: executions are
//! replayable (same seed ⇒ identical delivery order) and no adversary except
//! the explicitly-starving ones leaves correct-to-correct traffic undelivered
//! in a completed (quiescent) run. The indexed schedulers also pick exactly
//! what the linear scans they replaced would pick (the oracle below).

use asym_quorum::{ProcessId, ProcessSet};
use asym_sim::scheduler::{self, InFlight, Scheduler};
use asym_sim::{Adversary, Context, FaultMode, Protocol, Simulation, Step};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

/// Gossip with one relay hop: enough traffic that delivery order is
/// observable and schedulers have real choices to make.
#[derive(Clone, Debug)]
struct Relay;

impl Protocol for Relay {
    type Msg = (u8, u64);
    type Input = u64;
    type Output = (ProcessId, u8, u64);

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        ctx.broadcast((0, ctx.id().index() as u64));
    }

    fn on_input(&mut self, input: u64, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        ctx.broadcast((0, input));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        (hop, value): Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        ctx.output((from, hop, value));
        if hop == 0 {
            ctx.broadcast((1, value));
        }
    }
}

fn all_adversaries(n: usize) -> Vec<Adversary> {
    vec![
        Adversary::Fifo,
        Adversary::Random(11),
        Adversary::Latency { seed: 11, min: 1, max: 25 },
        Adversary::TargetedDelay(ProcessSet::from_indices([0, 1])),
        Adversary::Partition {
            groups: vec![ProcessSet::from_indices(0..n / 2), ProcessSet::from_indices(n / 2..n)],
            heal_at: 40,
        },
    ]
}

/// Runs the relay protocol under one adversary and returns per-process
/// outputs (the observable image of the delivery order) plus leftover
/// `(from, to)` endpoints.
fn run(
    n: usize,
    adversary: &Adversary,
    faults: &[(usize, FaultMode)],
) -> (Vec<Vec<(ProcessId, u8, u64)>>, Vec<(ProcessId, ProcessId)>) {
    let procs = vec![Relay; n];
    let mut sim = Simulation::new(procs, adversary.build())
        .with_faults(faults.iter().map(|(i, m)| (pid(*i), *m)));
    for i in 0..n {
        sim.input(pid(i), 100 + i as u64);
    }
    let report = sim.run(1_000_000);
    assert!(report.quiescent, "{adversary}: run must quiesce");
    let outputs = (0..n).map(|i| sim.outputs(pid(i)).to_vec()).collect();
    (outputs, sim.pending_endpoints().collect())
}

#[test]
fn same_seed_same_delivery_order() {
    for adversary in all_adversaries(6) {
        let (a, _) = run(6, &adversary, &[]);
        let (b, _) = run(6, &adversary, &[]);
        assert_eq!(a, b, "{adversary}: same description must replay identically");
    }
}

#[test]
fn same_seed_same_delivery_order_under_faults() {
    let faults = [(4usize, FaultMode::Mute), (5usize, FaultMode::CrashAfter(7))];
    for adversary in all_adversaries(6) {
        let (a, _) = run(6, &adversary, &faults);
        let (b, _) = run(6, &adversary, &faults);
        assert_eq!(a, b, "{adversary}: fault plan must not break determinism");
    }
}

#[test]
fn different_random_seeds_usually_differ() {
    let (a, _) = run(6, &Adversary::Random(1), &[]);
    let (b, _) = run(6, &Adversary::Random(2), &[]);
    // Not guaranteed in principle, but with 6 relaying processes the orders
    // coincide only with negligible probability — a regression here means
    // the seed is being ignored.
    assert_ne!(a, b, "distinct seeds should explore distinct schedules");
}

#[test]
fn no_starvation_of_correct_to_correct_messages() {
    // Every eventually-delivering adversary must leave zero correct-to-correct
    // messages pending once the run quiesces.
    for adversary in all_adversaries(6) {
        let (_, leftovers) = run(6, &adversary, &[]);
        assert!(
            leftovers.is_empty(),
            "{adversary}: {} message(s) starved between correct processes",
            leftovers.len()
        );
    }
}

#[test]
fn no_starvation_between_surviving_processes_under_faults() {
    // With crashed/mute processes in the mix, traffic between the *remaining*
    // correct processes must still be fully delivered at quiescence.
    let faults = [(5usize, FaultMode::CrashedFromStart)];
    for adversary in all_adversaries(6) {
        let (_, leftovers) = run(6, &adversary, &faults);
        let correct_pair: Vec<_> =
            leftovers.iter().filter(|(f, t)| f.index() != 5 && t.index() != 5).collect();
        assert!(
            correct_pair.is_empty(),
            "{adversary}: correct-to-correct traffic starved: {correct_pair:?}"
        );
    }
}

#[test]
fn filtered_scheduler_starves_only_disallowed_traffic() {
    // The deliberately-starving adversary: everything it leaves behind must
    // violate its own predicate — it may not starve allowed traffic.
    let allow = |from: ProcessId, _to: ProcessId| from.index() != 2;
    let mut sim = Simulation::new(vec![Relay; 4], scheduler::Filtered::new(allow));
    for i in 0..4 {
        sim.input(pid(i), i as u64);
    }
    assert!(sim.run(1_000_000).quiescent);
    let leftovers: Vec<_> = sim.pending_endpoints().collect();
    assert!(!leftovers.is_empty(), "the filter must have starved something");
    for (from, _to) in leftovers {
        assert_eq!(from.index(), 2, "only disallowed traffic may be starved");
    }
}

/// The linear-scan schedulers the indexed ones replaced, kept verbatim as the
/// oracle: every pick and delivery time of an indexed scheduler must equal
/// its reference's.
mod reference {
    use super::*;
    use std::collections::HashMap;

    fn oldest<M>(pending: &[InFlight<M>], keep: impl Fn(&InFlight<M>) -> bool) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .filter(|(_, m)| keep(m))
            .min_by_key(|(_, m)| m.seq)
            .map(|(i, _)| i)
    }

    pub struct Fifo;

    impl<M> Scheduler<M> for Fifo {
        fn next(&mut self, pending: &[InFlight<M>], _now: Step) -> Option<usize> {
            oldest(pending, |_| true)
        }
    }

    pub struct RandomLatency {
        pub rng: SmallRng,
        pub min: Step,
        pub max: Step,
        pub deadlines: HashMap<u64, Step>,
    }

    impl RandomLatency {
        fn deadline(&mut self, m: &InFlight<impl Sized>) -> Step {
            let (rng, min, max) = (&mut self.rng, self.min, self.max);
            *self.deadlines.entry(m.seq).or_insert_with(|| m.sent_at + rng.random_range(min..=max))
        }
    }

    impl<M> Scheduler<M> for RandomLatency {
        fn next(&mut self, pending: &[InFlight<M>], _now: Step) -> Option<usize> {
            let mut best: Option<(usize, Step, u64)> = None;
            for (i, m) in pending.iter().enumerate() {
                let d = self.deadline(m);
                let better = match best {
                    None => true,
                    Some((_, bd, bseq)) => (d, m.seq) < (bd, bseq),
                };
                if better {
                    best = Some((i, d, m.seq));
                }
            }
            best.map(|(i, _, _)| i)
        }

        fn delivery_time(&mut self, chosen: &InFlight<M>, now: Step) -> Step {
            let d = self.deadline(chosen);
            self.deadlines.remove(&chosen.seq);
            d.max(now)
        }
    }

    pub struct TargetedDelay(pub ProcessSet);

    impl<M> Scheduler<M> for TargetedDelay {
        fn next(&mut self, pending: &[InFlight<M>], _now: Step) -> Option<usize> {
            oldest(pending, |m| !self.0.contains(m.from) && !self.0.contains(m.to))
                .or_else(|| oldest(pending, |_| true))
        }
    }

    pub struct Starve(pub ProcessSet);

    impl<M> Scheduler<M> for Starve {
        fn next(&mut self, pending: &[InFlight<M>], _now: Step) -> Option<usize> {
            oldest(pending, |m| !self.0.contains(m.from) && !self.0.contains(m.to))
        }
    }

    pub struct Partition {
        pub groups: Vec<ProcessSet>,
        pub heal_at: Step,
        pub healed: bool,
    }

    impl<M> Scheduler<M> for Partition {
        fn next(&mut self, pending: &[InFlight<M>], now: Step) -> Option<usize> {
            if now >= self.heal_at {
                self.healed = true;
            }
            if !self.healed {
                let groups = &self.groups;
                let intra = oldest(pending, |m| {
                    groups.iter().any(|g| g.contains(m.from) && g.contains(m.to))
                });
                if intra.is_some() {
                    return intra;
                }
                if pending.is_empty() {
                    return None;
                }
                self.healed = true;
            }
            oldest(pending, |_| true)
        }
    }
}

/// Drives `indexed` and `reference` over one seeded random trace of the
/// in-flight bag and asserts identical picks, delivery times and
/// `state(indexed) == state(reference)` after every event. The trace mixes
/// tail pushes of new sends, `swap_remove` + `delivery_time` of the pick (a
/// [`Simulation::step`]), `next` without a removal (the quiescence probe),
/// removals the schedulers are not told about (a
/// [`Simulation::flush_starved`] delivery), and two breaches of the
/// pending-slice contract: `delivery_time` for a message other than the
/// pick, and for a pick that stays in the bag.
fn assert_matches_reference<A: Scheduler<u8>, B: Scheduler<u8>, T: PartialEq + std::fmt::Debug>(
    name: &str,
    seed: u64,
    mut indexed: A,
    mut reference: B,
    state: impl Fn(&A, &B) -> (T, T),
) {
    const N: usize = 7;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pending: Vec<InFlight<u8>> = Vec::new();
    let (mut seq, mut now) = (0u64, 0);
    for event in 0..3_000 {
        let ctx = format!("{name} seed={seed} event={event} now={now} in_flight={}", pending.len());
        let roll = rng.random_range(0..100u32);
        if roll < 35 && pending.len() < 120 {
            // New sends, pushed at the tail in seq order.
            let from = ProcessId::new(rng.random_range(0..N));
            for _ in 0..rng.random_range(1..=N) {
                let to = ProcessId::new(rng.random_range(0..N));
                pending.push(InFlight { seq, from, to, sent_at: now, msg: 0 });
                seq += 1;
            }
        } else if roll < 80 {
            let pick = indexed.next(&pending, now);
            assert_eq!(pick, reference.next(&pending, now), "pick: {ctx}");
            if let Some(i) = pick {
                let m = pending.swap_remove(i);
                let at = indexed.delivery_time(&m, now);
                assert_eq!(at, reference.delivery_time(&m, now), "delivery time: {ctx}");
                now = at;
            }
        } else if roll < 88 {
            assert_eq!(indexed.next(&pending, now), reference.next(&pending, now), "probe: {ctx}");
        } else if roll < 96 {
            // flush_starved: oldest first, clock +1, schedulers not told.
            if let Some(i) = (0..pending.len()).min_by_key(|i| pending[*i].seq) {
                pending.swap_remove(i);
                now += 1;
            }
        } else if roll < 98 && !pending.is_empty() {
            // A delivery of some message other than the pick.
            let m = pending.swap_remove(rng.random_range(0..pending.len()));
            let at = indexed.delivery_time(&m, now);
            assert_eq!(at, reference.delivery_time(&m, now), "non-pick delivery time: {ctx}");
            now = at;
        } else if roll >= 98 {
            // The pick reported delivered but left in the bag.
            let pick = indexed.next(&pending, now);
            assert_eq!(pick, reference.next(&pending, now), "pick: {ctx}");
            if let Some(i) = pick {
                let at = indexed.delivery_time(&pending[i], now);
                assert_eq!(at, reference.delivery_time(&pending[i], now), "kept pick: {ctx}");
                now = at;
            }
        }
        let (a, b) = state(&indexed, &reference);
        assert_eq!(a, b, "state: {ctx}");
    }
}

fn stateless<A, B>(_: &A, _: &B) -> ((), ()) {
    ((), ())
}

#[test]
fn indexed_schedulers_match_the_linear_scans() {
    let victims = ProcessSet::from_indices([1, 4]);
    let groups = vec![ProcessSet::from_indices([0, 1, 2]), ProcessSet::from_indices([3, 4, 5])];
    for seed in 0..12 {
        assert_matches_reference("fifo", seed, scheduler::Fifo::new(), reference::Fifo, stateless);
        for (min, max) in [(1, 25), (3, 5)] {
            assert_matches_reference(
                "latency",
                seed,
                scheduler::RandomLatency::new(seed, min, max),
                reference::RandomLatency {
                    rng: SmallRng::seed_from_u64(seed),
                    min,
                    max,
                    deadlines: Default::default(),
                },
                stateless,
            );
        }
        assert_matches_reference(
            "targeted-delay",
            seed,
            scheduler::TargetedDelay::new(victims.clone()),
            reference::TargetedDelay(victims.clone()),
            stateless,
        );
        assert_matches_reference(
            "starve",
            seed,
            scheduler::Starve::new(victims.clone()),
            reference::Starve(victims.clone()),
            stateless,
        );
        for heal_at in [150, 1_000_000] {
            assert_matches_reference(
                "partition",
                seed,
                scheduler::Partition::new(groups.clone(), heal_at),
                reference::Partition { groups: groups.clone(), heal_at, healed: false },
                |a, b| (a.healed(), b.healed),
            );
        }
    }
}
