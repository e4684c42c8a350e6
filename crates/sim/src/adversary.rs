//! Declarative adversary descriptions, buildable into [`Scheduler`]s.
//!
//! An [`Adversary`] is the data describing one scheduler strategy — the form
//! a sweep harness can enumerate, store in a scenario descriptor, print in a
//! failure report and rebuild bit-for-bit. [`Adversary::build`] turns the
//! description into a boxed [`Scheduler`] for a concrete message type.

use crate::scheduler::{self, Scheduler};
use asym_quorum::ProcessSet;

/// Which adversary schedules message delivery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Adversary {
    /// Send-order delivery.
    Fifo,
    /// Seeded uniformly random delivery order.
    Random(u64),
    /// Per-message random latency in `min..=max` simulated time units
    /// (measure latency with this one).
    Latency {
        /// RNG seed.
        seed: u64,
        /// Minimum per-message latency.
        min: u64,
        /// Maximum per-message latency.
        max: u64,
    },
    /// Messages to/from the victims are starved as long as possible.
    TargetedDelay(ProcessSet),
    /// Messages to/from the victims are starved **forever** (the run
    /// quiesces with them still in flight); pair with
    /// [`crate::Simulation::flush_starved`].
    Starve(ProcessSet),
    /// Cross-group messages are blocked until `heal_at` (delivery steps).
    Partition {
        /// The isolated groups.
        groups: Vec<ProcessSet>,
        /// Step at which the partition heals.
        heal_at: u64,
    },
}

impl Adversary {
    /// Builds the described scheduler for message type `M`. Deterministic:
    /// equal descriptions build schedulers producing identical executions.
    pub fn build<M: Clone + core::fmt::Debug + 'static>(&self) -> Box<dyn Scheduler<M>> {
        match self {
            Adversary::Fifo => Box::new(scheduler::Fifo::new()),
            Adversary::Random(seed) => Box::new(scheduler::Random::new(*seed)),
            Adversary::Latency { seed, min, max } => {
                Box::new(scheduler::RandomLatency::new(*seed, *min, *max))
            }
            Adversary::TargetedDelay(victims) => {
                Box::new(scheduler::TargetedDelay::new(victims.clone()))
            }
            Adversary::Starve(victims) => Box::new(scheduler::Starve::new(victims.clone())),
            Adversary::Partition { groups, heal_at } => {
                Box::new(scheduler::Partition::new(groups.clone(), *heal_at))
            }
        }
    }
}

impl core::fmt::Display for Adversary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Adversary::Fifo => write!(f, "fifo"),
            Adversary::Random(seed) => write!(f, "random(seed={seed})"),
            Adversary::Latency { seed, min, max } => {
                write!(f, "latency(seed={seed},{min}..={max})")
            }
            Adversary::TargetedDelay(victims) => write!(f, "targeted-delay({victims})"),
            Adversary::Starve(victims) => write!(f, "starve({victims})"),
            Adversary::Partition { groups, heal_at } => {
                write!(f, "partition(heal_at={heal_at},groups=[")?;
                for (i, g) in groups.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, "])")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::InFlight;
    use asym_quorum::ProcessId;

    fn msg(seq: u64, from: usize, to: usize) -> InFlight<u8> {
        InFlight { seq, from: ProcessId::new(from), to: ProcessId::new(to), sent_at: 0, msg: 0 }
    }

    #[test]
    fn built_schedulers_are_deterministic_per_description() {
        let pending: Vec<_> = (0..8).map(|i| msg(i, 0, 1)).collect();
        for adv in [
            Adversary::Fifo,
            Adversary::Random(9),
            Adversary::Latency { seed: 9, min: 1, max: 20 },
            Adversary::TargetedDelay(ProcessSet::from_indices([0])),
            Adversary::Partition { groups: vec![ProcessSet::from_indices([0, 1])], heal_at: 5 },
        ] {
            let mut a = adv.build::<u8>();
            let mut b = adv.build::<u8>();
            let picks_a: Vec<_> = (0..20).map(|_| a.next(&pending, 0)).collect();
            let picks_b: Vec<_> = (0..20).map(|_| b.next(&pending, 0)).collect();
            assert_eq!(picks_a, picks_b, "{adv}");
        }
    }

    #[test]
    fn display_names_the_strategy() {
        assert_eq!(Adversary::Random(3).to_string(), "random(seed=3)");
        assert_eq!(
            Adversary::Latency { seed: 1, min: 2, max: 9 }.to_string(),
            "latency(seed=1,2..=9)"
        );
    }
}
