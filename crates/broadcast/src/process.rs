//! Standalone [`Protocol`] wrapper around the broadcast hubs, plus Byzantine
//! sender variants for adversarial testing.
//!
//! The gather and consensus crates embed [`BroadcastHub`] directly; this
//! wrapper exists so that the broadcast layer can be exercised (and attacked)
//! in full simulations on its own.

use asym_quorum::{AsymQuorumSystem, ProcessId};
use asym_sim::{Context, Protocol};

use crate::{BcastMsg, BroadcastHub, Delivery, Tag};

/// A process running only the asymmetric reliable broadcast layer.
///
/// *Input*: `(tag, value)` pairs to arb-broadcast. *Output*: [`Delivery`]
/// events. The [`Byzantine`](ArbRole::Equivocate) role sends conflicting
/// `SEND` messages to odd/even processes — the classic equivocation attack
/// that reliable broadcast must neutralize.
#[derive(Clone, Debug)]
pub struct ArbProcess {
    hub: BroadcastHub<u64>,
    role: ArbRole,
}

/// Behaviour of an [`ArbProcess`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArbRole {
    /// Follows the protocol.
    Honest,
    /// On input, sends `value` to even-indexed processes and `value + 1` to
    /// odd-indexed ones instead of a uniform broadcast.
    Equivocate,
}

impl ArbProcess {
    /// Creates an honest broadcast process.
    pub fn new(me: ProcessId, quorums: AsymQuorumSystem) -> Self {
        ArbProcess { hub: BroadcastHub::new(me, quorums), role: ArbRole::Honest }
    }

    /// Creates a process with the given role.
    pub fn with_role(me: ProcessId, quorums: AsymQuorumSystem, role: ArbRole) -> Self {
        ArbProcess { hub: BroadcastHub::new(me, quorums), role }
    }

    /// Read access to the underlying hub (assertions in tests).
    pub fn hub(&self) -> &BroadcastHub<u64> {
        &self.hub
    }
}

impl Protocol for ArbProcess {
    type Msg = BcastMsg<u64>;
    type Input = (Tag, u64);
    type Output = Delivery<u64>;

    fn on_input(
        &mut self,
        (tag, value): (Tag, u64),
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        match self.role {
            ArbRole::Honest => {
                for m in self.hub.broadcast(tag, value) {
                    ctx.broadcast(m);
                }
            }
            ArbRole::Equivocate => {
                // Bypass the hub: hand-craft conflicting SENDs.
                for i in 0..ctx.n() {
                    let v = if i % 2 == 0 { value } else { value + 1 };
                    ctx.send(ProcessId::new(i), BcastMsg::Send { tag, value: v });
                }
            }
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        let (out, delivered) = self.hub.on_message(from, msg);
        for m in out {
            ctx.broadcast(m);
        }
        for d in delivered {
            ctx.output(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_quorum::{topology, ProcessSet};
    use asym_sim::{scheduler, FaultMode, Simulation};

    fn cluster(n: usize, f: usize, role_of: impl Fn(usize) -> ArbRole) -> Vec<ArbProcess> {
        let t = topology::uniform_threshold(n, f);
        (0..n)
            .map(|i| ArbProcess::with_role(ProcessId::new(i), t.quorums.clone(), role_of(i)))
            .collect()
    }

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn honest_broadcast_delivered_by_all() {
        for seed in 0..5 {
            let mut sim =
                Simulation::new(cluster(4, 1, |_| ArbRole::Honest), scheduler::Random::new(seed));
            sim.input(pid(0), (0, 99));
            assert!(sim.run(100_000).quiescent);
            for i in 0..4 {
                let out = sim.outputs(pid(i));
                assert_eq!(out.len(), 1, "seed {seed} process {i}");
                assert_eq!(out[0], Delivery { origin: pid(0), tag: 0, value: 99 });
            }
        }
    }

    #[test]
    fn many_concurrent_instances() {
        let mut sim =
            Simulation::new(cluster(7, 2, |_| ArbRole::Honest), scheduler::Random::new(3));
        for i in 0..7 {
            for tag in 0..5 {
                sim.input(pid(i), (tag, (i * 10 + tag as usize) as u64));
            }
        }
        assert!(sim.run(10_000_000).quiescent);
        for i in 0..7 {
            assert_eq!(sim.outputs(pid(i)).len(), 35, "process {i} delivers all 35");
        }
    }

    #[test]
    fn agreement_under_equivocating_sender() {
        // Byzantine p0 equivocates; n=4, f=1. Correct processes must never
        // deliver conflicting values — at most one of {v, v+1} wins system-wide.
        for seed in 0..10 {
            let mut sim = Simulation::new(
                cluster(4, 1, |i| if i == 0 { ArbRole::Equivocate } else { ArbRole::Honest }),
                scheduler::Random::new(seed),
            );
            sim.input(pid(0), (7, 100));
            sim.run(100_000);
            let mut value_seen = None;
            for i in 1..4 {
                for d in sim.outputs(pid(i)) {
                    assert_eq!(d.origin, pid(0));
                    match value_seen {
                        None => value_seen = Some(d.value),
                        Some(v) => assert_eq!(v, d.value, "seed {seed}: split delivery"),
                    }
                }
            }
        }
    }

    #[test]
    fn totality_with_crashed_origin_after_send() {
        // Origin crashes immediately after its SEND reaches the network; if
        // any correct process delivers, all correct processes deliver.
        let mut sim = Simulation::new(cluster(4, 1, |_| ArbRole::Honest), scheduler::Fifo::new())
            .with_fault(pid(0), FaultMode::CrashAfter(0));
        sim.input(pid(0), (0, 5));
        assert!(sim.run(100_000).quiescent);
        let delivered: Vec<usize> = (1..4).filter(|i| !sim.outputs(pid(*i)).is_empty()).collect();
        assert!(delivered.is_empty() || delivered.len() == 3, "totality violated: {delivered:?}");
    }

    #[test]
    fn no_delivery_without_origin() {
        // Nothing broadcast: no outputs, ever.
        let mut sim = Simulation::new(cluster(4, 1, |_| ArbRole::Honest), scheduler::Fifo::new());
        assert!(sim.run(1_000).quiescent);
        for i in 0..4 {
            assert!(sim.outputs(pid(i)).is_empty());
        }
    }

    #[test]
    fn validity_under_targeted_delay() {
        // Starve the origin's messages; eventual delivery still holds because
        // the targeted-delay scheduler remains fair.
        let mut sim = Simulation::new(
            cluster(4, 1, |_| ArbRole::Honest),
            scheduler::TargetedDelay::new(ProcessSet::from_indices([0])),
        );
        sim.input(pid(0), (0, 11));
        assert!(sim.run(100_000).quiescent);
        for i in 0..4 {
            assert_eq!(sim.outputs(pid(i)).len(), 1, "process {i}");
        }
    }

    #[test]
    fn works_on_figure1_topology() {
        // The 30-process counterexample system is still a valid quorum
        // system; reliable broadcast must work fine on it.
        let qs = asym_quorum::counterexample::fig1_quorums();
        let procs: Vec<ArbProcess> = (0..30).map(|i| ArbProcess::new(pid(i), qs.clone())).collect();
        let mut sim = Simulation::new(procs, scheduler::Random::new(1));
        sim.input(pid(4), (0, 123));
        assert!(sim.run(10_000_000).quiescent);
        for i in 0..30 {
            assert_eq!(
                sim.outputs(pid(i)),
                &[Delivery { origin: pid(4), tag: 0, value: 123 }],
                "process {i}"
            );
        }
    }
}
