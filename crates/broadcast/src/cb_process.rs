//! Standalone [`Protocol`] wrapper for consistent broadcast, mirroring
//! [`ArbProcess`](crate::ArbProcess) — used by the latency ablation and by
//! tests contrasting consistent vs reliable delivery guarantees.

use asym_quorum::{AsymQuorumSystem, ProcessId};
use asym_sim::{Context, Protocol};

use crate::{CbcastMsg, ConsistentHub, Delivery, Tag};

/// A process running only the asymmetric consistent broadcast layer.
///
/// *Input*: `(tag, value)` pairs to broadcast. *Output*: [`Delivery`] events.
/// Unlike reliable broadcast there is **no totality**: with an equivocating
/// origin some correct processes may deliver while others never do — the
/// tests demonstrate exactly that gap.
#[derive(Clone, Debug)]
pub struct CbProcess {
    hub: ConsistentHub<u64>,
}

impl CbProcess {
    /// Creates an honest consistent-broadcast process.
    pub fn new(me: ProcessId, quorums: AsymQuorumSystem) -> Self {
        CbProcess { hub: ConsistentHub::new(me, quorums) }
    }

    /// Read access to the underlying hub.
    pub fn hub(&self) -> &ConsistentHub<u64> {
        &self.hub
    }
}

impl Protocol for CbProcess {
    type Msg = CbcastMsg<u64>;
    type Input = (Tag, u64);
    type Output = Delivery<u64>;

    fn on_input(
        &mut self,
        (tag, value): (Tag, u64),
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        for m in self.hub.broadcast(tag, value) {
            ctx.broadcast(m);
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

/// An equivocating consistent-broadcast origin: sends `value` to even
/// processes and `value + 1` to odd ones. Consistency still guarantees at
/// most one of the two is ever delivered system-wide; totality is forfeited.
#[derive(Clone, Debug)]
pub struct EquivocatingCbSender;

impl Protocol for EquivocatingCbSender {
    type Msg = CbcastMsg<u64>;
    type Input = (Tag, u64);
    type Output = Delivery<u64>;

    fn on_input(
        &mut self,
        (tag, value): (Tag, u64),
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        for i in 0..ctx.n() {
            let v = if i % 2 == 0 { value } else { value + 1 };
            ctx.send(ProcessId::new(i), CbcastMsg::Send { tag, value: v });
        }
    }

    fn on_message(
        &mut self,
        _from: ProcessId,
        _msg: Self::Msg,
        _ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        // Byzantine: never echoes.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asym_quorum::topology;
    use asym_sim::{scheduler, Simulation};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn honest_broadcast_delivered_by_all() {
        let t = topology::uniform_threshold(4, 1);
        let procs: Vec<CbProcess> =
            (0..4).map(|i| CbProcess::new(pid(i), t.quorums.clone())).collect();
        let mut sim = Simulation::new(procs, scheduler::Random::new(2));
        sim.input(pid(1), (0, 55));
        assert!(sim.run(100_000).quiescent);
        for i in 0..4 {
            assert_eq!(
                sim.outputs(pid(i)),
                &[Delivery { origin: pid(1), tag: 0, value: 55 }],
                "process {i}"
            );
        }
    }

    #[test]
    fn consistent_broadcast_is_cheaper_than_reliable() {
        // One round less: SEND + ECHO only (no READY phase).
        let t = topology::uniform_threshold(7, 2);
        let procs: Vec<CbProcess> =
            (0..7).map(|i| CbProcess::new(pid(i), t.quorums.clone())).collect();
        let mut sim = Simulation::new(procs, scheduler::Fifo::new());
        sim.input(pid(0), (0, 1));
        assert!(sim.run(100_000).quiescent);
        let cb_msgs = sim.stats().sent;

        let procs: Vec<crate::ArbProcess> =
            (0..7).map(|i| crate::ArbProcess::new(pid(i), t.quorums.clone())).collect();
        let mut sim = Simulation::new(procs, scheduler::Fifo::new());
        sim.input(pid(0), (0, 1));
        assert!(sim.run(100_000).quiescent);
        let arb_msgs = sim.stats().sent;

        assert!(
            cb_msgs < arb_msgs,
            "consistent ({cb_msgs}) must be cheaper than reliable ({arb_msgs})"
        );
    }

    /// One simulation type covering honest receivers and one equivocator.
    #[derive(Clone, Debug)]
    enum Node {
        Honest(CbProcess),
        Byz(EquivocatingCbSender),
    }

    impl Protocol for Node {
        type Msg = CbcastMsg<u64>;
        type Input = (Tag, u64);
        type Output = Delivery<u64>;

        fn on_input(&mut self, i: (Tag, u64), ctx: &mut Context<'_, Self::Msg, Self::Output>) {
            match self {
                Node::Honest(p) => p.on_input(i, ctx),
                Node::Byz(p) => p.on_input(i, ctx),
            }
        }

        fn on_message(
            &mut self,
            from: ProcessId,
            msg: Self::Msg,
            ctx: &mut Context<'_, Self::Msg, Self::Output>,
        ) {
            match self {
                Node::Honest(p) => p.on_message(from, msg, ctx),
                Node::Byz(p) => p.on_message(from, msg, ctx),
            }
        }
    }

    #[test]
    fn equivocation_never_splits_delivered_values() {
        // Consistency survives equivocation; totality does not have to.
        let t = topology::uniform_threshold(4, 1);
        for seed in 0..10 {
            let procs: Vec<Node> = (0..4)
                .map(|i| {
                    if i == 3 {
                        Node::Byz(EquivocatingCbSender)
                    } else {
                        Node::Honest(CbProcess::new(pid(i), t.quorums.clone()))
                    }
                })
                .collect();
            let mut sim = Simulation::new(procs, scheduler::Random::new(seed));
            sim.input(pid(3), (0, 70));
            assert!(sim.run(100_000).quiescent);
            let mut seen = None;
            for i in 0..3 {
                for d in sim.outputs(pid(i)) {
                    match seen {
                        None => seen = Some(d.value),
                        Some(v) => assert_eq!(v, d.value, "seed {seed}: split delivery"),
                    }
                }
            }
        }
    }
}
