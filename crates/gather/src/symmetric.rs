//! **Algorithm 1** — the classic three-round symmetric gather
//! (Canetti–Rabin / Abraham et al.), reproduced as the paper presents it.
//!
//! Each process reliably broadcasts its input; after hearing `n − f` inputs
//! it distributes its set `S`; after `n − f` `DISTRIBUTE_S` messages it
//! distributes the union `T`; after `n − f` `DISTRIBUTE_T` messages it
//! delivers the union `U`. The combinatorial counting argument guarantees a
//! common core of size `n − f` — the argument that (per the paper's §3.2)
//! does **not** survive the replacement of thresholds by asymmetric quorums.

use asym_broadcast::{BcastMsg, BroadcastHub};
use asym_quorum::{ProcessId, ProcessSet};
use asym_sim::{Context, Protocol};

use crate::common::{merge_pairs, to_wire, ValueSet};

/// Wire messages of the symmetric gather.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymGatherMsg<V> {
    /// Reliable-broadcast layer (Bracha) for the initial values.
    Rb(BcastMsg<V>),
    /// Round-2 set distribution.
    DistS(Vec<(ProcessId, V)>),
    /// Round-3 set distribution.
    DistT(Vec<(ProcessId, V)>),
}

/// One process of the symmetric gather protocol (Algorithm 1).
///
/// *Input*: the value to `g-propose`. *Output*: the `g-delivered` set.
#[derive(Clone, Debug)]
pub struct SymGather<V> {
    me: ProcessId,
    n: usize,
    f: usize,
    hub: BroadcastHub<V>,
    s: ValueSet<V>,
    t: ValueSet<V>,
    u: ValueSet<V>,
    dist_s_from: ProcessSet,
    dist_t_from: ProcessSet,
    sent_s: bool,
    sent_t: bool,
    delivered: bool,
}

impl<V: Clone + Eq + std::hash::Hash + core::fmt::Debug> SymGather<V> {
    /// Creates a gather process for the `f`-of-`n` threshold setting.
    ///
    /// # Panics
    ///
    /// Panics if `n <= 3f` (the threshold Q³ bound).
    pub fn new(me: ProcessId, n: usize, f: usize) -> Self {
        assert!(n > 3 * f, "symmetric gather requires n > 3f");
        SymGather {
            me,
            n,
            f,
            hub: BroadcastHub::symmetric(me, n, f),
            s: ValueSet::new(),
            t: ValueSet::new(),
            u: ValueSet::new(),
            dist_s_from: ProcessSet::new(),
            dist_t_from: ProcessSet::new(),
            sent_s: false,
            sent_t: false,
            delivered: false,
        }
    }

    /// This process's identity.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// The current `S` set (observer inspection).
    pub fn s_set(&self) -> &ValueSet<V> {
        &self.s
    }

    /// `true` once `g-deliver` fired.
    pub fn has_delivered(&self) -> bool {
        self.delivered
    }

    fn quota(&self) -> usize {
        self.n - self.f
    }

    fn advance(&mut self, ctx: &mut Context<'_, SymGatherMsg<V>, ValueSet<V>>) {
        if !self.sent_s && self.s.len() >= self.quota() {
            self.sent_s = true;
            ctx.broadcast(SymGatherMsg::DistS(to_wire(&self.s)));
        }
        if !self.sent_t && self.dist_s_from.len() >= self.quota() {
            self.sent_t = true;
            ctx.broadcast(SymGatherMsg::DistT(to_wire(&self.t)));
        }
        if !self.delivered && self.dist_t_from.len() >= self.quota() {
            self.delivered = true;
            ctx.output(self.u.clone());
        }
    }
}

impl<V: Clone + Eq + std::hash::Hash + core::fmt::Debug> Protocol for SymGather<V> {
    type Msg = SymGatherMsg<V>;
    type Input = V;
    type Output = ValueSet<V>;

    fn on_input(&mut self, value: V, ctx: &mut Context<'_, Self::Msg, Self::Output>) {
        for m in self.hub.broadcast(0, value) {
            ctx.broadcast(SymGatherMsg::Rb(m));
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Output>,
    ) {
        match msg {
            SymGatherMsg::Rb(inner) => {
                let (out, deliveries) = self.hub.on_message(from, inner);
                for m in out {
                    ctx.broadcast(SymGatherMsg::Rb(m));
                }
                for d in deliveries {
                    merge_pairs(&mut self.s, &[(d.origin, d.value)]);
                }
            }
            SymGatherMsg::DistS(pairs) => {
                if self.dist_s_from.insert(from) {
                    merge_pairs(&mut self.t, &pairs);
                }
            }
            SymGatherMsg::DistT(pairs) => {
                if self.dist_t_from.insert(from) {
                    merge_pairs(&mut self.u, &pairs);
                }
            }
        }
        self.advance(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{check_pairwise_agreement, find_common_core};
    use asym_quorum::topology;
    use asym_sim::{scheduler, FaultMode, Simulation};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn run_cluster(
        n: usize,
        f: usize,
        seed: u64,
        crashed: &[usize],
    ) -> Simulation<SymGather<u64>, scheduler::Random> {
        let procs: Vec<SymGather<u64>> = (0..n).map(|i| SymGather::new(pid(i), n, f)).collect();
        let mut sim = Simulation::new(procs, scheduler::Random::new(seed));
        for c in crashed {
            sim = sim.with_fault(pid(*c), FaultMode::CrashedFromStart);
        }
        for i in 0..n {
            if !crashed.contains(&i) {
                sim.input(pid(i), 1000 + i as u64);
            }
        }
        let report = sim.run(10_000_000);
        assert!(report.quiescent, "gather must terminate");
        sim
    }

    #[test]
    fn failure_free_run_has_common_core_of_size_n_minus_f() {
        for seed in 0..8 {
            let n = 4;
            let sim = run_cluster(n, 1, seed, &[]);
            let outs: Vec<ValueSet<u64>> = (0..n).map(|i| sim.outputs(pid(i))[0].clone()).collect();
            let refs: Vec<(ProcessId, &ValueSet<u64>)> =
                outs.iter().enumerate().map(|(i, u)| (pid(i), u)).collect();
            check_pairwise_agreement(&refs).expect("agreement");
            // Common core = some 3-quorum in every output (threshold view).
            let t = topology::uniform_threshold(n, 1);
            let core = find_common_core(&t.quorums, &ProcessSet::full(n), &refs);
            assert!(core.is_some(), "seed {seed}: no common core");
        }
    }

    #[test]
    fn tolerates_f_crashes() {
        for seed in 0..5 {
            let n = 7;
            let sim = run_cluster(n, 2, seed, &[5, 6]);
            for i in 0..5 {
                let out = sim.outputs(pid(i));
                assert_eq!(out.len(), 1, "seed {seed} process {i} must deliver");
                assert!(out[0].len() >= 5, "output holds ≥ n−f values");
            }
        }
    }

    #[test]
    fn validity_outputs_only_real_inputs() {
        let n = 4;
        let sim = run_cluster(n, 1, 3, &[]);
        for i in 0..n {
            for (p, v) in sim.outputs(pid(i))[0].iter() {
                assert_eq!(*v, 1000 + p.index() as u64, "value attributed to wrong origin");
            }
        }
    }

    #[test]
    fn no_delivery_below_quota() {
        // With 2 of 4 processes crashed (> f = 1), nobody can finish.
        let n = 4;
        let procs: Vec<SymGather<u64>> = (0..n).map(|i| SymGather::new(pid(i), n, 1)).collect();
        let mut sim = Simulation::new(procs, scheduler::Fifo::new())
            .with_fault(pid(2), FaultMode::CrashedFromStart)
            .with_fault(pid(3), FaultMode::CrashedFromStart);
        sim.input(pid(0), 1);
        sim.input(pid(1), 2);
        assert!(sim.run(1_000_000).quiescent);
        assert!(sim.outputs(pid(0)).is_empty());
        assert!(sim.outputs(pid(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "n > 3f")]
    fn rejects_unsound_threshold() {
        let _ = SymGather::<u64>::new(pid(0), 6, 2);
    }
}
