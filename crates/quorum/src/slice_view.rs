//! The *slice view* of threshold and slice-threshold systems, and the closed
//! forms it gives for B³, quorum consistency and quorum availability.
//!
//! A slice-threshold fail-prone system `(S, f)` lets everything outside `S`
//! fail plus up to `f` members of `S`; its downward closure is
//! `F* = {X | |X ∩ S| ≤ f}`. A slice-threshold quorum system `(A, q)` has as
//! quorums the subsets of `A` with at least `q` members. A threshold system is
//! the slice `S = P` (or `A = P`). Over this view every soundness check is a
//! comparison of popcounts, allocation-free, O(1) per process or pair; only a
//! violation builds sets, for its witness.
//!
//! Explicit systems, and consistency for a pair whose quorum slice differs
//! from its fail-prone slice (`A_i ≠ S_i`), fall back to enumerating maximal
//! fail-prone sets and minimal quorums.

use std::borrow::Cow;

use crate::combinatorics::{combinations, retain_maximal};
use crate::{FailProneSystem, ProcessId, ProcessSet, QuorumSystem};

/// A threshold or slice-threshold system as the pair `(slice, t)`, where `t`
/// is the fail-prone threshold `f` or the quorum size `q`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slice<'a> {
    /// Universe size.
    n: usize,
    /// The slice; `None` is the whole universe `{p_0, …, p_{n-1}}`.
    members: Option<&'a ProcessSet>,
    /// The threshold: `f` of a fail-prone system, `q` of a quorum system.
    pub(crate) t: usize,
}

/// How a symmetric system presents itself to the checks.
pub(crate) enum View<'a> {
    /// A threshold or slice-threshold system.
    Slice(Slice<'a>),
    /// An explicit antichain (maximal fail-prone sets or minimal quorums).
    Explicit(&'a [ProcessSet]),
}

impl<'a> View<'a> {
    /// The maximal sets of a fail-prone system: borrowed when explicit,
    /// enumerated otherwise.
    pub(crate) fn maximal_sets(&self) -> Cow<'a, [ProcessSet]> {
        match self {
            View::Slice(s) => Cow::Owned(s.maximal_sets()),
            View::Explicit(sets) => Cow::Borrowed(sets),
        }
    }

    /// The minimal quorums of a quorum system: borrowed when explicit,
    /// enumerated otherwise.
    pub(crate) fn minimal_quorums(&self) -> Cow<'a, [ProcessSet]> {
        match self {
            View::Slice(s) => Cow::Owned(s.minimal_quorums()),
            View::Explicit(quorums) => Cow::Borrowed(quorums),
        }
    }
}

impl<'a> Slice<'a> {
    /// The slice `P` of a threshold system.
    pub(crate) fn universe(n: usize, t: usize) -> Self {
        Slice { n, members: None, t }
    }

    /// The slice `members` of a slice-threshold system (within the universe,
    /// as the constructors assert).
    pub(crate) fn of(n: usize, members: &'a ProcessSet, t: usize) -> Self {
        Slice { n, members: Some(members), t }
    }

    /// `|S|`.
    pub(crate) fn len(&self) -> usize {
        self.members.map_or(self.n, ProcessSet::len)
    }

    /// `|observed ∩ S|`, without allocating.
    #[inline]
    pub(crate) fn count(&self, observed: &ProcessSet) -> usize {
        match self.members {
            Some(s) => observed.intersection_len(s),
            None => observed.len_below(self.n),
        }
    }

    /// `p ∈ S`.
    pub(crate) fn contains(&self, p: ProcessId) -> bool {
        self.members.map_or(p.index() < self.n, |s| s.contains(p))
    }

    /// `|S ∩ S'|`, without allocating.
    fn common(&self, other: &Slice<'_>) -> usize {
        match (self.members, other.members) {
            (Some(a), Some(b)) => a.intersection_len(b),
            (Some(s), None) | (None, Some(s)) => s.len(),
            (None, None) => self.n,
        }
    }

    /// `S = S'`, without allocating.
    fn same_members(&self, other: &Slice<'_>) -> bool {
        let len = self.len();
        len == other.len() && self.common(other) == len
    }

    /// `S` as a set (allocates; witnesses and enumeration only).
    fn set(&self) -> ProcessSet {
        self.members.cloned().unwrap_or_else(|| ProcessSet::full(self.n))
    }

    /// `P ∖ S` (allocates; witnesses and enumeration only).
    fn outside(&self) -> ProcessSet {
        self.members.map_or_else(ProcessSet::new, |s| s.complement(self.n))
    }

    /// The maximal fail-prone sets `(P ∖ S) ∪ C`, one per `t`-subset `C ⊆ S`.
    pub(crate) fn maximal_sets(&self) -> Vec<ProcessSet> {
        let outside = self.outside();
        combinations(&self.set(), self.t).map(|c| c.union(&outside)).collect()
    }

    /// The minimal quorums: the `t`-subsets of `S`.
    pub(crate) fn minimal_quorums(&self) -> Vec<ProcessSet> {
        combinations(&self.set(), self.t).collect()
    }

    /// The minimal kernels: the `(|S| − t + 1)`-subsets of `S`.
    pub(crate) fn minimal_kernels(&self) -> Vec<ProcessSet> {
        combinations(&self.set(), self.len() - self.t + 1).collect()
    }

    /// The first `t` members of `observed ∩ S`, if there are that many.
    pub(crate) fn find_quorum(&self, observed: &ProcessSet) -> Option<ProcessSet> {
        (self.count(observed) >= self.t)
            .then(|| observed.iter().filter(|p| self.contains(*p)).take(self.t).collect())
    }

    /// Q³ for the fail-prone system `(S, f)`: three fail-prone sets cover `P`
    /// iff three `f`-chunks cover `S`, i.e. iff `|S| ≤ 3f`. The witness takes
    /// consecutive `f`-chunks of `S`, wrapping around, each with `P ∖ S`.
    pub(crate) fn q3_violation(&self) -> Option<[ProcessSet; 3]> {
        if self.len() > 3 * self.t {
            return None;
        }
        let members = self.set().to_vec();
        let outside = self.outside();
        let chunk = |k: usize| -> ProcessSet {
            let c: ProcessSet =
                members.iter().copied().cycle().skip(k * self.t).take(self.t).collect();
            c.union(&outside)
        };
        Some([chunk(0), chunk(1), chunk(2)])
    }
}

impl FailProneSystem {
    /// The slice view, or the explicit maximal sets.
    pub(crate) fn view(&self) -> View<'_> {
        match self {
            FailProneSystem::Threshold { n, f } => View::Slice(Slice::universe(*n, *f)),
            FailProneSystem::SliceThreshold { n, slice, f } => {
                View::Slice(Slice::of(*n, slice, *f))
            }
            FailProneSystem::Explicit { sets, .. } => View::Explicit(sets),
        }
    }
}

impl QuorumSystem {
    /// The slice view, or the explicit minimal quorums.
    pub(crate) fn view(&self) -> View<'_> {
        match self {
            QuorumSystem::Threshold { n, q } => View::Slice(Slice::universe(*n, *q)),
            QuorumSystem::SliceThreshold { n, slice, q } => View::Slice(Slice::of(*n, slice, *q)),
            QuorumSystem::Explicit { quorums, .. } => View::Explicit(quorums),
        }
    }
}

/// B³ for the pair of fail-prone systems `(F_i, F_j)` over the universe
/// `full`: returns `[F_i, F_j, F_ij]` with `F_i ∪ F_j ∪ F_ij = P`, `F_i ∈ F_i*`,
/// `F_j ∈ F_j*` and `F_ij ∈ F_i* ∩ F_j*`, or `None` if no such sets exist.
#[inline]
pub(crate) fn b3_violation(
    full: &ProcessSet,
    fi: &View<'_>,
    fj: &View<'_>,
) -> Option<[ProcessSet; 3]> {
    match (fi, fj) {
        (View::Slice(si), View::Slice(sj)) => slice_b3_violation(*si, *sj),
        _ => explicit_b3_violation(full, &fi.maximal_sets(), &fj.maximal_sets()),
    }
}

/// Consistency for the pair `(i, j)` with quorum systems `qi`, `qj` and
/// fail-prone systems `fi`, `fj`: returns `[Q_i, Q_j, F_ij]` with
/// `Q_i ∩ Q_j ⊆ F_ij ∈ F_i* ∩ F_j*`, or `None` if no such sets exist.
#[inline]
pub(crate) fn consistency_violation(
    qi: &View<'_>,
    fi: &View<'_>,
    qj: &View<'_>,
    fj: &View<'_>,
) -> Option<[ProcessSet; 3]> {
    if let (View::Slice(ai), View::Slice(si), View::Slice(aj), View::Slice(sj)) = (qi, fi, qj, fj) {
        if ai.same_members(si) && aj.same_members(sj) {
            return slice_consistency_violation(*ai, *aj, si.t.min(sj.t));
        }
    }
    explicit_consistency_violation(
        &qi.minimal_quorums(),
        &qj.minimal_quorums(),
        &fi.maximal_sets(),
        &fj.maximal_sets(),
    )
}

/// Availability for one process with quorum system `q` and fail-prone
/// system `f`: returns an `F ∈ F*` that no quorum avoids, or `None` if every
/// fail-prone set has a disjoint quorum.
pub(crate) fn availability_violation(q: &View<'_>, f: &View<'_>) -> Option<ProcessSet> {
    if let (View::Slice(a), View::Slice(s)) = (q, f) {
        return slice_availability_violation(*a, *s);
    }
    let quorums = q.minimal_quorums();
    f.maximal_sets().iter().find(|fset| !quorums.iter().any(|q| q.is_disjoint(fset))).cloned()
}

/// `F_i ∪ F_j` covers `P ∖ (S_i ∩ S_j)` plus at most `f_i + f_j` members of
/// `I = S_i ∩ S_j`; what is left of `I` lies in both slices, so it is a common
/// fail-prone set iff it has at most `min(f_i, f_j)` members. Hence B³ fails
/// iff `|I| ≤ f_i + f_j + min(f_i, f_j)`.
#[inline]
fn slice_b3_violation(si: Slice<'_>, sj: Slice<'_>) -> Option<[ProcessSet; 3]> {
    (si.common(&sj) <= si.t + sj.t + si.t.min(sj.t)).then(|| b3_witness(si, sj))
}

#[cold]
fn b3_witness(si: Slice<'_>, sj: Slice<'_>) -> [ProcessSet; 3] {
    let both = si.set().intersection(&sj.set());
    let mut rest = both.iter();
    let a = rest.by_ref().take(si.t).collect::<ProcessSet>().union(&si.outside());
    let b = rest.by_ref().take(sj.t).collect::<ProcessSet>().union(&sj.outside());
    [a, b, rest.collect()]
}

/// With `A = S` on both sides, `Q_i ∩ Q_j ⊆ S_i ∩ S_j`, so it is a common
/// fail-prone set iff it has at most `min(f_i, f_j)` members. The smallest
/// intersection of a `q_i`-subset of `S_i` and a `q_j`-subset of `S_j` has
/// `max(0, q_i + q_j − |S_i ∪ S_j|)` members: each quorum takes its own side
/// first, then the shared part from opposite ends. `f_min` is `min(f_i, f_j)`.
#[inline]
fn slice_consistency_violation(
    ai: Slice<'_>,
    aj: Slice<'_>,
    f_min: usize,
) -> Option<[ProcessSet; 3]> {
    let union = ai.len() + aj.len() - ai.common(&aj);
    ((ai.t + aj.t).saturating_sub(union) <= f_min).then(|| consistency_witness(ai, aj))
}

#[cold]
fn consistency_witness(ai: Slice<'_>, aj: Slice<'_>) -> [ProcessSet; 3] {
    let (si, sj) = (ai.set(), aj.set());
    let both = si.intersection(&sj).to_vec();
    let qi: ProcessSet = si.difference(&sj).iter().chain(both.iter().copied()).take(ai.t).collect();
    let qj: ProcessSet =
        sj.difference(&si).iter().chain(both.iter().rev().copied()).take(aj.t).collect();
    let fij = qi.intersection(&qj);
    [qi, qj, fij]
}

/// A quorum disjoint from `(P ∖ S) ∪ C` lies in `(A ∩ S) ∖ C`; the worst `C`
/// removes `min(f, |A ∩ S|)` of those members. Hence availability fails iff
/// `|A ∩ S| < q + f` (with `A = S`: iff `q + f > |S|`).
fn slice_availability_violation(a: Slice<'_>, s: Slice<'_>) -> Option<ProcessSet> {
    if a.common(&s) >= a.t + s.t {
        return None;
    }
    let usable = a.set().intersection(&s.set());
    Some(usable.iter().take(s.t).collect::<ProcessSet>().union(&s.outside()))
}

/// The maximal elements of `F_i* ∩ F_j*`: the maximal pairwise intersections
/// of maximal sets (for one antichain with itself, the antichain).
fn common_maximal(mi: &[ProcessSet], mj: &[ProcessSet]) -> Vec<ProcessSet> {
    if mi == mj {
        return mi.to_vec();
    }
    let mut common: Vec<ProcessSet> =
        mi.iter().flat_map(|a| mj.iter().map(|b| a.intersection(b))).collect();
    retain_maximal(&mut common);
    common
}

fn explicit_b3_violation(
    full: &ProcessSet,
    mi: &[ProcessSet],
    mj: &[ProcessSet],
) -> Option<[ProcessSet; 3]> {
    let common = common_maximal(mi, mj);
    for fi in mi {
        for fj in mj {
            let union = fi.union(fj);
            if let Some(fij) = common.iter().find(|fij| union.union(fij) == *full) {
                return Some([fi.clone(), fj.clone(), fij.clone()]);
            }
        }
    }
    None
}

fn explicit_consistency_violation(
    qs_i: &[ProcessSet],
    qs_j: &[ProcessSet],
    mi: &[ProcessSet],
    mj: &[ProcessSet],
) -> Option<[ProcessSet; 3]> {
    let common = common_maximal(mi, mj);
    for qi in qs_i {
        for qj in qs_j {
            let inter = qi.intersection(qj);
            if let Some(fij) = common.iter().find(|fij| inter.is_subset(fij)) {
                return Some([qi.clone(), qj.clone(), fij.clone()]);
            }
        }
    }
    None
}
