//! Symmetric (global) Byzantine quorum systems.
//!
//! This module implements the classic model of Malkhi–Reiter [26]: a single
//! *fail-prone system* `F ⊆ 2^P` shared by all processes, and a *Byzantine
//! quorum system* `Q` whose quorums pairwise intersect outside every common
//! fail-prone set (consistency) and avoid every fail-prone set (availability).
//!
//! Threshold systems (`f` out of `n`) and slice-threshold systems are
//! represented implicitly, as a slice and a threshold, so that membership,
//! kernel and validation checks compare popcounts instead of enumerating
//! `C(n, f)` subsets; explicit systems carry the antichain of maximal
//! fail-prone sets / minimal quorums.

use crate::combinatorics::{minimal_hitting_sets, retain_maximal, retain_minimal};
use crate::slice_view::{self, View};
use crate::{ProcessId, ProcessSet, QuorumError};

/// A symmetric fail-prone system: the collection of sets of processes that may
/// jointly fail in some execution.
///
/// The collection is identified with the antichain of its *maximal* elements;
/// `F* = {F' | F' ⊆ F, F ∈ F}` is the downward closure queried by
/// [`FailProneSystem::covers`].
///
/// # Examples
///
/// ```
/// use asym_quorum::{FailProneSystem, ProcessSet};
///
/// // Up to 1 of 4 processes may fail.
/// let fps = FailProneSystem::threshold(4, 1);
/// assert!(fps.covers(&ProcessSet::from_indices([2])));
/// assert!(!fps.covers(&ProcessSet::from_indices([2, 3])));
/// assert!(fps.satisfies_q3());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailProneSystem {
    /// All subsets of size at most `f` may fail.
    Threshold {
        /// Number of processes in the system.
        n: usize,
        /// Maximum number of simultaneous failures tolerated.
        f: usize,
    },
    /// An explicit antichain of maximal fail-prone sets.
    Explicit {
        /// Number of processes in the system.
        n: usize,
        /// Maximal fail-prone sets (canonicalized: an antichain, sorted).
        sets: Vec<ProcessSet>,
    },
    /// Trust is placed only in `slice` (a Ripple UNL / simple Stellar slice):
    /// every process outside `slice` may fail, plus up to `f` members of
    /// `slice`. Maximal sets are `(P ∖ slice) ∪ C` for each `f`-subset `C` of
    /// `slice`.
    SliceThreshold {
        /// Number of processes in the system.
        n: usize,
        /// The trusted slice.
        slice: ProcessSet,
        /// Maximum number of slice members that may fail.
        f: usize,
    },
}

impl FailProneSystem {
    /// Creates the threshold fail-prone system tolerating `f` out of `n`
    /// failures.
    ///
    /// # Panics
    ///
    /// Panics if `f >= n`.
    pub fn threshold(n: usize, f: usize) -> Self {
        assert!(f < n, "threshold fail-prone system needs f < n (got f={f}, n={n})");
        FailProneSystem::Threshold { n, f }
    }

    /// Creates an explicit fail-prone system from arbitrary sets.
    ///
    /// Non-maximal sets are dropped (the system is the downward closure of its
    /// maximal elements).
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::Empty`] if no set is given, and
    /// [`QuorumError::OutOfRange`] if a set mentions a process `≥ n`.
    pub fn explicit(n: usize, mut sets: Vec<ProcessSet>) -> Result<Self, QuorumError> {
        if sets.is_empty() {
            return Err(QuorumError::Empty);
        }
        for s in &sets {
            if s.max_id().is_some_and(|m| m.index() >= n) {
                return Err(QuorumError::OutOfRange { set: s.clone(), n });
            }
        }
        retain_maximal(&mut sets);
        Ok(FailProneSystem::Explicit { n, sets })
    }

    /// Creates the slice-threshold fail-prone system: everything outside
    /// `slice` may fail, plus at most `f` members of `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice` reaches outside the universe or `f >= |slice|`.
    pub fn slice_threshold(n: usize, slice: ProcessSet, f: usize) -> Self {
        assert!(
            slice.max_id().is_some_and(|m| m.index() < n),
            "slice must be non-empty and within the universe"
        );
        assert!(f < slice.len(), "slice threshold needs f < |slice|");
        FailProneSystem::SliceThreshold { n, slice, f }
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        match self {
            FailProneSystem::Threshold { n, .. }
            | FailProneSystem::Explicit { n, .. }
            | FailProneSystem::SliceThreshold { n, .. } => *n,
        }
    }

    /// Returns `true` if `faulty ∈ F*`, i.e. the system *foresees* this set of
    /// failures (some fail-prone set contains it).
    pub fn covers(&self, faulty: &ProcessSet) -> bool {
        match self.view() {
            View::Slice(s) => {
                s.count(faulty) <= s.t && faulty.max_id().is_none_or(|m| m.index() < self.n())
            }
            View::Explicit(sets) => sets.iter().any(|s| faulty.is_subset(s)),
        }
    }

    /// Returns the maximal fail-prone sets.
    ///
    /// For threshold and slice-threshold systems this *enumerates* all
    /// `C(|S|, f)` sets, for inspection and tests. Validation does not need
    /// it: B³, consistency and availability have closed forms over the slice
    /// and enumerate only where an `Explicit` system is involved (or, for
    /// consistency, a quorum slice that differs from its fail-prone slice).
    pub fn maximal_sets(&self) -> Vec<ProcessSet> {
        self.view().maximal_sets().into_owned()
    }

    /// Checks the Q³ condition: no three fail-prone sets cover `P`.
    ///
    /// Q³ is necessary and sufficient for a Byzantine quorum system tolerating
    /// this fail-prone system to exist (Malkhi–Reiter).
    pub fn satisfies_q3(&self) -> bool {
        self.q3_violation().is_none()
    }

    /// Returns a witness of a Q³ violation, or `None` if Q³ holds.
    pub fn q3_violation(&self) -> Option<[ProcessSet; 3]> {
        match self.view() {
            View::Slice(s) => s.q3_violation(),
            View::Explicit(sets) => {
                let full = ProcessSet::full(self.n());
                for a in sets {
                    for b in sets {
                        let ab = a.union(b);
                        for c in sets {
                            if ab.union(c) == full {
                                return Some([a.clone(), b.clone(), c.clone()]);
                            }
                        }
                    }
                }
                None
            }
        }
    }

    /// Returns the canonical quorum system: the complements of the maximal
    /// fail-prone sets.
    ///
    /// For a threshold system `f`-of-`n` this is the `(n−f)`-of-`n` quorum
    /// system used by classic BFT protocols.
    pub fn canonical_quorums(&self) -> QuorumSystem {
        match self {
            FailProneSystem::Threshold { n, f } => QuorumSystem::Threshold { n: *n, q: n - f },
            FailProneSystem::Explicit { n, sets } => {
                let mut quorums: Vec<ProcessSet> = sets.iter().map(|s| s.complement(*n)).collect();
                retain_minimal(&mut quorums);
                QuorumSystem::Explicit { n: *n, quorums }
            }
            FailProneSystem::SliceThreshold { n, slice, f } => {
                QuorumSystem::SliceThreshold { n: *n, slice: slice.clone(), q: slice.len() - f }
            }
        }
    }
}

/// A symmetric Byzantine quorum system: a collection of quorums, identified
/// with the antichain of its *minimal* elements (any superset of a quorum is a
/// quorum).
///
/// # Examples
///
/// ```
/// use asym_quorum::{ProcessSet, QuorumSystem};
///
/// // Classic n=4, f=1: quorums are all sets of ≥ 3 processes.
/// let qs = QuorumSystem::threshold(4, 3);
/// assert!(qs.contains_quorum(&ProcessSet::from_indices([0, 1, 3])));
/// assert!(!qs.contains_quorum(&ProcessSet::from_indices([0, 1])));
/// // A kernel must intersect every quorum: any 2 processes suffice here.
/// assert!(qs.is_kernel(&ProcessSet::from_indices([1, 2])));
/// assert!(!qs.is_kernel(&ProcessSet::from_indices([1])));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuorumSystem {
    /// Quorums are all subsets of size at least `q`.
    Threshold {
        /// Number of processes in the system.
        n: usize,
        /// Minimum quorum cardinality.
        q: usize,
    },
    /// An explicit antichain of minimal quorums.
    Explicit {
        /// Number of processes in the system.
        n: usize,
        /// Minimal quorums (canonicalized: an antichain, sorted).
        quorums: Vec<ProcessSet>,
    },
    /// Quorums are all subsets of `slice` of size at least `q` (the canonical
    /// quorum system of [`FailProneSystem::SliceThreshold`]).
    SliceThreshold {
        /// Number of processes in the system.
        n: usize,
        /// The trusted slice.
        slice: ProcessSet,
        /// Minimum number of slice members forming a quorum.
        q: usize,
    },
}

impl QuorumSystem {
    /// Creates the threshold quorum system whose quorums are all sets of at
    /// least `q` processes.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0` or `q > n`.
    pub fn threshold(n: usize, q: usize) -> Self {
        assert!(q >= 1 && q <= n, "threshold quorum size must satisfy 1 ≤ q ≤ n");
        QuorumSystem::Threshold { n, q }
    }

    /// Creates an explicit quorum system from arbitrary quorums; non-minimal
    /// quorums are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::Empty`] if no quorum is given,
    /// [`QuorumError::OutOfRange`] if a quorum mentions a process `≥ n`, and
    /// [`QuorumError::EmptyQuorum`] if the empty set is given as a quorum.
    pub fn explicit(n: usize, mut quorums: Vec<ProcessSet>) -> Result<Self, QuorumError> {
        if quorums.is_empty() {
            return Err(QuorumError::Empty);
        }
        for q in &quorums {
            if q.is_empty() {
                return Err(QuorumError::EmptyQuorum { process: ProcessId::new(0) });
            }
            if q.max_id().is_some_and(|m| m.index() >= n) {
                return Err(QuorumError::OutOfRange { set: q.clone(), n });
            }
        }
        retain_minimal(&mut quorums);
        Ok(QuorumSystem::Explicit { n, quorums })
    }

    /// Creates the slice-threshold quorum system whose quorums are all
    /// subsets of `slice` with at least `q` members.
    ///
    /// # Panics
    ///
    /// Panics if `slice` reaches outside the universe or `q` is not in
    /// `1..=|slice|`.
    pub fn slice_threshold(n: usize, slice: ProcessSet, q: usize) -> Self {
        assert!(
            slice.max_id().is_some_and(|m| m.index() < n),
            "slice must be non-empty and within the universe"
        );
        assert!(q >= 1 && q <= slice.len(), "slice quorum size must satisfy 1 ≤ q ≤ |slice|");
        QuorumSystem::SliceThreshold { n, slice, q }
    }

    /// Number of processes in the system.
    pub fn n(&self) -> usize {
        match self {
            QuorumSystem::Threshold { n, .. }
            | QuorumSystem::Explicit { n, .. }
            | QuorumSystem::SliceThreshold { n, .. } => *n,
        }
    }

    /// Size of the smallest quorum (`c(Q)` in the paper's Lemma 4.4).
    pub fn min_quorum_size(&self) -> usize {
        match self.view() {
            View::Slice(s) => s.t,
            View::Explicit(quorums) => quorums.iter().map(ProcessSet::len).min().unwrap_or(0),
        }
    }

    /// Returns `true` if `observed` contains some quorum.
    ///
    /// This is the protocols' round-advancement test `∃Q ∈ Q_i: Q ⊆ observed`.
    /// Only members of the universe (or of the slice) count.
    pub fn contains_quorum(&self, observed: &ProcessSet) -> bool {
        match self.view() {
            View::Slice(s) => s.count(observed) >= s.t,
            View::Explicit(quorums) => quorums.iter().any(|qs| qs.is_subset(observed)),
        }
    }

    /// Returns some quorum contained in `observed`, if any.
    pub fn find_quorum(&self, observed: &ProcessSet) -> Option<ProcessSet> {
        match self.view() {
            View::Slice(s) => s.find_quorum(observed),
            View::Explicit(quorums) => quorums.iter().find(|qs| qs.is_subset(observed)).cloned(),
        }
    }

    /// Returns `true` if `observed` intersects *every* quorum, i.e. contains a
    /// kernel (the protocols' amplification test `∃K ∈ K_i: K ⊆ observed`).
    pub fn is_kernel(&self, observed: &ProcessSet) -> bool {
        match self.view() {
            View::Slice(s) => s.count(observed) > s.len() - s.t,
            View::Explicit(quorums) => quorums.iter().all(|qs| qs.intersects(observed)),
        }
    }

    /// Enumerates the minimal quorums.
    ///
    /// For threshold and slice-threshold systems this enumerates `C(|A|, q)`
    /// sets, for inspection and tests. Validation does not need it:
    /// consistency and availability have closed forms over the slice and
    /// enumerate only where an `Explicit` system is involved (or, for
    /// consistency, a quorum slice that differs from its fail-prone slice).
    pub fn minimal_quorums(&self) -> Vec<ProcessSet> {
        self.view().minimal_quorums().into_owned()
    }

    /// Computes the minimal kernels (minimal hitting sets of the quorums).
    ///
    /// Exponential in general; intended for inspection and tests on small
    /// systems. For threshold and slice systems the closed form (all
    /// `(|A|−q+1)`-subsets of the slice `A`) is returned without search.
    pub fn minimal_kernels(&self) -> Vec<ProcessSet> {
        match self.view() {
            View::Slice(s) => s.minimal_kernels(),
            View::Explicit(quorums) => minimal_hitting_sets(quorums),
        }
    }

    /// Checks quorum **consistency** against a fail-prone system: any two
    /// quorums intersect in at least one process outside every common
    /// fail-prone set.
    ///
    /// This is the `i = j` case of [`AsymQuorumSystem::check_consistency`]:
    /// for a threshold or slice system whose quorum slice `A` equals the
    /// fail-prone slice `S`, two quorums share at least `2q − |S|` members of
    /// `S`, and a set inside `S` is fail-prone iff it has at most `f`
    /// members, so consistency fails iff `max(0, 2q − |S|) ≤ f`. Other
    /// combinations enumerate minimal quorums and maximal fail-prone sets.
    ///
    /// [`AsymQuorumSystem::check_consistency`]: crate::AsymQuorumSystem::check_consistency
    ///
    /// # Errors
    ///
    /// Returns the violating pair and fail-prone set on failure.
    pub fn check_consistency(&self, fps: &FailProneSystem) -> Result<(), QuorumError> {
        let (quorums, fail_prone) = (self.view(), fps.view());
        match slice_view::consistency_violation(&quorums, &fail_prone, &quorums, &fail_prone) {
            None => Ok(()),
            Some([qi, qj, fij]) => Err(QuorumError::ConsistencyViolation {
                i: ProcessId::new(0),
                j: ProcessId::new(0),
                qi,
                qj,
                fij,
            }),
        }
    }

    /// Checks quorum **availability** against a fail-prone system: for every
    /// fail-prone set there is a disjoint quorum.
    ///
    /// For a threshold or slice system `(A, q)` against `(S, f)`, a quorum
    /// avoiding `(P ∖ S) ∪ C` lies in `(A ∩ S) ∖ C`, and the worst `C` takes
    /// `f` members of `A ∩ S`: availability fails iff `|A ∩ S| < q + f`
    /// (iff `q + f > |S|` when `A = S`). Explicit systems are enumerated.
    ///
    /// # Errors
    ///
    /// Returns the fail-prone set no quorum avoids on failure.
    pub fn check_availability(&self, fps: &FailProneSystem) -> Result<(), QuorumError> {
        match slice_view::availability_violation(&self.view(), &fps.view()) {
            None => Ok(()),
            Some(fail_prone) => {
                Err(QuorumError::AvailabilityViolation { process: ProcessId::new(0), fail_prone })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set(ids: &[usize]) -> ProcessSet {
        ProcessSet::from_indices(ids.iter().copied())
    }

    #[test]
    fn threshold_covers() {
        let fps = FailProneSystem::threshold(7, 2);
        assert!(fps.covers(&ProcessSet::new()));
        assert!(fps.covers(&set(&[0, 6])));
        assert!(!fps.covers(&set(&[0, 1, 2])));
        assert!(!fps.covers(&set(&[7])), "out-of-universe processes are not covered");
    }

    #[test]
    fn explicit_covers_downward_closure() {
        let fps = FailProneSystem::explicit(5, vec![set(&[0, 1]), set(&[3])]).unwrap();
        assert!(fps.covers(&set(&[0])));
        assert!(fps.covers(&set(&[0, 1])));
        assert!(fps.covers(&set(&[3])));
        assert!(!fps.covers(&set(&[0, 3])));
    }

    #[test]
    fn explicit_canonicalizes_to_maximal_antichain() {
        let fps =
            FailProneSystem::explicit(5, vec![set(&[0]), set(&[0, 1]), set(&[0, 1])]).unwrap();
        assert_eq!(fps.maximal_sets(), vec![set(&[0, 1])]);
    }

    #[test]
    fn q3_threshold() {
        assert!(FailProneSystem::threshold(4, 1).satisfies_q3());
        assert!(FailProneSystem::threshold(7, 2).satisfies_q3());
        assert!(!FailProneSystem::threshold(6, 2).satisfies_q3());
        assert!(!FailProneSystem::threshold(3, 1).satisfies_q3());
        // Violation witnesses actually cover P with fail-prone sets.
        let fps = FailProneSystem::threshold(6, 2);
        let w = fps.q3_violation().unwrap();
        let union = w[0].union(&w[1]).union(&w[2]);
        assert_eq!(union, ProcessSet::full(6));
        for s in &w {
            assert!(fps.covers(s));
        }
    }

    #[test]
    fn q3_explicit() {
        let good =
            FailProneSystem::explicit(4, vec![set(&[0]), set(&[1]), set(&[2]), set(&[3])]).unwrap();
        assert!(good.satisfies_q3());
        let bad = FailProneSystem::explicit(3, vec![set(&[0]), set(&[1]), set(&[2])]).unwrap();
        assert!(!bad.satisfies_q3());
    }

    #[test]
    fn canonical_quorums_threshold() {
        let fps = FailProneSystem::threshold(4, 1);
        let qs = fps.canonical_quorums();
        assert_eq!(qs.min_quorum_size(), 3);
        assert!(qs.check_consistency(&fps).is_ok());
        assert!(qs.check_availability(&fps).is_ok());
    }

    #[test]
    fn canonical_quorums_explicit_are_complements() {
        let fps = FailProneSystem::explicit(4, vec![set(&[0]), set(&[1, 2])]).unwrap();
        let qs = fps.canonical_quorums();
        assert_eq!(qs.minimal_quorums(), vec![set(&[0, 3]), set(&[1, 2, 3])],);
    }

    #[test]
    fn quorum_membership_and_kernels_threshold() {
        let qs = QuorumSystem::threshold(4, 3);
        assert!(qs.contains_quorum(&set(&[0, 1, 2])));
        assert!(qs.contains_quorum(&set(&[0, 1, 2, 3])));
        assert!(!qs.contains_quorum(&set(&[0, 1])));
        let q = qs.find_quorum(&set(&[0, 1, 2, 3])).unwrap();
        assert_eq!(q.len(), 3);
        // kernel size n - q + 1 = 2
        assert!(qs.is_kernel(&set(&[0, 3])));
        assert!(!qs.is_kernel(&set(&[3])));
        assert_eq!(qs.minimal_kernels().len(), 6);
    }

    #[test]
    fn quorum_membership_explicit() {
        let qs = QuorumSystem::explicit(4, vec![set(&[0, 1]), set(&[2, 3])]).unwrap();
        assert!(qs.contains_quorum(&set(&[0, 1, 2])));
        assert!(!qs.contains_quorum(&set(&[0, 2])));
        assert_eq!(qs.find_quorum(&set(&[2, 3])), Some(set(&[2, 3])));
        // Kernels must hit both {0,1} and {2,3}.
        assert!(qs.is_kernel(&set(&[1, 2])));
        assert!(!qs.is_kernel(&set(&[0, 1])));
        let kernels = qs.minimal_kernels();
        assert_eq!(kernels.len(), 4);
        assert!(kernels.contains(&set(&[0, 2])));
    }

    #[test]
    fn consistency_availability_thresholds() {
        // n = 3f + 1, q = 2f + 1 is consistent and available.
        for f in 1..6 {
            let n = 3 * f + 1;
            let fps = FailProneSystem::threshold(n, f);
            let qs = QuorumSystem::threshold(n, 2 * f + 1);
            assert!(qs.check_consistency(&fps).is_ok(), "f={f}");
            assert!(qs.check_availability(&fps).is_ok(), "f={f}");
        }
        // Quorums too small: inconsistent.
        let fps = FailProneSystem::threshold(4, 1);
        let qs = QuorumSystem::threshold(4, 2);
        assert!(matches!(
            qs.check_consistency(&fps),
            Err(QuorumError::ConsistencyViolation { .. })
        ));
        // Quorums too large: unavailable.
        let qs = QuorumSystem::threshold(4, 4);
        assert!(matches!(
            qs.check_availability(&fps),
            Err(QuorumError::AvailabilityViolation { .. })
        ));
    }

    #[test]
    fn explicit_constructor_validation() {
        assert_eq!(QuorumSystem::explicit(3, vec![]), Err(QuorumError::Empty));
        assert!(matches!(
            QuorumSystem::explicit(3, vec![ProcessSet::new()]),
            Err(QuorumError::EmptyQuorum { .. })
        ));
        assert!(matches!(
            QuorumSystem::explicit(3, vec![set(&[5])]),
            Err(QuorumError::OutOfRange { .. })
        ));
        assert!(matches!(
            FailProneSystem::explicit(3, vec![set(&[5])]),
            Err(QuorumError::OutOfRange { .. })
        ));
    }

    #[test]
    fn threshold_explicit_agree() {
        // The implicit threshold representation must agree with the explicit
        // enumeration of the same system.
        let t = QuorumSystem::threshold(5, 3);
        let e = QuorumSystem::explicit(5, t.minimal_quorums()).unwrap();
        let fps_t = FailProneSystem::threshold(5, 1);
        let fps_e = FailProneSystem::explicit(5, fps_t.maximal_sets()).unwrap();
        assert_eq!(fps_t.satisfies_q3(), fps_e.satisfies_q3());
        assert_eq!(t.check_consistency(&fps_t).is_ok(), e.check_consistency(&fps_e).is_ok());
        assert_eq!(t.check_availability(&fps_t).is_ok(), e.check_availability(&fps_e).is_ok());
    }

    #[test]
    fn slice_threshold_membership() {
        // Slice {1,2,3,4,5} with f=1 → quorums are 4-subsets of the slice.
        let slice = set(&[1, 2, 3, 4, 5]);
        let fps = FailProneSystem::slice_threshold(8, slice.clone(), 1);
        assert!(fps.covers(&set(&[0, 6, 7, 3])), "outside + 1 slice member");
        assert!(!fps.covers(&set(&[2, 3])), "two slice members exceed f");
        let qs = fps.canonical_quorums();
        assert_eq!(qs.min_quorum_size(), 4);
        assert!(qs.contains_quorum(&set(&[1, 2, 3, 4])));
        assert!(!qs.contains_quorum(&set(&[0, 1, 2, 6, 7])), "outside processes don't count");
        assert_eq!(qs.find_quorum(&set(&[0, 1, 2, 3, 4])), Some(set(&[1, 2, 3, 4])));
        // Kernel: |slice| - q + 1 = 2 slice members.
        assert!(qs.is_kernel(&set(&[3, 5])));
        assert!(!qs.is_kernel(&set(&[3, 0, 6])));
        assert!(qs.check_consistency(&fps).is_ok());
        assert!(qs.check_availability(&fps).is_ok());
    }

    #[test]
    fn slice_threshold_q3() {
        let slice = set(&[0, 1, 2, 3]);
        assert!(FailProneSystem::slice_threshold(6, slice.clone(), 1).satisfies_q3());
        let fps = FailProneSystem::slice_threshold(6, set(&[0, 1, 2]), 1);
        assert!(!fps.satisfies_q3());
        let w = fps.q3_violation().unwrap();
        let union = w[0].union(&w[1]).union(&w[2]);
        assert_eq!(union, ProcessSet::full(6));
        for s in &w {
            assert!(fps.covers(s), "witness {s} not fail-prone");
        }
    }

    #[test]
    fn slice_threshold_maximal_sets() {
        let fps = FailProneSystem::slice_threshold(5, set(&[0, 1, 2]), 1);
        let max = fps.maximal_sets();
        assert_eq!(max.len(), 3);
        assert!(max.contains(&set(&[0, 3, 4])));
        assert!(max.contains(&set(&[1, 3, 4])));
        assert!(max.contains(&set(&[2, 3, 4])));
    }

    #[test]
    fn slice_threshold_agrees_with_explicit() {
        let slice = set(&[1, 3, 4]);
        let st = QuorumSystem::slice_threshold(6, slice, 2);
        let ex = QuorumSystem::explicit(6, st.minimal_quorums()).unwrap();
        for bits in 0..64usize {
            let obs: ProcessSet = (0..6).filter(|i| bits & (1 << i) != 0).collect();
            assert_eq!(st.contains_quorum(&obs), ex.contains_quorum(&obs), "{obs}");
            assert_eq!(st.is_kernel(&obs), ex.is_kernel(&obs), "{obs}");
        }
    }

    proptest! {
        #[test]
        fn prop_threshold_and_explicit_membership_agree(
            n in 3usize..8,
            q in 1usize..8,
            observed in proptest::collection::vec(0usize..8, 0..8),
        ) {
            prop_assume!(q <= n);
            let t = QuorumSystem::threshold(n, q);
            let e = QuorumSystem::explicit(n, t.minimal_quorums()).unwrap();
            let obs: ProcessSet = observed.into_iter().filter(|i| *i < n).collect();
            prop_assert_eq!(t.contains_quorum(&obs), e.contains_quorum(&obs));
            prop_assert_eq!(t.is_kernel(&obs), e.is_kernel(&obs));
        }

        #[test]
        fn prop_kernel_iff_hits_all_quorums(
            n in 3usize..7,
            q in 2usize..7,
            observed in proptest::collection::vec(0usize..7, 0..7),
        ) {
            prop_assume!(q <= n);
            let qs = QuorumSystem::threshold(n, q);
            let obs: ProcessSet = observed.into_iter().filter(|i| *i < n).collect();
            let hits_all = qs.minimal_quorums().iter().all(|quorum| quorum.intersects(&obs));
            prop_assert_eq!(qs.is_kernel(&obs), hits_all);
        }
    }
}
