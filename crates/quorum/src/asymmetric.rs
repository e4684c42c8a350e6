//! Asymmetric fail-prone systems and asymmetric Byzantine quorum systems
//! (Damgård et al. / Alpos et al., paper §2.3).
//!
//! In the asymmetric model every process `p_i` carries its *own* fail-prone
//! system `F_i` and its own quorum system `Q_i`. Soundness is captured by two
//! global properties (Definition 2.1):
//!
//! * **Consistency** — any two quorums of any two processes intersect outside
//!   every fail-prone set common to both processes;
//! * **Availability** — every process has, for each of its fail-prone sets, a
//!   quorum disjoint from it.
//!
//! The **B³ condition** (Definition 2.3) on the fail-prone systems is
//! equivalent to the existence of an asymmetric quorum system (Theorem 2.4);
//! [`AsymFailProneSystem::canonical_quorums`] realizes the canonical witness.

use crate::slice_view::{self, View};
use crate::{FailProneSystem, ProcessId, ProcessSet, QuorumError, QuorumSystem};

/// An asymmetric fail-prone system `F = [F_1, …, F_n]`: one fail-prone system
/// per process, all over the same universe of `n` processes.
///
/// # Examples
///
/// ```
/// use asym_quorum::{AsymFailProneSystem, FailProneSystem};
///
/// // Every process uses the same 1-of-4 threshold assumption: the symmetric
/// // model embeds into the asymmetric one.
/// let fps = AsymFailProneSystem::uniform(FailProneSystem::threshold(4, 1));
/// assert!(fps.satisfies_b3());
/// let qs = fps.canonical_quorums();
/// assert!(qs.validate(&fps).is_ok());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsymFailProneSystem {
    systems: Vec<FailProneSystem>,
}

impl AsymFailProneSystem {
    /// Creates an asymmetric fail-prone system from one fail-prone system per
    /// process.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::Empty`] for an empty vector,
    /// [`QuorumError::MismatchedUniverse`] if the per-process systems disagree
    /// about `n`, and [`QuorumError::WrongLength`] if the number of systems is
    /// not `n`.
    pub fn new(systems: Vec<FailProneSystem>) -> Result<Self, QuorumError> {
        if systems.is_empty() {
            return Err(QuorumError::Empty);
        }
        let n = systems[0].n();
        for s in &systems {
            if s.n() != n {
                return Err(QuorumError::MismatchedUniverse { expected: n, got: s.n() });
            }
        }
        if systems.len() != n {
            return Err(QuorumError::WrongLength { expected: n, got: systems.len() });
        }
        Ok(AsymFailProneSystem { systems })
    }

    /// Creates the asymmetric system in which every process uses the same
    /// (symmetric) fail-prone system — the embedding of the threshold model.
    pub fn uniform(fps: FailProneSystem) -> Self {
        let n = fps.n();
        AsymFailProneSystem { systems: vec![fps; n] }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.systems.len()
    }

    /// The fail-prone system of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the universe.
    pub fn of(&self, p: ProcessId) -> &FailProneSystem {
        &self.systems[p.index()]
    }

    /// Iterates over `(process, fail-prone system)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &FailProneSystem)> {
        self.systems.iter().enumerate().map(|(i, s)| (ProcessId::new(i), s))
    }

    /// Returns `true` if process `p` *correctly foresees* the failure set
    /// `faulty`, i.e. `faulty ∈ F_p*`.
    pub fn foresees(&self, p: ProcessId, faulty: &ProcessSet) -> bool {
        self.of(p).covers(faulty)
    }

    /// Checks the **B³ condition** (Definition 2.3):
    /// `∀i,j, ∀F_i ∈ F_i, ∀F_j ∈ F_j, ∀F_ij ∈ F_i* ∩ F_j*: P ⊄ F_i ∪ F_j ∪ F_ij`.
    pub fn satisfies_b3(&self) -> bool {
        self.b3_violation().is_none()
    }

    /// Returns a witness of a B³ violation, or `None` if B³ holds.
    ///
    /// Threshold and slice-threshold systems are checked in closed form. View
    /// `F_i` as the slice `(S_i, f_i)`: it fails everything outside `S_i` plus
    /// up to `f_i` members of `S_i` (a threshold system is the slice `S = P`).
    /// Then `F_i ∪ F_j` covers `P ∖ (S_i ∩ S_j)` plus at most `f_i + f_j`
    /// members of `S_i ∩ S_j`, and the rest is a common fail-prone set iff it
    /// has at most `min(f_i, f_j)` members. So B³ fails for `(i, j)` iff
    /// `|S_i ∩ S_j| ≤ f_i + f_j + min(f_i, f_j)`, an allocation-free popcount.
    /// The witness takes `f_i`, then `f_j`, then the rest of `S_i ∩ S_j`, the
    /// first two united with the complement of their slice.
    ///
    /// A pair with an `Explicit` system enumerates: the maximal elements of
    /// `F_i* ∩ F_j*` are the pairwise intersections of maximal sets, so
    /// quantifying over those suffices.
    pub fn b3_violation(&self) -> Option<QuorumError> {
        let n = self.n();
        let full = ProcessSet::full(n);
        let views: Vec<View<'_>> = self.systems.iter().map(FailProneSystem::view).collect();
        for i in 0..n {
            for j in i..n {
                if let Some([fi, fj, fij]) = slice_view::b3_violation(&full, &views[i], &views[j]) {
                    return Some(QuorumError::B3Violation {
                        i: ProcessId::new(i),
                        j: ProcessId::new(j),
                        fi,
                        fj,
                        fij,
                    });
                }
            }
        }
        None
    }

    /// Returns the canonical asymmetric quorum system: for each process, the
    /// complements of its maximal fail-prone sets.
    ///
    /// By Theorem 2.4 this satisfies consistency and availability whenever B³
    /// holds.
    pub fn canonical_quorums(&self) -> AsymQuorumSystem {
        AsymQuorumSystem {
            systems: self.systems.iter().map(FailProneSystem::canonical_quorums).collect(),
        }
    }
}

/// An asymmetric Byzantine quorum system `Q = [Q_1, …, Q_n]` (Definition 2.1).
///
/// # Examples
///
/// ```
/// use asym_quorum::{AsymQuorumSystem, ProcessId, ProcessSet, QuorumSystem};
///
/// let qs = AsymQuorumSystem::uniform(QuorumSystem::threshold(4, 3));
/// let p0 = ProcessId::new(0);
/// assert!(qs.contains_quorum_for(p0, &ProcessSet::from_indices([1, 2, 3])));
/// assert!(qs.hits_kernel_for(p0, &ProcessSet::from_indices([0, 1])));
/// assert_eq!(qs.min_quorum_size(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsymQuorumSystem {
    systems: Vec<QuorumSystem>,
}

impl AsymQuorumSystem {
    /// Creates an asymmetric quorum system from one quorum system per process.
    ///
    /// # Errors
    ///
    /// Mirrors [`AsymFailProneSystem::new`].
    pub fn new(systems: Vec<QuorumSystem>) -> Result<Self, QuorumError> {
        if systems.is_empty() {
            return Err(QuorumError::Empty);
        }
        let n = systems[0].n();
        for s in &systems {
            if s.n() != n {
                return Err(QuorumError::MismatchedUniverse { expected: n, got: s.n() });
            }
        }
        if systems.len() != n {
            return Err(QuorumError::WrongLength { expected: n, got: systems.len() });
        }
        Ok(AsymQuorumSystem { systems })
    }

    /// Creates the asymmetric system in which every process uses the same
    /// quorum system — the embedding of the threshold model.
    pub fn uniform(qs: QuorumSystem) -> Self {
        let n = qs.n();
        AsymQuorumSystem { systems: vec![qs; n] }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.systems.len()
    }

    /// The quorum system of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the universe.
    pub fn of(&self, p: ProcessId) -> &QuorumSystem {
        &self.systems[p.index()]
    }

    /// Iterates over `(process, quorum system)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &QuorumSystem)> {
        self.systems.iter().enumerate().map(|(i, s)| (ProcessId::new(i), s))
    }

    /// `∃Q ∈ Q_p: Q ⊆ observed` — the round-advancement test of every
    /// protocol in the paper (written `Q_p |= observed` there).
    pub fn contains_quorum_for(&self, p: ProcessId, observed: &ProcessSet) -> bool {
        self.of(p).contains_quorum(observed)
    }

    /// Returns some quorum of `p` contained in `observed`, if any.
    pub fn find_quorum_for(&self, p: ProcessId, observed: &ProcessSet) -> Option<ProcessSet> {
        self.of(p).find_quorum(observed)
    }

    /// `∃K ∈ K_p: K ⊆ observed` — `observed` contains a kernel for `p`
    /// (equivalently: intersects every quorum of `p`). This is the
    /// Bracha-style amplification test.
    pub fn hits_kernel_for(&self, p: ProcessId, observed: &ProcessSet) -> bool {
        self.of(p).is_kernel(observed)
    }

    /// `∃Q ∈ Q_j for ANY process j: Q ⊆ observed` — used by the asymmetric
    /// DAG-Rider commit rule (Algorithm 6, line 148), which accepts a quorum
    /// of *any* participant.
    pub fn contains_quorum_for_any(
        &self,
        observed: &ProcessSet,
    ) -> Option<(ProcessId, ProcessSet)> {
        for (i, qs) in self.systems.iter().enumerate() {
            if let Some(q) = qs.find_quorum(observed) {
                return Some((ProcessId::new(i), q));
            }
        }
        None
    }

    /// Size of the smallest quorum of any process — `c(Q)` in Lemma 4.4.
    pub fn min_quorum_size(&self) -> usize {
        self.systems.iter().map(QuorumSystem::min_quorum_size).min().unwrap_or(0)
    }

    /// Checks asymmetric quorum **consistency** (Definition 2.1) against a
    /// fail-prone system:
    /// `∀i,j, ∀Q_i ∈ Q_i, ∀Q_j ∈ Q_j, ∀F_ij ∈ F_i* ∩ F_j*: Q_i ∩ Q_j ⊄ F_ij`.
    ///
    /// A pair of threshold or slice systems whose quorum slices equal their
    /// fail-prone slices (`A_i = S_i`, as [`AsymFailProneSystem::canonical_quorums`]
    /// and every topology generator produce) is checked in closed form. Then
    /// `Q_i ∩ Q_j ⊆ S_i ∩ S_j`, so it is a common fail-prone set iff it has at
    /// most `min(f_i, f_j)` members, and the smallest intersection of a
    /// `q_i`-subset of `S_i` and a `q_j`-subset of `S_j` has
    /// `max(0, q_i + q_j − |S_i ∪ S_j|)` members. So consistency fails for
    /// `(i, j)` iff `max(0, q_i + q_j − |S_i ∪ S_j|) ≤ min(f_i, f_j)`.
    ///
    /// Pairs with an `Explicit` system or with `A_i ≠ S_i` enumerate minimal
    /// quorums and maximal common fail-prone sets.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_consistency(&self, fps: &AsymFailProneSystem) -> Result<(), QuorumError> {
        let n = self.n();
        if n != fps.n() {
            return Err(QuorumError::MismatchedUniverse { expected: fps.n(), got: n });
        }
        let quorums: Vec<View<'_>> = self.systems.iter().map(QuorumSystem::view).collect();
        let fail_prone: Vec<View<'_>> = fps.systems.iter().map(FailProneSystem::view).collect();
        for i in 0..n {
            for j in i..n {
                if let Some([qi, qj, fij]) = slice_view::consistency_violation(
                    &quorums[i],
                    &fail_prone[i],
                    &quorums[j],
                    &fail_prone[j],
                ) {
                    return Err(QuorumError::ConsistencyViolation {
                        i: ProcessId::new(i),
                        j: ProcessId::new(j),
                        qi,
                        qj,
                        fij,
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks asymmetric quorum **availability** (Definition 2.1):
    /// `∀i, ∀F_i ∈ F_i: ∃Q_i ∈ Q_i: F_i ∩ Q_i = ∅`.
    ///
    /// A threshold or slice quorum system `(A_i, q_i)` against a threshold or
    /// slice fail-prone system `(S_i, f_i)` is checked in closed form: a quorum
    /// avoiding `(P ∖ S_i) ∪ C` lies in `(A_i ∩ S_i) ∖ C`, and the worst `C`
    /// takes `f_i` members of `A_i ∩ S_i`. So availability fails for `i` iff
    /// `|A_i ∩ S_i| < q_i + f_i`, which for `A_i = S_i` is `q_i + f_i > |S_i|`.
    /// `Explicit` systems are enumerated.
    ///
    /// # Errors
    ///
    /// Returns the first process/fail-prone set with no disjoint quorum.
    pub fn check_availability(&self, fps: &AsymFailProneSystem) -> Result<(), QuorumError> {
        let n = self.n();
        if n != fps.n() {
            return Err(QuorumError::MismatchedUniverse { expected: fps.n(), got: n });
        }
        for (i, (qs, fs)) in self.systems.iter().zip(&fps.systems).enumerate() {
            if let Some(fail_prone) = slice_view::availability_violation(&qs.view(), &fs.view()) {
                return Err(QuorumError::AvailabilityViolation {
                    process: ProcessId::new(i),
                    fail_prone,
                });
            }
        }
        Ok(())
    }

    /// Validates both defining properties against `fps`.
    ///
    /// # Errors
    ///
    /// Returns the first consistency or availability violation.
    pub fn validate(&self, fps: &AsymFailProneSystem) -> Result<(), QuorumError> {
        self.check_consistency(fps)?;
        self.check_availability(fps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[usize]) -> ProcessSet {
        ProcessSet::from_indices(ids.iter().copied())
    }

    #[test]
    fn constructor_validation() {
        assert_eq!(AsymFailProneSystem::new(vec![]), Err(QuorumError::Empty));
        let err = AsymFailProneSystem::new(vec![
            FailProneSystem::threshold(4, 1),
            FailProneSystem::threshold(5, 1),
        ]);
        assert!(matches!(err, Err(QuorumError::MismatchedUniverse { .. })));
        let err = AsymFailProneSystem::new(vec![FailProneSystem::threshold(4, 1); 3]);
        assert!(matches!(err, Err(QuorumError::WrongLength { expected: 4, got: 3 })));
        assert!(AsymFailProneSystem::new(vec![FailProneSystem::threshold(4, 1); 4]).is_ok());
    }

    #[test]
    fn uniform_threshold_b3_matches_n_gt_3f() {
        assert!(AsymFailProneSystem::uniform(FailProneSystem::threshold(4, 1)).satisfies_b3());
        assert!(AsymFailProneSystem::uniform(FailProneSystem::threshold(10, 3)).satisfies_b3());
        assert!(!AsymFailProneSystem::uniform(FailProneSystem::threshold(9, 3)).satisfies_b3());
        assert!(!AsymFailProneSystem::uniform(FailProneSystem::threshold(3, 1)).satisfies_b3());
    }

    #[test]
    fn mixed_threshold_b3() {
        // n = 10; one paranoid process (f=1), others f=3: fi+fj+min = 3+3+3=9 < 10 OK
        let mut systems = vec![FailProneSystem::threshold(10, 3); 10];
        systems[0] = FailProneSystem::threshold(10, 1);
        assert!(AsymFailProneSystem::new(systems).unwrap().satisfies_b3());
        // One reckless process (f=5): 5+3+3=11 ≥ 10 violates.
        let mut systems = vec![FailProneSystem::threshold(10, 3); 10];
        systems[0] = FailProneSystem::threshold(10, 5);
        let fps = AsymFailProneSystem::new(systems).unwrap();
        assert!(!fps.satisfies_b3());
        assert!(matches!(fps.b3_violation(), Some(QuorumError::B3Violation { .. })));
    }

    #[test]
    fn explicit_b3_with_witness() {
        // 3 processes, each believing only itself correct beyond one other:
        // F_i = {P \ {i}} — clearly violates B3.
        let systems: Vec<FailProneSystem> = (0..3)
            .map(|i| {
                FailProneSystem::explicit(3, vec![ProcessSet::full(3).difference(&set(&[i]))])
                    .unwrap()
            })
            .collect();
        let fps = AsymFailProneSystem::new(systems).unwrap();
        let v = fps.b3_violation().unwrap();
        if let QuorumError::B3Violation { fi, fj, fij, .. } = v {
            assert_eq!(fi.union(&fj).union(&fij), ProcessSet::full(3));
        } else {
            panic!("wrong violation type");
        }
    }

    #[test]
    fn canonical_quorums_of_threshold_valid() {
        let fps = AsymFailProneSystem::uniform(FailProneSystem::threshold(7, 2));
        let qs = fps.canonical_quorums();
        assert!(qs.validate(&fps).is_ok());
        assert_eq!(qs.min_quorum_size(), 5);
    }

    #[test]
    fn theorem_2_4_on_small_explicit_systems() {
        // B3 holds ⟹ canonical quorums are consistent + available.
        let mk = |sets: Vec<Vec<usize>>| {
            FailProneSystem::explicit(4, sets.into_iter().map(ProcessSet::from_indices).collect())
                .unwrap()
        };
        let systems = vec![
            mk(vec![vec![1], vec![2]]),
            mk(vec![vec![0], vec![3]]),
            mk(vec![vec![3]]),
            mk(vec![vec![0], vec![1]]),
        ];
        let fps = AsymFailProneSystem::new(systems).unwrap();
        assert!(fps.satisfies_b3());
        let qs = fps.canonical_quorums();
        assert!(qs.validate(&fps).is_ok());
    }

    #[test]
    fn consistency_violation_detected() {
        // Two processes with disjoint quorums.
        let q0 = QuorumSystem::explicit(4, vec![set(&[0, 1])]).unwrap();
        let q1 = QuorumSystem::explicit(4, vec![set(&[2, 3])]).unwrap();
        let qs = AsymQuorumSystem::new(vec![q0.clone(), q1, q0.clone(), q0]).unwrap();
        let fps = AsymFailProneSystem::uniform(
            FailProneSystem::explicit(4, vec![ProcessSet::new()]).unwrap(),
        );
        // Even with empty fail-prone sets, ∅ ⊆ F_ij = ∅ — disjoint quorums
        // intersect in ∅ ⊆ ∅, violating consistency.
        assert!(matches!(
            qs.check_consistency(&fps),
            Err(QuorumError::ConsistencyViolation { .. })
        ));
    }

    #[test]
    fn availability_violation_detected() {
        let q = QuorumSystem::explicit(3, vec![set(&[0, 1, 2])]).unwrap();
        let qs = AsymQuorumSystem::uniform(q);
        let fps =
            AsymFailProneSystem::uniform(FailProneSystem::explicit(3, vec![set(&[0])]).unwrap());
        assert!(matches!(
            qs.check_availability(&fps),
            Err(QuorumError::AvailabilityViolation { .. })
        ));
    }

    #[test]
    fn quorum_queries() {
        let qs = AsymQuorumSystem::uniform(QuorumSystem::threshold(4, 3));
        let p = ProcessId::new(1);
        assert!(qs.contains_quorum_for(p, &set(&[0, 1, 2])));
        assert!(qs.find_quorum_for(p, &set(&[0, 1])).is_none());
        let (j, q) = qs.contains_quorum_for_any(&set(&[1, 2, 3])).unwrap();
        assert_eq!(j, ProcessId::new(0));
        assert_eq!(q.len(), 3);
        assert!(qs.contains_quorum_for_any(&set(&[1, 2])).is_none());
    }

    #[test]
    fn uniform_threshold_consistency_fast_path() {
        let fps = AsymFailProneSystem::uniform(FailProneSystem::threshold(31, 10));
        let qs = fps.canonical_quorums();
        // Large n: must finish fast (closed form, no enumeration).
        assert!(qs.validate(&fps).is_ok());
    }
}
