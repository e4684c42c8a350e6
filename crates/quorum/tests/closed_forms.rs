//! Oracle for the closed-form trust algebra: on random mixed threshold and
//! slice-threshold systems, B³, consistency and availability must give the
//! same verdict as the enumeration of the *same* systems expanded to
//! `Explicit`, and every witness a violation returns must satisfy the
//! definition it claims to violate (Definitions 2.1 and 2.3).
//!
//! The quorum systems are drawn canonical (`A_i = S_i`, `q_i = |S_i| − f_i`),
//! with a non-canonical `q_i` over `A_i = S_i`, and with a quorum slice that
//! differs from the fail-prone slice (`A_i ≠ S_i`), which the checks
//! enumerate.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use asym_quorum::{
    AsymFailProneSystem, AsymQuorumSystem, FailProneSystem, ProcessId, ProcessSet, QuorumError,
    QuorumSystem,
};

/// How the quorum systems of one drawn case relate to its fail-prone systems.
#[derive(Clone, Copy, Debug)]
enum Style {
    Canonical,
    NonCanonicalQ,
    Mismatched,
}

fn random_slice(rng: &mut SmallRng, n: usize, min_len: usize) -> ProcessSet {
    let len = rng.random_range(min_len..=n);
    let mut ids: Vec<usize> = (0..n).collect();
    ids.shuffle(rng);
    ids.into_iter().take(len).collect()
}

/// A threshold or slice-threshold fail-prone system: a large slice and
/// usually `f < |S| / 3`, sometimes up to 3, so that both B³ verdicts occur.
fn random_fail_prone(rng: &mut SmallRng, n: usize) -> FailProneSystem {
    let slice = random_slice(rng, n, (3 * n).div_ceil(4));
    let len = slice.len();
    let f_max = if rng.random_range(0..4usize) == 0 { (len - 1).min(3) } else { (len - 1) / 3 };
    let f = rng.random_range(0..=f_max);
    if len == n && rng.random_range(0..2usize) == 0 {
        FailProneSystem::threshold(n, f)
    } else {
        FailProneSystem::slice_threshold(n, slice, f)
    }
}

/// The slice (`None` = the whole universe) of a threshold or slice system.
fn slice_of(fps: &FailProneSystem) -> Option<&ProcessSet> {
    match fps {
        FailProneSystem::SliceThreshold { slice, .. } => Some(slice),
        _ => None,
    }
}

fn quorums_over(n: usize, slice: Option<ProcessSet>, q: usize) -> QuorumSystem {
    match slice {
        Some(s) => QuorumSystem::slice_threshold(n, s, q),
        None => QuorumSystem::threshold(n, q),
    }
}

/// A quorum size near the canonical `|A| − f`, within `1..=|A|`.
fn near(rng: &mut SmallRng, canonical: usize, len: usize) -> usize {
    (canonical + rng.random_range(0..3usize)).saturating_sub(1).clamp(1, len)
}

fn random_quorums(rng: &mut SmallRng, style: Style, fps: &FailProneSystem) -> QuorumSystem {
    let n = fps.n();
    let slice = slice_of(fps).cloned();
    let f = match fps {
        FailProneSystem::Threshold { f, .. } | FailProneSystem::SliceThreshold { f, .. } => *f,
        FailProneSystem::Explicit { .. } => unreachable!("only threshold and slice systems"),
    };
    match style {
        Style::Canonical => fps.canonical_quorums(),
        Style::NonCanonicalQ => {
            let len = slice.as_ref().map_or(n, ProcessSet::len);
            let q = near(rng, len - f, len);
            quorums_over(n, slice, q)
        }
        // One process toggled in or out of the fail-prone slice (a threshold
        // system's universe becomes a slice), or, for a third of the
        // processes, the fail-prone slice itself.
        Style::Mismatched => {
            let mut a = slice.unwrap_or_else(|| ProcessSet::full(n));
            if rng.random_range(0..3usize) != 0 {
                let p = ProcessId::new(rng.random_range(0..n));
                if !a.remove(p) || a.is_empty() {
                    a.insert(p);
                }
            }
            let len = a.len();
            let q = near(rng, len.saturating_sub(f).max(1), len);
            quorums_over(n, (len < n).then_some(a), q)
        }
    }
}

fn explicit_fail_prone(s: &FailProneSystem) -> FailProneSystem {
    FailProneSystem::explicit(s.n(), s.maximal_sets()).expect("maximal sets are in range")
}

fn explicit_quorums(q: &QuorumSystem) -> QuorumSystem {
    QuorumSystem::explicit(q.n(), q.minimal_quorums()).expect("minimal quorums are non-empty")
}

/// Definition 2.3: `F_i ∪ F_j ∪ F_ij = P` with `F_i ∈ F_i*`, `F_j ∈ F_j*`
/// and `F_ij ∈ F_i* ∩ F_j*`, checked against the explicit systems.
fn assert_b3_witness(explicit: &AsymFailProneSystem, violation: &QuorumError) {
    let QuorumError::B3Violation { i, j, fi, fj, fij } = violation else {
        panic!("not a B3 violation: {violation:?}");
    };
    let n = explicit.n();
    assert_eq!(fi.union(fj).union(fij), ProcessSet::full(n), "{violation:?} does not cover P");
    assert!(explicit.of(*i).covers(fi), "{violation:?}: F_i not fail-prone for i");
    assert!(explicit.of(*j).covers(fj), "{violation:?}: F_j not fail-prone for j");
    assert!(explicit.of(*i).covers(fij), "{violation:?}: F_ij not fail-prone for i");
    assert!(explicit.of(*j).covers(fij), "{violation:?}: F_ij not fail-prone for j");
}

/// Definition 2.1 (consistency): `Q_i ∩ Q_j ⊆ F_ij` for quorums `Q_i`, `Q_j`
/// and a common fail-prone set `F_ij`.
fn assert_consistency_witness(
    quorums: [&QuorumSystem; 2],
    fail_prone: [&FailProneSystem; 2],
    violation: &QuorumError,
) {
    let QuorumError::ConsistencyViolation { qi, qj, fij, .. } = violation else {
        panic!("not a consistency violation: {violation:?}");
    };
    assert!(qi.intersection(qj).is_subset(fij), "{violation:?}: Q_i ∩ Q_j ⊄ F_ij");
    assert!(quorums[0].contains_quorum(qi), "{violation:?}: Q_i is no quorum of i");
    assert!(quorums[1].contains_quorum(qj), "{violation:?}: Q_j is no quorum of j");
    assert!(fail_prone[0].covers(fij), "{violation:?}: F_ij not fail-prone for i");
    assert!(fail_prone[1].covers(fij), "{violation:?}: F_ij not fail-prone for j");
}

/// Definition 2.1 (availability): the returned set is fail-prone and no
/// minimal quorum is disjoint from it.
fn assert_availability_witness(
    quorums: &QuorumSystem,
    fail_prone: &FailProneSystem,
    violation: &QuorumError,
) {
    let QuorumError::AvailabilityViolation { fail_prone: f, .. } = violation else {
        panic!("not an availability violation: {violation:?}");
    };
    assert!(fail_prone.covers(f), "{violation:?}: not fail-prone");
    assert!(
        quorums.minimal_quorums().iter().all(|q| q.intersects(f)),
        "{violation:?}: some quorum avoids it"
    );
}

#[test]
fn closed_forms_match_the_enumeration_of_the_same_explicit_systems() {
    let mut rng = SmallRng::seed_from_u64(0x0b3c);
    const CASES: usize = 3000;
    let (mut b3_held, mut inconsistent, mut unavailable) = (0, 0, 0);
    // Valid systems per style: each style must reach both verdicts.
    let mut valid = [0; 3];
    for case in 0..CASES {
        let n = rng.random_range(3..=9);
        let style = [Style::Canonical, Style::NonCanonicalQ, Style::Mismatched][case % 3];
        let fail: Vec<FailProneSystem> = (0..n).map(|_| random_fail_prone(&mut rng, n)).collect();
        let quo: Vec<QuorumSystem> =
            fail.iter().map(|f| random_quorums(&mut rng, style, f)).collect();
        let fps = AsymFailProneSystem::new(fail.clone()).unwrap();
        let qs = AsymQuorumSystem::new(quo.clone()).unwrap();
        let fps_e =
            AsymFailProneSystem::new(fail.iter().map(explicit_fail_prone).collect()).unwrap();
        let qs_e = AsymQuorumSystem::new(quo.iter().map(explicit_quorums).collect()).unwrap();
        let ctx = format!("case {case} ({style:?}): {fps:?} / {qs:?}");

        let b3 = fps.b3_violation();
        assert_eq!(b3.is_none(), fps_e.satisfies_b3(), "B3 verdicts differ, {ctx}");
        match &b3 {
            Some(v) => assert_b3_witness(&fps_e, v),
            None => b3_held += 1,
        }

        let consistency = qs.check_consistency(&fps);
        assert_eq!(
            consistency.is_ok(),
            qs_e.check_consistency(&fps_e).is_ok(),
            "consistency verdicts differ, {ctx}"
        );
        if let Err(v) = &consistency {
            inconsistent += 1;
            let QuorumError::ConsistencyViolation { i, j, .. } = v else { panic!("{v:?}") };
            assert_consistency_witness([qs_e.of(*i), qs_e.of(*j)], [fps_e.of(*i), fps_e.of(*j)], v);
        }

        let availability = qs.check_availability(&fps);
        assert_eq!(
            availability.is_ok(),
            qs_e.check_availability(&fps_e).is_ok(),
            "availability verdicts differ, {ctx}"
        );
        if let Err(v) = &availability {
            unavailable += 1;
            let QuorumError::AvailabilityViolation { process, .. } = v else { panic!("{v:?}") };
            assert_availability_witness(qs_e.of(*process), fps_e.of(*process), v);
        }
        if consistency.is_ok() && availability.is_ok() {
            valid[style as usize] += 1;
        }

        // The symmetric checks are the i = j case of the same view.
        for p in (0..n).map(ProcessId::new) {
            let (q, f, q_e, f_e) = (qs.of(p), fps.of(p), qs_e.of(p), fps_e.of(p));
            let c = q.check_consistency(f);
            assert_eq!(c.is_ok(), q_e.check_consistency(f_e).is_ok(), "{p}: {ctx}");
            if let Err(v) = &c {
                assert_consistency_witness([q_e, q_e], [f_e, f_e], v);
            }
            let a = q.check_availability(f);
            assert_eq!(a.is_ok(), q_e.check_availability(f_e).is_ok(), "{p}: {ctx}");
            if let Err(v) = &a {
                assert_availability_witness(q_e, f_e, v);
            }
        }
    }
    // Every verdict must be well represented, or the oracle compares almost
    // nothing.
    assert!((CASES / 5..CASES * 4 / 5).contains(&b3_held), "B3 held in {b3_held}/{CASES}");
    assert!(inconsistent > CASES / 5, "inconsistent in {inconsistent}/{CASES}");
    assert!(unavailable > CASES / 20, "unavailable in {unavailable}/{CASES}");
    assert!(valid.iter().all(|v| *v > CASES / 60), "valid per style: {valid:?} of {CASES}");
}
