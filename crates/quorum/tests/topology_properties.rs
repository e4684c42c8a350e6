//! Property-based coverage of the seeded topology generators: everything
//! `random_slices` emits satisfies the quorum-system consistency
//! precondition, and generation is a pure function of its seed — the
//! guarantee the scenario matrix relies on to make failing cells
//! reproducible.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use asym_quorum::topology::{self, TopologySpec};
use asym_quorum::{maximal_guild, AsymFailProneSystem, FailProneSystem, ProcessId, ProcessSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever `random_slices` returns satisfies B³ and the
    /// consistency/availability preconditions of an asymmetric quorum
    /// system — for arbitrary (n, slice, f, seed) draws.
    #[test]
    fn random_slices_satisfy_consistency_precondition(
        n in 4usize..25,
        extra in 0usize..3,
        f in 1usize..4,
        seed in 0u64..5000,
    ) {
        // Keep the slice large relative to n so B³ systems exist to be found.
        let slice = (3 * n).div_ceil(4) + extra;
        prop_assume!(slice <= n && f < slice);
        let Some(t) = topology::random_slices(n, slice, f, seed, 50) else {
            // No B³ system within the attempt budget is a legal outcome.
            return Ok(());
        };
        prop_assert!(t.fail_prone.satisfies_b3(), "{}: B3 violated", t.name);
        prop_assert!(t.quorums.check_consistency(&t.fail_prone).is_ok(), "{}", t.name);
        prop_assert!(t.quorums.check_availability(&t.fail_prone).is_ok(), "{}", t.name);
        prop_assert_eq!(t.n(), n);
    }

    /// Same seed ⇒ identical topology, bit for bit; and the `TopologySpec`
    /// wrapper rebuilds the same system the direct call produces.
    #[test]
    fn random_slices_deterministic_per_seed(
        n in 5usize..9,
        seed in 0u64..5000,
    ) {
        let slice = (3 * n).div_ceil(4);
        let a = topology::random_slices(n, slice, 1, seed, 50);
        let b = topology::random_slices(n, slice, 1, seed, 50);
        prop_assert_eq!(a.is_some(), b.is_some());
        if let (Some(a), Some(b)) = (a, b) {
            prop_assert_eq!(&a.fail_prone, &b.fail_prone, "seed {} not deterministic", seed);
            prop_assert_eq!(&a.quorums, &b.quorums);
            let via_spec = TopologySpec::RandomSlices { n, slice, f: 1, seed }
                .build()
                .expect("direct call succeeded");
            prop_assert_eq!(&via_spec.fail_prone, &a.fail_prone);
        }
    }

    /// `random_faulty` respects its cardinality bound and the process-id
    /// range, and is deterministic given the RNG state.
    #[test]
    fn random_faulty_bounded_and_deterministic(
        n in 1usize..20,
        max_faulty in 0usize..6,
        seed in 0u64..5000,
    ) {
        let draw = |s| {
            let mut rng = SmallRng::seed_from_u64(s);
            (0..8).map(|_| topology::random_faulty(n, max_faulty, &mut rng))
                .collect::<Vec<ProcessSet>>()
        };
        let sets = draw(seed);
        for f in &sets {
            prop_assert!(f.len() <= max_faulty.min(n));
            prop_assert!(f.max_id().is_none_or(|m| m.index() < n));
        }
        prop_assert_eq!(sets, draw(seed), "same rng seed must redraw the same sets");
    }

    /// Generated random topologies work with the guild machinery: failing
    /// nobody always leaves the full process set as the maximal guild.
    #[test]
    fn random_slices_fault_free_guild_is_everyone(
        n in 5usize..9,
        seed in 0u64..1000,
    ) {
        let slice = (3 * n).div_ceil(4);
        let Some(t) = topology::random_slices(n, slice, 1, seed, 50) else {
            return Ok(());
        };
        let guild = maximal_guild(&t.fail_prone, &t.quorums, &ProcessSet::new());
        prop_assert_eq!(guild, Some(ProcessSet::full(n)));
    }
}

/// The benchmark's asymmetric topology: 16 random slices of 12 with `f = 2`.
/// Enumerating it costs `C(12, 2)²` sets per process pair; the closed forms
/// build and validate it at once, even in the debug test profile.
#[test]
fn random_slices_n16_builds_and_validates() {
    let spec = TopologySpec::RandomSlices { n: 16, slice: 12, f: 2, seed: 11 };
    let t = spec.build().expect("seed 11 finds a valid n = 16 slice system");
    assert_eq!(t.n(), 16);
    assert!(t.fail_prone.satisfies_b3(), "{:?}", t.fail_prone.b3_violation());
    assert_eq!(t.quorums.validate(&t.fail_prone), Ok(()));
}

/// A non-uniform threshold system at n = 31: one process tolerates 5
/// failures, the others 10. B³ holds (10 + 10 + 10 < 31 and 5 + 10 + 5 < 31)
/// and the canonical quorums are valid. Enumeration would list `C(31, 10)`
/// fail-prone sets per process; the closed forms compare popcounts.
#[test]
fn non_uniform_threshold_n31_validates() {
    let mut systems = vec![FailProneSystem::threshold(31, 10); 31];
    systems[0] = FailProneSystem::threshold(31, 5);
    let fps = AsymFailProneSystem::new(systems).expect("well-formed");
    assert!(fps.satisfies_b3(), "{:?}", fps.b3_violation());
    let qs = fps.canonical_quorums();
    assert_eq!(qs.validate(&fps), Ok(()));
    assert_eq!(qs.of(ProcessId::new(0)).min_quorum_size(), 26);
    assert_eq!(qs.min_quorum_size(), 21);
    // One more tolerated failure at every process breaks B³ (11 · 3 ≥ 31)
    // and consistency of the canonical quorums (2 · 20 − 31 ≤ 11).
    let fps = AsymFailProneSystem::uniform(FailProneSystem::threshold(31, 11));
    assert!(!fps.satisfies_b3());
    assert!(fps.canonical_quorums().check_consistency(&fps).is_err());
}
