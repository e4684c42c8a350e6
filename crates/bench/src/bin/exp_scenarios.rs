//! SCN: the scenario-matrix sweep — topology × fault-plan × scheduler ×
//! seed, every cell audited by the full invariant-checker suite, with
//! commit-latency and message-count measurements per cell.
//!
//! Exits non-zero if any cell violates an invariant, printing the exact
//! `(topology, fault plan, scheduler, seed)` reproduction tuple.
//!
//! Every cell also has an outcome digest (a SHA-256 over its outputs,
//! commit logs, steps, final time and network counters). `--digest <file>`
//! writes one `cell-label  hex` line per cell, in matrix order;
//! `--check-digest <file>` compares the sweep against such a file and
//! exits non-zero on any difference — the oracle that a change to the
//! simulator or the protocol left every execution bit-identical.
//!
//! ```bash
//! cargo run -p asym-bench --bin exp_scenarios            # full CI sweep
//! cargo run -p asym-bench --bin exp_scenarios -- --smoke # tier-1 subset
//! cargo run --release -p asym-bench --bin exp_scenarios -- --check-digest SWEEP_DIGEST
//! ```

use std::collections::BTreeMap;

use asym_bench::{render_table, Row};
use asym_scenarios::{CellStatus, Matrix};

/// The value following `flag` on the command line, if the flag is given.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    match args.get(i + 1) {
        Some(v) => Some(v.clone()),
        None => {
            eprintln!("{flag} needs a file argument");
            std::process::exit(2);
        }
    }
}

/// Lines of `expected` and `actual` that differ, as printable
/// `-expected` / `+actual` pairs (a missing line shows as `<none>`).
fn digest_diff(expected: &str, actual: &str) -> Vec<String> {
    let (exp, act): (Vec<_>, Vec<_>) = (expected.lines().collect(), actual.lines().collect());
    (0..exp.len().max(act.len()))
        .filter(|i| exp.get(*i) != act.get(*i))
        .map(|i| {
            format!(
                "line {}:\n  -{}\n  +{}",
                i + 1,
                exp.get(i).unwrap_or(&"<none>"),
                act.get(i).unwrap_or(&"<none>")
            )
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let write_digest = flag_value(&args, "--digest");
    let check_digest = flag_value(&args, "--check-digest");
    let expected_digest = check_digest.as_ref().map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read digest file {path}: {e}");
            std::process::exit(2);
        })
    });
    let matrix = if smoke { Matrix::smoke() } else { Matrix::full() };
    let label = if smoke { "smoke" } else { "full" };

    eprintln!(
        "SCN — {label} sweep: {} topologies × {} fault plans × {} schedulers × {} seeds",
        matrix.topologies.len(),
        matrix.fault_plans.len(),
        matrix.schedulers.len(),
        matrix.seeds.len(),
    );
    let report = matrix.run();

    // Aggregate seeds away: one row per (topology, fault plan, scheduler).
    #[derive(Default)]
    struct Agg {
        cells: u64,
        commits: u64,
        sent: u64,
        time: u64,
        ordered: u64,
    }
    let mut rows: BTreeMap<String, Agg> = BTreeMap::new();
    for (scenario, status) in &report.cells {
        if let CellStatus::Passed(stats) = status {
            let key =
                format!("{} | {} | {}", scenario.topology, scenario.faults, scenario.scheduler);
            let agg = rows.entry(key).or_default();
            agg.cells += 1;
            agg.commits += stats.commits as u64;
            agg.sent += stats.sent;
            agg.time += stats.time;
            agg.ordered += stats.ordered;
        }
    }
    let table: Vec<Row> = rows
        .into_iter()
        .map(|(label, a)| Row {
            label,
            values: vec![
                ("seeds".into(), a.cells as f64),
                ("commits".into(), a.commits as f64 / a.cells as f64),
                ("ordered".into(), a.ordered as f64 / a.cells as f64),
                ("msgs".into(), a.sent as f64 / a.cells as f64),
                (
                    "time/commit".into(),
                    if a.commits > 0 { a.time as f64 / a.commits as f64 } else { f64::INFINITY },
                ),
            ],
        })
        .collect();
    println!(
        "{}",
        render_table(
            "SCN — scenario matrix: per-cell means over seeds (passed cells only).\n\
             commits = committed waves; time/commit = simulated time per committed wave",
            &table
        )
    );

    println!(
        "{} cells: {} passed, {} failed, {} unbuildable, {} unfit combinations skipped",
        report.cells.len(),
        report.passed(),
        report.failures().len(),
        report.unbuildable(),
        report.skipped_unfit
    );

    let listing = report.digest_listing();
    if let Some(path) = &write_digest {
        std::fs::write(path, &listing).unwrap_or_else(|e| {
            eprintln!("cannot write digest file {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote {} cell digests to {path}", report.cells.len());
    }
    let mut failed = false;
    if let (Some(path), Some(expected)) = (&check_digest, &expected_digest) {
        let diff = digest_diff(expected, &listing);
        if diff.is_empty() {
            println!("digest check: all {} cells match {path}", report.cells.len());
        } else {
            eprintln!("\nDIGEST MISMATCH against {path} ({} lines differ):", diff.len());
            for d in &diff {
                eprintln!("{d}");
            }
            failed = true;
        }
    }

    let failures = report.failures();
    if !failures.is_empty() {
        eprintln!("\nFAILING CELLS ({}):", failures.len());
        for f in &failures {
            eprintln!("{f}\n");
        }
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
