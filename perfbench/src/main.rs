//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats one workload's execution until `--seconds` have passed, audits
//! every execution, checks that every execution of the seed has the same
//! fingerprint, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). The last line of standard output is
//! one JSON object; the exit code is non-zero if any execution failed.

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use asym_perfbench::alloc::CountingAlloc;
use asym_perfbench::harness::{self, Execution, Fingerprint};
use asym_perfbench::report::{self, QuorumTiming};
use asym_perfbench::trace::Trace;
use asym_perfbench::workload::{self, Size};
use asym_scenarios::ScenarioOutcome;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Untraced executions an end-to-end run makes at least, so every interval
/// of the fastest-repeat timeline has repeats to choose from; a traced run
/// needs one execution of each kind.
const MIN_EXECUTIONS: usize = 3;

/// Timed set-ups (topology included) every run makes at least.
const MIN_SETUPS: usize = 3;

/// Wall time spent on one batch of timed set-ups after each untraced
/// execution when a set-up is cheaper than [`CHEAP_SETUP`]: spread over the
/// run, the batches give `setup_s` many samples under the same machine
/// conditions as the executions.
const SETUP_SLICE: Duration = Duration::from_millis(100);

/// Set-ups at most this long get a [`SETUP_SLICE`] of samples.
const CHEAP_SETUP: f64 = 0.010;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => match num()? {
                0 => trace = Some(false),
                1 => trace = Some(true),
                _ => return Err(format!("{flag} takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(1),
        trace: trace.ok_or("missing --trace")?,
    })
}

fn time_quorum(outcome: &ScenarioOutcome) -> QuorumTiming {
    let t = &outcome.topology;
    let start = Instant::now();
    let b3 = std::hint::black_box(t.fail_prone.satisfies_b3());
    let b3_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let valid = std::hint::black_box(t.quorums.validate(&t.fail_prone));
    let validate_s = start.elapsed().as_secs_f64();
    assert!(b3 && valid.is_ok(), "workload topologies are valid asymmetric quorum systems");
    QuorumTiming { b3_s, validate_s }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(scenario) = workload::scenario(&args.workload, args.seed, Size::Full) else {
        eprintln!("perfbench: unknown workload {} (known: {:?})", args.workload, workload::NAMES);
        return ExitCode::from(2);
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // Executions reuse the first set-up's topology: it is immutable input,
    // and rebuilding it (seconds of trust validation on slice topologies)
    // would leave the run little time for executions. Its cost is measured
    // by the timed set-ups.
    let (first_setup, topology) = harness::full_set_up(&scenario);
    // Timed set-ups in batches, each made under one machine condition.
    let mut setup = vec![vec![first_setup]];
    let (mut untraced, mut traced) = (Vec::<Execution>::new(), Vec::<Execution>::new());
    let trace = Rc::new(RefCell::new(Trace::default()));
    let mut quorum: Option<QuorumTiming> = None;
    let mut first: Option<Fingerprint> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        // With tracing, alternate untraced and traced executions so the
        // overhead compares runs made under the same machine conditions.
        let traced_turn = args.trace && untraced.len() > traced.len();
        let ex = if traced_turn {
            let (ex, outcome) = harness::execute_traced(&scenario, &topology, &trace);
            quorum.get_or_insert_with(|| time_quorum(&outcome));
            ex
        } else {
            harness::execute(&scenario, &topology).0
        };
        attempted += 1;
        if let Err(e) = &ex.audit {
            eprintln!("perfbench: audit failed: {e}");
            failed += 1;
        }
        match &first {
            None => first = Some(ex.fingerprint.clone()),
            Some(f) if *f != ex.fingerprint => {
                eprintln!("perfbench: fingerprint differs: {} vs {f}", ex.fingerprint);
                failed += 1;
            }
            Some(_) => {}
        }
        if traced_turn {
            traced.push(ex);
        } else {
            if first_setup < CHEAP_SETUP {
                let slice = Instant::now();
                let mut batch = Vec::new();
                while slice.elapsed() < SETUP_SLICE {
                    batch.push(harness::full_set_up(&scenario).0);
                }
                setup.push(batch);
            } else if setup.len() < MIN_SETUPS {
                setup.push(vec![harness::full_set_up(&scenario).0]);
            }
            untraced.push(ex);
        }
        let enough = if args.trace { !traced.is_empty() } else { untraced.len() >= MIN_EXECUTIONS };
        if enough && start.elapsed() >= budget {
            break;
        }
    }

    let fingerprint = first.expect("at least one execution");
    println!("workload {} seed {} ({})", args.workload, args.seed, scenario.cell());
    println!("fingerprint {fingerprint}");
    println!(
        "executions {attempted} ({} untraced, {} traced), fail_rate {}",
        untraced.len(),
        traced.len(),
        failed as f64 / attempted as f64
    );
    let runs: Vec<String> = untraced.iter().map(|e| format!("{:.4}", e.run.run_s)).collect();
    println!("run_s per untraced execution: {}", runs.join(" "));
    let samples: Vec<f64> = setup.iter().flatten().copied().collect();
    println!(
        "setup_s samples: {} in {} batches (min {:.6}, median {:.6}, max {:.6})",
        samples.len(),
        setup.len(),
        samples.iter().copied().fold(f64::INFINITY, f64::min),
        report::median(&samples),
        samples.iter().copied().fold(0.0, f64::max)
    );
    let e2e = report::end_to_end(&untraced, &setup);
    report::print_table("end-to-end", &e2e);
    let metrics = if args.trace {
        let quorum = quorum.expect("a traced run times the quorum layer");
        let layers = report::per_layer(&trace.borrow(), &traced, &untraced, &quorum);
        report::print_table("per-layer", &layers);
        report::print_table("detail", &report::detail(Some(&trace.borrow()), &untraced, &traced));
        layers
    } else {
        report::print_table("detail", &report::detail(None, &untraced, &traced));
        e2e
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && finite;
    println!("{}", report::json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
