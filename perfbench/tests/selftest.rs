//! Self-tests on shrunken versions of every workload: the harness runs the
//! same execution as the scenario runner, tracing does not change it, every
//! metric is reported by name with its unit, and the audit catches a
//! tampered outcome.

use std::cell::RefCell;
use std::rc::Rc;

use asym_perfbench::harness::{self, Fingerprint};
use asym_perfbench::report::{self, QuorumTiming, END_TO_END, PER_LAYER};
use asym_perfbench::trace::Trace;
use asym_perfbench::workload::{scenario, Size, NAMES};

const SEED: u64 = 5;

#[test]
fn traced_untraced_and_scenario_runner_agree() {
    for name in NAMES {
        let s = scenario(name, SEED, Size::Shrunk).expect("known workload");
        let topology = harness::build_topology(&s);
        let (plain, _) = harness::execute(&s, &topology);
        let trace = Rc::new(RefCell::new(Trace::default()));
        let (traced, _) = harness::execute_traced(&s, &topology, &trace);
        plain.audit.as_ref().unwrap_or_else(|e| panic!("{name}: {e}"));
        traced.audit.as_ref().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(plain.fingerprint, traced.fingerprint, "{name}: tracing changed the run");
        assert_eq!(
            plain.fingerprint,
            Fingerprint::of(&s.run()),
            "{name}: the harness diverged from Scenario::run"
        );
        assert!(plain.fingerprint.committed_waves > 0, "{name}: nothing committed");
        assert!(trace.borrow().steps > 0, "{name}: nothing traced");
    }
}

#[test]
fn restart_workload_recovers_through_state_transfer() {
    let s = scenario("restart-payload-n10", SEED, Size::Shrunk).expect("known workload");
    let (ex, outcome) = harness::execute(&s, &harness::build_topology(&s));
    assert!(outcome.recovered[1], "the laggard restarted from its WAL");
    assert!(ex.run.catchup.is_some(), "the laggard caught up with its peers");
    assert!(ex.fingerprint.waves_installed > 0, "the catch-up went through state transfer");
    assert!(ex.storage.wal_processes == 10 && ex.storage.mem_bytes > 0);
}

#[test]
fn every_metric_is_reported_with_its_unit() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json lacks {name} [{unit}]"
        );
    }
    assert_eq!(
        manifest.matches("\"name\":").count(),
        END_TO_END.len() + PER_LAYER.len() + NAMES.len(),
        "BENCHMARK.json lists a metric or workload the benchmark does not report"
    );
    for name in NAMES {
        assert!(manifest.contains(&format!("\"name\": \"{name}\"")), "workload {name} unlisted");
        let s = scenario(name, SEED, Size::Shrunk).expect("known workload");
        let (setup_s, topology) = harness::full_set_up(&s);
        let untraced = vec![harness::execute(&s, &topology).0];
        let trace = Rc::new(RefCell::new(Trace::default()));
        let traced = vec![harness::execute_traced(&s, &topology, &trace).0];
        let e2e = report::end_to_end(&untraced, &[vec![setup_s]]);
        let layers =
            report::per_layer(&trace.borrow(), &traced, &untraced, &QuorumTiming::default());
        for (metrics, expected) in [(&e2e, &END_TO_END[..]), (&layers, &PER_LAYER[..])] {
            let got: Vec<(&str, &str)> =
                metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
            assert_eq!(got, expected, "{name}");
            let line = report::json_line(true, 2, 0, metrics);
            for m in metrics.iter() {
                assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
                assert!(
                    line.contains(&format!(
                        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                        m.name, m.value, m.unit
                    )),
                    "{name}: {} missing from {line}",
                    m.name
                );
            }
        }
    }
}

#[test]
fn a_tampered_outcome_fails_the_audit() {
    for name in NAMES {
        let s = scenario(name, SEED, Size::Shrunk).expect("known workload");
        let (ex, mut outcome) = harness::execute(&s, &harness::build_topology(&s));
        assert!(ex.audit.is_ok(), "{name}: {:?}", ex.audit);
        assert_eq!(harness::audit(&outcome), Ok(()));
        let delivered = outcome.outputs[0]
            .iter_mut()
            .find(|o| !o.block.txs.is_empty())
            .unwrap_or_else(|| panic!("{name}: p0 delivered no transaction"));
        delivered.block.txs[0] += 1;
        assert!(harness::audit(&outcome).is_err(), "{name}: a forged transaction passed the audit");
    }
}

#[test]
fn percentiles_interpolate_between_ranks() {
    let xs = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(report::median(&xs), 2.5);
    assert!((report::percentile(&xs, 90.0) - 3.7).abs() < 1e-12);
    assert_eq!(report::slope(&[(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]), 2.0);
    assert_eq!(report::fastest_batch(&[vec![5.0, 1.0, 9.0], vec![], vec![3.0, 4.0]]), 3.5);
}
