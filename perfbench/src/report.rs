//! Turning audited executions into named metrics with units, and printing
//! them: a readable table, then one JSON line.

use crate::harness::Execution;
use crate::trace::{Class, Kind, Trace};

/// End-to-end metrics, `(name, unit)`, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("wave_ms.p50", "ms"),
    ("wave_ms.p90", "ms"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("sim.sched_next_ns", "ns"),
    ("sim.sched_share", "share"),
    ("sim.other_ns_per_step", "ns"),
    ("sim.in_flight_max", "count"),
    ("sim.in_flight_mean", "count"),
    ("sim.msgs_per_wave", "count"),
    ("sim.steps", "count"),
    ("broadcast.echo_ns", "ns"),
    ("broadcast.ready_ns", "ns"),
    ("broadcast.share", "share"),
    ("net.bytes_per_wave", "bytes"),
    ("net.bytes.arb_send", "bytes"),
    ("net.bytes.arb_echo", "bytes"),
    ("net.bytes.arb_ready", "bytes"),
    ("net.bytes.control", "bytes"),
    ("net.bytes.recovery", "bytes"),
    ("dag.insert_ns", "ns"),
    ("dag.vertices_end", "count"),
    ("core.control_ns", "ns"),
    ("ordering.decide_ns", "ns"),
    ("storage.snapshot_share", "share"),
    ("storage.snapshots", "count"),
    ("storage.wal_bytes_per_wave", "bytes"),
    ("storage.wal_records_per_wave", "count"),
    ("storage.snapshot_bytes_last", "bytes"),
    ("storage.mem_mb", "MB"),
    ("recovery.share", "share"),
    ("recovery.catchup_steps", "count"),
    ("transfer.waves_installed", "count"),
    ("quorum.b3_s", "s"),
    ("quorum.validate_s", "s"),
    ("heap.kb_per_wave", "KB"),
    ("trace.coverage", "share"),
    ("wave.samples", "count"),
];

/// One named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The median of `xs` (linear interpolation between the middle two).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile of `xs`, interpolating linearly between closest
/// ranks.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Least-squares slope of `y` against `x` (0 when `x` does not vary).
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mx, my) = points.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x / n, b + y / n));
    let (sxy, sxx) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + (x - mx) * (y - my), b + (x - mx) * (x - mx)));
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// The fastest-repeat timeline of repeated executions of one seed: the
/// time of poll k is the sum, over the poll intervals up to k, of each
/// interval's shortest duration across the executions.
///
/// Every execution with the first one's fingerprint performs the same
/// steps, so interval k is the same work in each. Interference from other
/// load on the machine only ever adds time, and on a shared machine it
/// comes and goes within seconds, so the fastest repeat of each interval
/// is the steadiest estimate of what the code costs. Executions whose
/// timeline does not align (a fingerprint mismatch, already a failure) are
/// left out.
///
/// # Panics
///
/// Panics if `execs` is empty.
pub fn fastest_timeline(execs: &[Execution]) -> Vec<f64> {
    let first = &execs[0];
    let aligned: Vec<&[f64]> = execs
        .iter()
        .filter(|e| {
            e.fingerprint == first.fingerprint && e.run.polls.len() == first.run.polls.len()
        })
        .map(|e| e.run.polls.as_slice())
        .collect();
    let mut t = 0.0;
    (0..first.run.polls.len())
        .map(|k| {
            t += aligned
                .iter()
                .map(|p| p[k] - if k == 0 { 0.0 } else { p[k - 1] })
                .fold(f64::INFINITY, f64::min);
            t
        })
        .collect()
}

/// The fastest set-up batch: the lowest median over batches of timed
/// set-ups, each batch made under one machine condition. Like the
/// fastest-repeat timeline, it keeps set-up time that other load on the
/// machine added to a whole batch out of `setup_s`.
///
/// # Panics
///
/// Panics if there is no non-empty batch.
pub fn fastest_batch(batches: &[Vec<f64>]) -> f64 {
    batches.iter().filter(|b| !b.is_empty()).map(|b| median(b)).fold(f64::INFINITY, f64::min)
}

/// End-to-end metrics over untraced executions of one seed, plus the
/// batches of set-up samples.
pub fn end_to_end(untraced: &[Execution], setup_s: &[Vec<f64>]) -> Vec<Metric> {
    let timeline = fastest_timeline(untraced);
    let wave_ms = untraced[0].run.wave_ms(&timeline);
    let peak: Vec<f64> = untraced.iter().map(|e| e.run.peak_heap_bytes as f64 / 1e6).collect();
    vec![
        metric("setup_s", fastest_batch(setup_s), "s"),
        metric("run_s", *timeline.last().expect("a run polls at quiescence"), "s"),
        metric("wave_ms.p50", percentile(&wave_ms, 50.0), "ms"),
        metric("wave_ms.p90", percentile(&wave_ms, 90.0), "ms"),
        metric("peak_heap_mb", median(&peak), "MB"),
    ]
}

/// Quorum-layer timings made by direct calls on a built topology.
#[derive(Clone, Copy, Debug, Default)]
pub struct QuorumTiming {
    /// `AsymFailProneSystem::satisfies_b3` wall seconds.
    pub b3_s: f64,
    /// `AsymQuorumSystem::validate` wall seconds.
    pub validate_s: f64,
}

/// Per-layer metrics: the summed trace and the traced executions it came
/// from, the untraced executions (heap slope) and the quorum timing.
pub fn per_layer(
    trace: &Trace,
    traced: &[Execution],
    untraced: &[Execution],
    quorum: &QuorumTiming,
) -> Vec<Metric> {
    let execs = traced.len() as f64;
    let wall_ns: f64 = traced.iter().map(|e| e.run.run_s * 1e9).sum();
    let waves: f64 = traced.iter().map(|e| e.run.waves as f64).sum();
    let steps = trace.steps as f64;
    let per_call = |c: Class| {
        let s = trace.class(c);
        if s.calls == 0 {
            0.0
        } else {
            s.ns as f64 / s.calls as f64
        }
    };
    let share = |cs: &[Class]| cs.iter().map(|c| trace.class(*c).ns as f64).sum::<f64>() / wall_ns;
    let other_ns = trace.step_ns as f64 - trace.sched_ns as f64 - trace.callback_ns() as f64;
    let sum = |f: &dyn Fn(&Execution) -> f64| traced.iter().map(f).sum::<f64>();
    let total_bytes: u64 = trace.bytes.iter().sum();
    let heap: Vec<(f64, f64)> = untraced.iter().flat_map(|e| e.run.heap.iter().copied()).collect();
    let mut m = vec![
        metric("sim.sched_next_ns", trace.sched_ns as f64 / steps, "ns"),
        metric("sim.sched_share", trace.sched_ns as f64 / wall_ns, "share"),
        metric("sim.other_ns_per_step", other_ns / steps, "ns"),
        metric("sim.in_flight_max", trace.in_flight_max as f64, "count"),
        metric("sim.in_flight_mean", trace.in_flight_sum as f64 / trace.offers as f64, "count"),
        metric("sim.msgs_per_wave", sum(&|e| e.fingerprint.msgs_sent as f64) / waves, "count"),
        metric("sim.steps", sum(&|e| e.run.steps as f64) / execs, "count"),
        metric("broadcast.echo_ns", per_call(Class::BcastEcho), "ns"),
        metric("broadcast.ready_ns", per_call(Class::BcastReady), "ns"),
        metric(
            "broadcast.share",
            share(&[Class::BcastSend, Class::BcastEcho, Class::BcastReady]),
            "share",
        ),
        metric("net.bytes_per_wave", total_bytes as f64 / waves, "bytes"),
    ];
    for k in Kind::ALL {
        m.push(Metric {
            name: format!("net.bytes.{}", k.name()),
            value: trace.bytes[k as usize] as f64 / execs,
            unit: "bytes",
        });
    }
    m.extend([
        metric("dag.insert_ns", per_call(Class::Insert), "ns"),
        metric("dag.vertices_end", sum(&|e| e.storage.dag_vertices_mean) / execs, "count"),
        metric("core.control_ns", per_call(Class::Control), "ns"),
        metric("ordering.decide_ns", per_call(Class::Decide), "ns"),
        metric("storage.snapshot_share", share(&[Class::Snapshot]), "share"),
        metric("storage.snapshots", trace.class(Class::Snapshot).calls as f64 / execs, "count"),
        metric("storage.wal_bytes_per_wave", sum(&|e| e.storage.wal_bytes as f64) / waves, "bytes"),
        metric(
            "storage.wal_records_per_wave",
            sum(&|e| e.storage.wal_records as f64) / waves,
            "count",
        ),
        metric(
            "storage.snapshot_bytes_last",
            traced.iter().map(|e| e.storage.snapshot_bytes_last as f64).fold(0.0, f64::max),
            "bytes",
        ),
        metric("storage.mem_mb", sum(&|e| e.storage.mem_bytes as f64) / execs / 1e6, "MB"),
        metric("recovery.share", share(&[Class::Recover, Class::Fetch, Class::Transfer]), "share"),
        metric(
            "recovery.catchup_steps",
            sum(&|e| e.run.catchup.map_or(0.0, |c| c.steps as f64)) / execs,
            "count",
        ),
        metric(
            "transfer.waves_installed",
            sum(&|e| e.fingerprint.waves_installed as f64) / execs,
            "count",
        ),
        metric("quorum.b3_s", quorum.b3_s, "s"),
        metric("quorum.validate_s", quorum.validate_s, "s"),
        metric("heap.kb_per_wave", slope(&heap) / 1e3, "KB"),
        metric("trace.coverage", trace.step_ns as f64 / wall_ns, "share"),
        metric(
            "wave.samples",
            untraced[0].run.wave_ms(&untraced[0].run.polls).len() as f64,
            "count",
        ),
    ]);
    m
}

/// Printed-only figures, which exist only on workloads that exercise the
/// layer: catch-up and WAL replay times, the per-call time and share of
/// every call class that had calls, and the tracing overhead (traced minus
/// untraced `run_s`, each on its executions' fastest-repeat timeline).
pub fn detail(trace: Option<&Trace>, untraced: &[Execution], traced: &[Execution]) -> Vec<Metric> {
    let mut m = Vec::new();
    let catchup: Vec<f64> = untraced.iter().filter_map(|e| e.run.catchup.map(|c| c.ms)).collect();
    if !catchup.is_empty() {
        m.push(metric("catchup_ms", median(&catchup), "ms"));
    }
    let replays: Vec<f64> = untraced
        .iter()
        .filter(|e| e.storage.wal_processes > 0)
        .map(|e| e.storage.replay_ms / e.storage.wal_processes as f64)
        .collect();
    if !replays.is_empty() {
        m.push(metric("storage.replay_ms", median(&replays), "ms"));
    }
    if let Some(trace) = trace {
        let wall_ns: f64 = traced.iter().map(|e| e.run.run_s * 1e9).sum();
        for c in Class::ALL {
            let s = trace.class(c);
            if s.calls > 0 {
                m.push(Metric {
                    name: format!("{}_ns", c.name()),
                    value: s.ns as f64 / s.calls as f64,
                    unit: "ns",
                });
                m.push(Metric {
                    name: format!("{}_share", c.name()),
                    value: s.ns as f64 / wall_ns,
                    unit: "share",
                });
            }
        }
        let run_s = |execs: &[Execution]| *fastest_timeline(execs).last().expect("polled");
        let (untraced_run, traced_run) = (run_s(untraced), run_s(traced));
        m.push(metric("trace.overhead_s", traced_run - untraced_run, "s"));
    }
    m
}

/// Prints metrics one per line, `name value unit`.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
