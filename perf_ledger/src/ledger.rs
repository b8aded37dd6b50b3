//! The metric vocabulary and the arithmetic that turns reps, spans and
//! replay counts into it. `BENCHMARK.json` is generated from the tables
//! here (`--benchmark-json`), and a test keeps the committed file equal to
//! the generated one.

use crate::replay::{chunk_span_name, ReplayCounts, CHUNK_SPANS, KINDS};
use crate::sweeps::{Rep, Traced};
use crate::trace::{self_times, SpanRecord};
use crate::workload::Workload;
use std::fmt::Write as _;

/// The benchmark's command, relative to the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perf_ledger/Cargo.toml",
    "--",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 12;

/// Why each workload is in the benchmark (one line each).
#[must_use]
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::Fig3 => {
            "fig3 spec, n=11..100001 x 3 protocols at eps=1/n, 8 runs/cell: kernel-bound on jump \
             and adaptive engines. Known defect: results/fig3_*.csv is a 2-n 4-run grid, not a \
             fig3 reference"
        }
        Workload::Rivals => {
            "both rival grid files, full profile: 48 cells, n<=4097, ms trials, agent cells under \
             adversaries; shows per-trial engine builds, table builds, grid parse and per-cell fsync"
        }
        Workload::Robustness => {
            "robustness spec, 16 cells at n=201, 2 runs/cell: agent engine under restricted \
             schedulers and faults on the harness reuse path. Harness pinned to min(2, nproc) \
             workers"
        }
    }
}

/// An end-to-end metric: name, unit, whether higher is better, bound.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "sweep_s",
        unit: "s",
        higher: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "interactions_per_s",
        unit: "steps/s",
        higher: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "critical_cell_s",
        unit: "s",
        higher: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        higher: false,
        bound: 0.15,
    },
    EndToEnd {
        name: "trials",
        unit: "count",
        higher: true,
        bound: 0.01,
    },
];

/// The per-layer metrics of the traced run: name, unit, higher is better.
pub const PER_LAYER: [(&str, &str, bool); 54] = [
    ("engine.chunk_s", "s", false),
    ("engine.prepare_s", "s", false),
    ("engine.resets", "count", false),
    ("engine.agent.chunk_share", "ratio", false),
    ("engine.agent.chunks", "count", false),
    ("engine.agent.steps", "count", true),
    ("engine.agent.events", "count", true),
    ("engine.agent.steps_per_s", "steps/s", true),
    ("engine.agent.productive_ratio", "ratio", true),
    ("engine.jump.chunk_share", "ratio", false),
    ("engine.jump.chunks", "count", false),
    ("engine.jump.steps", "count", true),
    ("engine.jump.events", "count", true),
    ("engine.jump.steps_per_s", "steps/s", true),
    ("engine.jump.productive_ratio", "ratio", true),
    ("engine.adaptive.chunk_share", "ratio", false),
    ("engine.adaptive.chunks", "count", false),
    ("engine.adaptive.steps", "count", true),
    ("engine.adaptive.events", "count", true),
    ("engine.adaptive.steps_per_s", "steps/s", true),
    ("engine.adaptive.productive_ratio", "ratio", true),
    ("engine.adaptive.phase_switches", "count", false),
    ("scenario.parse_s", "s", false),
    ("scenario.build_s", "s", false),
    ("scenario.builds", "count", false),
    ("cached.build_s", "s", false),
    ("cached.table_bytes", "bytes", false),
    ("cached.fallbacks", "count", false),
    ("driver.run_s", "s", false),
    ("driver.self_s", "s", false),
    ("driver.chunks", "count", false),
    ("harness.cell_s", "s", false),
    ("harness.worker_busy_s", "s", false),
    ("harness.worker_idle_s", "s", false),
    ("harness.utilization", "ratio", true),
    ("plan.build_s", "s", false),
    ("plan.cells", "count", true),
    ("manifest.hash_s", "s", false),
    ("manifest.bytes_hashed", "bytes", false),
    ("store.open_s", "s", false),
    ("store.append_s", "s", false),
    ("store.appends", "count", false),
    ("store.bytes_written", "bytes", false),
    ("sweep.journal_append_s", "s", false),
    ("sweep.bookkeeping_s", "s", false),
    ("sweep.export_s", "s", false),
    ("telemetry.json_bytes", "bytes", false),
    ("trace.sweep_s", "s", false),
    ("trace.overhead_s", "s", false),
    ("trace.unattributed_s", "s", false),
    ("calib.start_s", "s", false),
    ("calib.end_s", "s", false),
    ("calib.drift", "ratio", false),
    ("oracle.reference_mismatch", "count", false),
];

/// The unit of a metric name from either table.
///
/// # Panics
///
/// Panics on a name in neither table (a bug in this crate).
#[must_use]
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map_or_else(|| panic!("unknown metric `{name}`"), |(_, u)| u)
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Span durations, self times and counts by name over one index range.
struct SpanSums<'a> {
    spans: &'a [SpanRecord],
    self_ns: &'a [u64],
    range: std::ops::Range<usize>,
}

impl SpanSums<'_> {
    fn matching(&self, name: &str) -> impl Iterator<Item = usize> + '_ {
        let name = name.to_string();
        self.range
            .clone()
            .filter(move |&i| self.spans[i].name == name)
    }

    fn total_s(&self, name: &str) -> f64 {
        self.matching(name)
            .map(|i| self.spans[i].duration_ns())
            .sum::<u64>() as f64
            * 1e-9
    }

    fn self_s(&self, name: &str) -> f64 {
        self.matching(name).map(|i| self.self_ns[i]).sum::<u64>() as f64 * 1e-9
    }

    fn count(&self, name: &str) -> f64 {
        self.matching(name).count() as f64
    }
}

/// The sweep-level layers of one traced rep.
fn sweep_layers(
    spans: &[SpanRecord],
    self_ns: &[u64],
    traced: &Traced,
    workers: usize,
) -> Vec<(&'static str, f64)> {
    let sums = SpanSums {
        spans,
        self_ns,
        range: traced.root..traced.end,
    };
    let cells = &traced.rep.cells;
    let cell_s: f64 = cells.iter().map(|c| c.batch.wall_s).sum();
    let busy_s: f64 = cells.iter().map(|c| c.batch.busy_s).sum();
    let capacity_s = workers as f64 * cell_s;
    vec![
        ("harness.cell_s", cell_s),
        ("harness.worker_busy_s", busy_s),
        ("harness.worker_idle_s", capacity_s - busy_s),
        (
            "harness.utilization",
            if capacity_s > 0.0 {
                busy_s / capacity_s
            } else {
                0.0
            },
        ),
        ("plan.build_s", sums.total_s("plan.build")),
        ("plan.cells", cells.len() as f64),
        ("manifest.hash_s", sums.total_s("manifest.hash")),
        ("manifest.bytes_hashed", traced.bytes_hashed as f64),
        ("store.open_s", sums.total_s("store.open")),
        ("store.append_s", sums.total_s("store.append")),
        ("store.appends", sums.count("store.append")),
        ("store.bytes_written", traced.bytes_written as f64),
        (
            "sweep.journal_append_s",
            sums.total_s("sweep.journal_append"),
        ),
        ("sweep.bookkeeping_s", sums.self_s("sweep.run")),
        ("sweep.export_s", sums.total_s("sweep.export")),
        ("telemetry.json_bytes", traced.journal_bytes as f64),
        (
            "trace.sweep_s",
            spans[traced.root].duration_ns() as f64 * 1e-9,
        ),
        ("trace.unattributed_s", self_ns[traced.root] as f64 * 1e-9),
    ]
}

/// The replay's layers.
fn replay_layers(
    spans: &[SpanRecord],
    self_ns: &[u64],
    range: std::ops::Range<usize>,
    counts: &ReplayCounts,
) -> Vec<(&'static str, f64)> {
    let sums = SpanSums {
        spans,
        self_ns,
        range,
    };
    let chunk_s: f64 = CHUNK_SPANS.iter().map(|name| sums.total_s(name)).sum();
    let mut out = vec![
        ("engine.chunk_s", chunk_s),
        (
            "engine.prepare_s",
            sums.total_s("scenario.build") + sums.total_s("engine.reset"),
        ),
        ("engine.resets", sums.count("engine.reset")),
    ];
    for kind in KINDS {
        let engine = counts.engines.get(kind).cloned().unwrap_or_default();
        let kind_s = sums.total_s(chunk_span_name(kind));
        let steps = engine.steps as f64;
        let name = |field: &str| {
            PER_LAYER
                .iter()
                .map(|&(n, _, _)| n)
                .find(|n| *n == format!("engine.{kind}.{field}"))
                .expect("every reported kind has its metrics in PER_LAYER")
        };
        let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
        out.push((name("chunk_share"), ratio(kind_s, chunk_s)));
        out.push((name("chunks"), engine.chunks as f64));
        out.push((name("steps"), steps));
        out.push((name("events"), engine.events as f64));
        out.push((name("steps_per_s"), ratio(steps, kind_s)));
        out.push((name("productive_ratio"), ratio(engine.events as f64, steps)));
        if kind == "adaptive" {
            out.push((name("phase_switches"), engine.phase_switches as f64));
        }
    }
    let chunks: u64 = counts.engines.values().map(|e| e.chunks).sum();
    out.extend([
        ("scenario.parse_s", sums.total_s("scenario.parse")),
        ("scenario.build_s", sums.total_s("scenario.build")),
        ("scenario.builds", sums.count("scenario.build")),
        ("cached.build_s", sums.total_s("cached.build")),
        ("cached.table_bytes", counts.max_table_bytes as f64),
        ("cached.fallbacks", counts.fallbacks as f64),
        ("driver.run_s", sums.total_s("driver.run")),
        ("driver.self_s", sums.self_s("driver.run")),
        ("driver.chunks", chunks as f64),
    ]);
    out
}

/// Everything the traced run measured.
pub struct TracedRun<'a> {
    /// Every span of the run.
    pub spans: &'a [SpanRecord],
    /// The traced reps.
    pub traced: &'a [Traced],
    /// The untraced reps run beside them.
    pub untraced: &'a [Rep],
    /// Span indices of the replay.
    pub replay: std::ops::Range<usize>,
    /// The replay's counts.
    pub counts: &'a ReplayCounts,
    /// Pinned harness workers.
    pub workers: usize,
}

/// The per-layer metrics (without the calibration and oracle entries,
/// which the caller adds): sweep-level layers are medians over the traced
/// reps, replay layers come from the one replay.
#[must_use]
pub fn per_layer(run: &TracedRun<'_>) -> Vec<(&'static str, f64)> {
    let self_ns = self_times(run.spans);
    let per_rep: Vec<Vec<(&'static str, f64)>> = run
        .traced
        .iter()
        .map(|t| sweep_layers(run.spans, &self_ns, t, run.workers))
        .collect();
    let mut out: Vec<(&'static str, f64)> = per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            (
                name,
                median(&per_rep.iter().map(|r| r[i].1).collect::<Vec<_>>()),
            )
        })
        .collect();
    let traced_s = median(&run.traced.iter().map(|t| t.rep.sweep_s).collect::<Vec<_>>());
    let untraced_s = median(&run.untraced.iter().map(|r| r.sweep_s).collect::<Vec<_>>());
    out.push(("trace.overhead_s", traced_s - untraced_s));
    out.extend(replay_layers(
        run.spans,
        &self_ns,
        run.replay.clone(),
        run.counts,
    ));
    out
}

/// How one traced sweep's wall time splits over the layers it calls:
/// each child span name's total (`sweep.run` split into its cells and its
/// own bookkeeping), then the root's own (unattributed) time. The parts
/// sum to the traced `sweep_s`.
#[must_use]
pub fn accounting(spans: &[SpanRecord], traced: &Traced) -> String {
    let self_ns = self_times(spans);
    let mut parts: Vec<(&str, u64)> = Vec::new();
    let mut add = |name: &'static str, ns: u64| match parts.iter_mut().find(|(n, _)| *n == name) {
        Some((_, total)) => *total += ns,
        None => parts.push((name, ns)),
    };
    for (i, span) in spans.iter().enumerate().take(traced.end).skip(traced.root) {
        if span.parent != Some(traced.root) {
            continue;
        }
        if span.name == "sweep.run" {
            add("cells", span.duration_ns() - self_ns[i]);
            add("sweep.bookkeeping", self_ns[i]);
        } else {
            add(span.name, span.duration_ns());
        }
    }
    parts.push(("unattributed", self_ns[traced.root]));
    let terms: Vec<String> = parts
        .iter()
        .map(|(name, ns)| format!("{name} {:.6}", *ns as f64 * 1e-9))
        .collect();
    format!(
        "traced sweep {:.6} s = {}",
        spans[traced.root].duration_ns() as f64 * 1e-9,
        terms.join(" + ")
    )
}

/// The end-to-end metrics from untraced reps and the process' memory
/// high-water mark.
#[must_use]
pub fn end_to_end(reps: &[Rep], peak_rss_mib: f64, trials: u64) -> Vec<(&'static str, f64)> {
    let of = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    vec![
        ("sweep_s", of(&|r| r.sweep_s)),
        ("setup_s", of(&|r| r.setup_s)),
        ("interactions_per_s", of(&|r| r.steps as f64 / r.sweep_s)),
        ("critical_cell_s", of(&|r| r.critical().wall_s())),
        ("peak_rss_mib", peak_rss_mib),
        ("trials", trials as f64),
    ]
}

/// The result line: `{"correct","attempted","failed","metrics"}`.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json_number(value),
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// A finite JSON number with every digit `f64` carries (non-finite values,
/// which no metric should produce, print as 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// The `BENCHMARK.json` document for these tables.
#[must_use]
pub fn benchmark_json() -> String {
    let quote = |s: &str| format!("\"{s}\"");
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let mut out = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|s| quote(s)).collect();
    let _ = writeln!(out, "  \"command\": [{}],", command.join(", "));
    let _ = writeln!(out, "  \"paths\": [\"perf_ledger\"],");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                why(*w)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"workloads\": [\n{}\n  ],", workloads.join(",\n"));
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher),
                m.bound
            )
        })
        .collect();
    let _ = writeln!(out, "  \"end_to_end\": [\n{}\n  ],", e2e.join(",\n"));
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|&(name, unit, higher)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(higher)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"per_layer\": [\n{}\n  ]", layers.join(",\n"));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --benchmark-json"
        );
    }

    #[test]
    fn names_are_unique_and_whys_fit() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        for w in Workload::ALL {
            assert!(why(w).len() <= 200, "{} why is too long", w.name());
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_carries_units_and_digits() {
        let line = result_line(
            true,
            3,
            0,
            &[("sweep_s", 1.234_567_890_123), ("trials", 48.0)],
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"sweep_s\":{\"value\":1.234567890123,\
             \"unit\":\"s\"},\"trials\":{\"value\":48.0,\"unit\":\"count\"}}}"
        );
    }
}
