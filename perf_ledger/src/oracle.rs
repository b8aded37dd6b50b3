//! Output checks computed from a sweep's durable records: trials
//! attempted, wrong consensus of exact protocols, and the records digest.

use avc_population::hash::sha256_hex;
use avc_population::json::Json;
use avc_population::telemetry::RegistrySnapshot;
use avc_store::manifest::Manifest;
use avc_store::record::Record;
use std::path::Path;

/// Protocol families that are exact: any wrong consensus is a failure.
/// The three-state protocol is approximate and errs by design.
const EXACT: [&str; 4] = ["avc", "four_state", "bef", "degssu"];

/// Trials a cell runs, from its manifest's `runs` parameter.
///
/// # Errors
///
/// A manifest without a numeric `runs` parameter.
pub fn trials_of(manifest: &Manifest) -> Result<u64, String> {
    manifest
        .get("runs")
        .and_then(|r| r.parse().ok())
        .ok_or_else(|| format!("cell {:?} has no `runs` parameter", manifest.get("cell")))
}

/// Whether the cell's protocol is exact (`avc(m=3,d=1)` → `avc`).
#[must_use]
pub fn is_exact(manifest: &Manifest) -> bool {
    let protocol = manifest.get("protocol").unwrap_or("");
    let family = protocol.split('(').next().unwrap_or("");
    EXACT.contains(&family)
}

/// Trials of an exact-protocol cell that reached the wrong consensus.
///
/// Trials stopped by the step budget (or stuck) are not failures: the
/// robustness sweep's star/cycle stall is its expected result. Each record
/// shape keeps the count its own way:
/// * grid cells record `wrong` directly;
/// * robustness cells record `wrong_fraction` over all runs;
/// * fig3 cells record `error_fraction` over all runs, which also counts
///   unconverged trials — those are `total_runs − samples.len()` and are
///   subtracted back out.
#[must_use]
pub fn wrong_trials(record: &Record) -> u64 {
    if !is_exact(&record.manifest) {
        return 0;
    }
    let result = &record.result;
    if let Some(wrong) = result.value("wrong") {
        return wrong.round() as u64;
    }
    if let Some(fraction) = result.value("wrong_fraction") {
        let runs = trials_of(&record.manifest).unwrap_or(0);
        return (fraction * runs as f64).round() as u64;
    }
    match &result.trials {
        Some(trials) => {
            let errors = (trials.error_fraction * trials.total_runs as f64).round() as u64;
            let unconverged = trials.total_runs - trials.samples.len() as u64;
            errors.saturating_sub(unconverged)
        }
        None => 0,
    }
}

/// Total deterministic interactions of a cell: the telemetry's `sim.steps`
/// when the cell recorded telemetry, else `None` (the caller falls back to
/// the harness' per-trial step counts).
#[must_use]
pub fn telemetry_steps(record: &Record) -> Option<u64> {
    record
        .result
        .telemetry
        .as_ref()
        .and_then(|t| t.sim.counter("sim.steps"))
}

/// The records of a store directory, in file order.
///
/// # Errors
///
/// I/O errors and unparseable lines.
pub fn load_records(store_dir: &Path) -> Result<Vec<Record>, String> {
    let path = store_dir.join("records.jsonl");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| Json::parse(line).and_then(|j| Record::from_json(&j)))
        .collect()
}

/// SHA-256 over the records with `AVC_TELEMETRY_NOWALL` semantics: each
/// record's `wall_ms` is zeroed and its telemetry `wall` registry dropped
/// before it is serialized, so the digest is a pure function of the plan
/// and seed.
#[must_use]
pub fn records_digest(records: &[Record]) -> String {
    let mut text = String::new();
    for record in records {
        let mut record = record.clone();
        record.wall_ms = 0;
        if let Some(telemetry) = &mut record.result.telemetry {
            telemetry.wall = RegistrySnapshot::new();
        }
        text.push_str(&record.to_json().to_string_compact());
        text.push('\n');
    }
    sha256_hex(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use avc_store::record::{CellResult, TrialSummary};
    use std::collections::BTreeMap;

    fn record(protocol: &str, result: CellResult) -> Record {
        let manifest = Manifest::new(
            "synthetic",
            [
                ("cell", "c".to_string()),
                ("protocol", protocol.to_string()),
                ("runs", "4".to_string()),
            ],
        );
        Record::new(manifest, result, 17)
    }

    fn trials(samples: usize, error_fraction: f64) -> Option<TrialSummary> {
        Some(TrialSummary {
            samples: vec![1.0; samples],
            error_fraction,
            total_runs: 4,
        })
    }

    #[test]
    fn wrong_consensus_of_an_exact_protocol_counts() {
        // Four trials, all converged, one to the wrong opinion.
        let r = record(
            "avc",
            CellResult {
                trials: trials(4, 0.25),
                ..CellResult::default()
            },
        );
        assert_eq!(wrong_trials(&r), 1);
        let grid = record(
            "bef(l=10)",
            CellResult {
                values: BTreeMap::from([("wrong".to_string(), 2.0)]),
                ..CellResult::default()
            },
        );
        assert_eq!(wrong_trials(&grid), 2);
        let robust = record(
            "four_state",
            CellResult {
                values: BTreeMap::from([("wrong_fraction".to_string(), 0.75)]),
                ..CellResult::default()
            },
        );
        assert_eq!(wrong_trials(&robust), 3);
    }

    #[test]
    fn budget_stalled_trials_are_not_failures() {
        // One of four trials hit the step budget: `error_fraction` counts it
        // (0.25) but it converged to nothing, so no failure.
        let stalled = record(
            "avc",
            CellResult {
                trials: trials(3, 0.25),
                ..CellResult::default()
            },
        );
        assert_eq!(wrong_trials(&stalled), 0);
        // A stalled grid cell records it as a timeout, not as `wrong`.
        let grid = record(
            "degssu(l=10,t=4)",
            CellResult {
                values: BTreeMap::from([("wrong".to_string(), 0.0), ("timeouts".to_string(), 4.0)]),
                ..CellResult::default()
            },
        );
        assert_eq!(wrong_trials(&grid), 0);
    }

    #[test]
    fn approximate_protocols_may_err() {
        let r = record(
            "three_state",
            CellResult {
                trials: trials(4, 0.5),
                ..CellResult::default()
            },
        );
        assert_eq!(wrong_trials(&r), 0);
    }

    #[test]
    fn digest_ignores_wall_clock_fields() {
        let mut a = record("avc", CellResult::default());
        let mut b = a.clone();
        b.wall_ms = 99_999;
        assert_eq!(records_digest(&[a.clone()]), records_digest(&[b]));
        a.result.notes.push("different payload".to_string());
        assert_ne!(
            records_digest(&[a]),
            records_digest(&[record("avc", CellResult::default())])
        );
    }
}
