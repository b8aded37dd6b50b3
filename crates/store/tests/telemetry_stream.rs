//! Golden determinism tests for the sweep telemetry stream: a fixed-seed
//! `avc sweep fig3 --quick`, and a fixed-seed
//! `avc sweep examples/scenarios/rivals_margin1.grid.json --quick`, must
//! each produce a byte-identical `telemetry.jsonl` at `--threads 1` and
//! `--threads 4`. The grid case also compares `records.jsonl`: its cells
//! run the agent engine under adversarial schedulers, so a reused engine
//! that leaked scheduler or sink state from one trial into the next would
//! show up there.
//!
//! Wall-clock sections are inherently run-dependent, so both child
//! processes run with `AVC_TELEMETRY_NOWALL` set (scoped to the subprocess
//! — nothing leaks into this test harness), which makes every journal line
//! pure simulation-derived data. The remaining content is deterministic
//! because cell seeds are fixed and the harness folds per-trial telemetry
//! in trial-index order regardless of worker count.

use avc_population::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("avc-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn sweep(name: &str, dir: &Path, threads: &str) {
    let status = Command::new(env!("CARGO_BIN_EXE_avc"))
        .args(["sweep", name, "--quick", "--threads", threads])
        .args(["--out", dir.to_str().expect("utf-8 temp path")])
        .env("AVC_TELEMETRY_NOWALL", "1")
        .status()
        .expect("spawn avc");
    assert!(
        status.success(),
        "sweep {name} at --threads {threads} failed"
    );
}

fn read(dir: &Path, file: &str) -> Vec<u8> {
    let path = dir.join("store").join(file);
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing {}: {e}", path.display()))
}

/// Runs `name` at `--threads 1` and `--threads 4`, asserts every named
/// store file is byte-identical across the two, and returns the serial
/// run's telemetry stream.
fn assert_worker_count_invariant(name: &str, tag: &str, files: &[&str]) -> String {
    let serial = temp_dir(&format!("{tag}-t1"));
    let parallel = temp_dir(&format!("{tag}-t4"));
    sweep(name, &serial, "1");
    sweep(name, &parallel, "4");
    for file in files {
        let (bytes_1, bytes_4) = (read(&serial, file), read(&parallel, file));
        assert!(!bytes_1.is_empty(), "{tag}: {file} is empty");
        assert_eq!(
            bytes_1, bytes_4,
            "{tag}: {file} differs between --threads 1 and --threads 4"
        );
    }
    let text = String::from_utf8(read(&serial, "telemetry.jsonl")).expect("utf-8 stream");
    let _ = std::fs::remove_dir_all(&serial);
    let _ = std::fs::remove_dir_all(&parallel);
    text
}

/// Sanity on the stream shape: one line per cell, each a JSON object
/// carrying the cell identity and a sim-only telemetry block.
fn assert_stream_shape(text: &str, cells: usize) {
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), cells, "the sweep journals one line per cell");
    for line in lines {
        let parsed = Json::parse(line).expect("journal line parses");
        assert!(parsed.get("hash").is_some(), "line missing hash: {line}");
        assert!(parsed.get("cell").is_some(), "line missing cell: {line}");
        let telemetry = parsed.get("telemetry").expect("line missing telemetry");
        assert!(telemetry.get("sim").is_some(), "telemetry missing sim half");
        assert!(
            telemetry.get("wall").is_none(),
            "wall section present despite AVC_TELEMETRY_NOWALL"
        );
    }
}

#[test]
fn telemetry_stream_is_byte_identical_across_worker_counts() {
    let text = assert_worker_count_invariant("fig3", "fig3", &["telemetry.jsonl"]);
    assert_stream_shape(&text, 9);
}

#[test]
fn rival_grid_stream_and_records_are_byte_identical_across_worker_counts() {
    let grid = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/rivals_margin1.grid.json"
    );
    let text = assert_worker_count_invariant(
        grid,
        "rivals-margin1",
        &["telemetry.jsonl", "records.jsonl"],
    );
    assert_stream_shape(&text, 12);
}
