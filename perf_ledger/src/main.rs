//! `avc-perf-ledger`: the end-to-end sweep benchmark with a per-layer
//! ledger.
//!
//! ```text
//! cargo run --release --offline --manifest-path perf_ledger/Cargo.toml -- \
//!     --workload fig3|rivals|robustness --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path perf_ledger/Cargo.toml -- --benchmark-json
//! ```
//!
//! Each run sweeps one workload, again and again for `--seconds`, each
//! time into a fresh store, the way `avc sweep` + `avc export` do, and
//! checks the records. With `--trace 0` the last line of stdout is a JSON
//! object carrying the end-to-end metrics; with `--trace 1` it carries the
//! per-layer ledger from a traced run. A readable ledger goes to stderr.
//! See `perf_ledger/README.md`.

mod calib;
mod heap;
mod ledger;
mod oracle;
mod replay;
mod sweeps;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use sweeps::{Panicked, Rep, SweepError};
use trace::Tracer;
use workload::{Inputs, Profile, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Fewest untraced sweeps per run, however long they take (a traced run
/// pairs each with a traced sweep, and needs fewer).
const MIN_REPS: usize = 3;
const MIN_TRACED_REPS: usize = 2;
/// Most harness workers (the measurement box has two cores).
const MAX_WORKERS: usize = 2;
/// Master seed of the reference profile.
const REFERENCE_SEED: u64 = 1;

/// Parsed command line.
struct Cli {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_cli(tokens: &[String]) -> Result<Cli, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = tokens
            .iter()
            .position(|t| t == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        tokens
            .get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects a non-negative integer"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    Ok(Cli {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace,
    })
}

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    if tokens.iter().any(|t| t == "--benchmark-json") {
        print!("{}", ledger::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let cli = match parse_cli(&tokens) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let work = package
        .join("work")
        .join(format!("{}-{}", cli.workload.name(), std::process::id()));
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("{}: {e}", work.display()))
        .and_then(|()| measure(&cli, package, &work));
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs the workload for the requested time and returns the result line.
fn measure(cli: &Cli, package: &Path, work: &Path) -> Result<String, String> {
    let repo = package
        .parent()
        .ok_or("the benchmark package sits inside the repository")?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.min(MAX_WORKERS);
    let name = cli.workload.name();
    eprintln!(
        "== perf_ledger {name} seed={} trace={} workers={workers} nproc={nproc}",
        cli.seed,
        u8::from(cli.trace)
    );

    let calib_start = calib::calib_s();
    let mismatch = reference_check(cli.workload, workers, package, repo, work)?;
    let inputs = Inputs::prepare(
        cli.workload,
        Profile::Measured,
        cli.seed,
        workers,
        repo,
        work,
    )?;

    let deadline = Instant::now() + Duration::from_secs(cli.seconds);
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::new();
    let mut scratch = 0usize;
    let mut fresh = || {
        scratch += 1;
        work.join(format!("store-{scratch}"))
    };
    let min_reps = if cli.trace { MIN_TRACED_REPS } else { MIN_REPS };
    while reps.len() < min_reps || Instant::now() < deadline {
        let dir = fresh();
        match sweeps::untraced(&inputs, &dir) {
            Ok(rep) => {
                eprintln!("sweep {}: {:.4} s", reps.len() + 1, rep.sweep_s);
                reps.push(rep);
            }
            Err(e) => return failure(e, &reps),
        }
        remove(&dir);
        if cli.trace {
            let dir = fresh();
            match sweeps::traced(&inputs, &dir, &mut tracer) {
                Ok(t) => traced.push(t),
                Err(e) => return failure(e, &reps),
            }
            remove(&dir);
        }
    }

    let trials = reps[0].trials;
    let attempted = trials * reps.len() as u64;
    let failed: u64 = reps.iter().map(|r| r.wrong).sum();
    let digests: Vec<&str> = reps
        .iter()
        .chain(traced.iter().map(|t| &t.rep))
        .map(|r| r.digest.as_str())
        .collect();
    let deterministic = digests.iter().all(|d| *d == digests[0]);
    if !deterministic {
        eprintln!("NONDETERMINISM: records digests differ between sweeps of one seed: {digests:?}");
    }
    if failed > 0 {
        eprintln!("WRONG CONSENSUS: {failed} exact-protocol trials converged to the minority");
    }
    let mut correct = deterministic && failed == 0;

    let critical = reps[reps.len() / 2].critical();
    eprintln!(
        "{} sweeps, records digest {}; critical cell {} ({:.3} s)",
        reps.len(),
        &digests[0][..16],
        critical.label,
        critical.wall_s()
    );

    let metrics = if cli.trace {
        let start = tracer.spans().len();
        let last = traced.last().expect("one traced rep at least");
        let counts = match replay::replay(&last.records, &mut tracer) {
            Ok(counts) => counts,
            Err(e) => {
                eprintln!("REPLAY MISMATCH: {e}");
                correct = false;
                replay::ReplayCounts::default()
            }
        };
        let run = ledger::TracedRun {
            spans: tracer.spans(),
            traced: &traced,
            untraced: &reps,
            replay: start..tracer.spans().len(),
            counts: &counts,
            workers,
        };
        let mut metrics = ledger::per_layer(&run);
        eprintln!("{}", ledger::accounting(tracer.spans(), last));
        let calib_end = calib::calib_s();
        report_calibration(calib_start, calib_end);
        metrics.extend([
            ("calib.start_s", calib_start),
            ("calib.end_s", calib_end),
            ("calib.drift", calib::drift(calib_start, calib_end)),
            ("oracle.reference_mismatch", f64::from(u8::from(mismatch))),
        ]);
        let spans_path = package
            .join("work")
            .join(format!("spans-{name}-seed{}.jsonl", cli.seed));
        tracer
            .write_jsonl(&spans_path)
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        eprintln!("spans written to {}", spans_path.display());
        metrics
    } else {
        let metrics = ledger::end_to_end(&reps, peak_rss_mib()?, trials);
        let calib_end = calib::calib_s();
        report_calibration(calib_start, calib_end);
        metrics
    };
    print_ledger(&metrics);
    Ok(ledger::result_line(correct, attempted, failed, &metrics))
}

/// Sweeps the workload's quick profile at the reference seed and compares
/// its records digest with the committed one. Returns whether they differ.
/// A difference is reported by name but does not fail the run: a change
/// that alters RNG streams changes the digest without being wrong.
fn reference_check(
    workload: Workload,
    workers: usize,
    package: &Path,
    repo: &Path,
    work: &Path,
) -> Result<bool, String> {
    let dir = work.join("reference");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let inputs = Inputs::prepare(
        workload,
        Profile::Quick,
        REFERENCE_SEED,
        workers,
        repo,
        &dir,
    )?;
    let rep = match sweeps::untraced(&inputs, &dir.join("store")) {
        Ok(rep) => rep,
        Err(SweepError::Failed(e)) => return Err(format!("reference profile: {e}")),
        Err(SweepError::Panicked(p)) => {
            return Err(format!("reference profile: cell {} panicked", p.label))
        }
    };
    remove(&dir);
    let expected = reference_digest(package, workload)?;
    let mismatch = expected != rep.digest;
    if mismatch {
        eprintln!(
            "REFERENCE MISMATCH: workload {} quick profile (seed {REFERENCE_SEED}) records digest {}, \
             reference {expected}",
            workload.name(),
            rep.digest
        );
    }
    Ok(mismatch)
}

/// The committed reference digest of a workload (`reference.json`).
fn reference_digest(package: &Path, workload: Workload) -> Result<String, String> {
    let path = package.join("reference.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json =
        avc_population::json::Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    json.get("digests")
        .and_then(|d| d.get(workload.name()))
        .and_then(|d| d.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("{} has no digest for {}", path.display(), workload.name()))
}

/// The result line of a run in which a cell panicked, or an error.
fn failure(error: SweepError, reps: &[Rep]) -> Result<String, String> {
    match error {
        SweepError::Failed(message) => Err(message),
        SweepError::Panicked(Panicked { label, trials }) => {
            eprintln!("PANIC: cell {label} panicked; its {trials} trials count as failed");
            let done: u64 = reps.iter().map(|r| r.trials).sum();
            Ok(ledger::result_line(false, done + trials, trials, &[]))
        }
    }
}

fn report_calibration(start: f64, end: f64) {
    let drift = calib::drift(start, end);
    let bound = ledger::END_TO_END[0].bound;
    let flag = if drift > bound {
        "  DRIFTED beyond the sweep_s bound"
    } else {
        ""
    };
    eprintln!(
        "calibration: start {start:.4} s, end {end:.4} s, drift {:.1}%{flag}",
        drift * 100.0
    );
}

fn print_ledger(metrics: &[(&'static str, f64)]) {
    for &(name, value) in metrics {
        eprintln!("  {name:<34} {value:>16.6} {}", ledger::unit_of(name));
    }
}

/// The process' resident-set high-water mark (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn remove(dir: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
}
