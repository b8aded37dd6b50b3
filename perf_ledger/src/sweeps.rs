//! Timed sweeps of a workload into a fresh store: the untraced rep that
//! gives the end-to-end metrics, and the traced rep that puts spans around
//! the program calls and the cells, then times `sweep::run`'s per-cell
//! bookkeeping one call at a time.

use crate::oracle;
use crate::trace::Tracer;
use crate::workload::Inputs;
use avc_analysis::harness::{BatchStats, StatsCollector};
use avc_population::telemetry::export::JsonlWriter;
use avc_store::record::{CellResult, Record};
use avc_store::store::Store;
use avc_store::sweep::{self, Plan};
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Harness activity during one cell: the difference of two
/// `StatsCollector` snapshots taken around it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Batch {
    /// Batch wall time, s.
    pub wall_s: f64,
    /// Summed worker busy time, s.
    pub busy_s: f64,
    /// Scheduler steps over all trials (`RunOutcome.steps`).
    pub steps: u64,
}

impl Batch {
    fn between(before: &BatchStats, after: &BatchStats) -> Batch {
        let busy = |s: &BatchStats| s.worker_busy.iter().sum::<Duration>();
        Batch {
            wall_s: (after.wall - before.wall).as_secs_f64(),
            busy_s: (busy(after) - busy(before)).as_secs_f64(),
            steps: after.events - before.events,
        }
    }
}

/// One executed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRun {
    /// The cell's label.
    pub label: String,
    /// When the cell closure was called.
    pub started: Instant,
    /// When it returned.
    pub ended: Instant,
    /// Harness activity inside it.
    pub batch: Batch,
}

impl CellRun {
    /// Wall time of the cell closure, s.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.ended.duration_since(self.started).as_secs_f64()
    }
}

/// What one sweep of the workload produced. The records themselves are
/// summarized and dropped, so that sweeps repeated in one process do not
/// pile up memory the program never held.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Plan build to the end of export, s.
    pub sweep_s: f64,
    /// Plan build to the first cell dispatch, s.
    pub setup_s: f64,
    /// Cells in execution order (which is record order).
    pub cells: Vec<CellRun>,
    /// The records digest (see [`oracle::records_digest`]).
    pub digest: String,
    /// Trials attempted over the sweep.
    pub trials: u64,
    /// Exact-protocol trials that reached the wrong consensus.
    pub wrong: u64,
    /// Deterministic interactions: `sim.steps` of cells with telemetry,
    /// the harness' per-trial step counts for the rest.
    pub steps: u64,
}

impl Rep {
    fn new(sweep_s: f64, setup_s: f64, cells: Vec<CellRun>, records: &[Record]) -> Result<Rep, String> {
        let steps = records
            .iter()
            .zip(&cells)
            .map(|(r, c)| oracle::telemetry_steps(r).unwrap_or(c.batch.steps))
            .sum();
        Ok(Rep {
            sweep_s,
            setup_s,
            digest: oracle::records_digest(records),
            trials: records
                .iter()
                .map(|r| oracle::trials_of(&r.manifest))
                .sum::<Result<u64, String>>()?,
            wrong: records.iter().map(oracle::wrong_trials).sum(),
            steps,
            cells,
        })
    }

    /// The slowest cell.
    #[must_use]
    pub fn critical(&self) -> &CellRun {
        self.cells
            .iter()
            .max_by(|a, b| a.wall_s().total_cmp(&b.wall_s()))
            .expect("every workload has cells")
    }
}

/// A cell that panicked: its label and the trials it took down with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Panicked {
    /// The cell's label.
    pub label: String,
    /// Trials the cell was to run.
    pub trials: u64,
}

/// What the instrumented cell closures saw.
#[derive(Debug, Default)]
struct CellLog {
    cells: Vec<CellRun>,
    panicked: Option<Panicked>,
}

/// Wraps every cell closure of `plan` so it logs when it ran and the
/// harness activity inside it. A panicking cell is logged and the panic
/// continues.
fn instrument(plan: &mut Plan, log: &Rc<RefCell<CellLog>>) {
    for cell in &mut plan.cells {
        let inner = std::mem::replace(&mut cell.run, Box::new(|_| CellResult::default()));
        let log = Rc::clone(log);
        let label = cell.label.clone();
        let trials = oracle::trials_of(&cell.manifest).unwrap_or(0);
        cell.run = Box::new(move |stats: &StatsCollector| {
            let before = stats.snapshot();
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| inner(stats)));
            let ended = Instant::now();
            match result {
                Ok(result) => {
                    let batch = Batch::between(&before, &stats.snapshot());
                    log.borrow_mut().cells.push(CellRun {
                        label: label.clone(),
                        started,
                        ended,
                        batch,
                    });
                    result
                }
                Err(payload) => {
                    log.borrow_mut().panicked = Some(Panicked {
                        label: label.clone(),
                        trials,
                    });
                    resume_unwind(payload)
                }
            }
        });
    }
}

/// Why a sweep did not complete.
#[derive(Debug)]
pub enum SweepError {
    /// A cell panicked.
    Panicked(Panicked),
    /// The program returned an error (I/O, plan load, export).
    Failed(String),
}

impl From<String> for SweepError {
    fn from(message: String) -> SweepError {
        SweepError::Failed(message)
    }
}

/// Runs `f`, under a span named `name` when there is a tracer.
fn span<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tracer) => tracer.time(name, f),
        None => f(),
    }
}

/// A finished sweep and where its spans are.
struct Swept {
    rep: Rep,
    records: Vec<Record>,
    journal: PathBuf,
}

/// One sweep, the way `avc sweep` + `avc export` run it: build the plans,
/// open a fresh store, `sweep::run` every plan into it, then
/// `sweep::export` every plan. The cell closures are wrapped to log their
/// dispatch, wall time and harness activity. With a tracer, the calls get
/// spans under a root `sweep` span, and each cell a `cell` span (its
/// manifest hash as trace id) under its plan's `sweep.run`; the part of a
/// `sweep.run` outside its cells is `sweep::run`'s own per-cell
/// bookkeeping.
fn sweep_into(
    inputs: &Inputs,
    store_dir: &Path,
    mut tracer: Option<&mut Tracer>,
) -> Result<Swept, SweepError> {
    let log = Rc::new(RefCell::new(CellLog::default()));
    let stats = StatsCollector::new();
    let root = tracer.as_deref_mut().map(|t| t.enter("sweep", None));
    // (plan's `sweep.run` span, cells logged when it returned)
    let mut runs: Vec<(Option<usize>, usize)> = Vec::new();
    let mut journal = PathBuf::new();
    let started = Instant::now();
    let ran = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        let mut plans = span(&mut tracer, "plan.build", || inputs.build_plans())?;
        for plan in &mut plans {
            instrument(plan, &log);
        }
        let mut store =
            span(&mut tracer, "store.open", || Store::open(store_dir)).map_err(|e| e.to_string())?;
        journal = sweep::telemetry_path(&store);
        for plan in &plans {
            let id = tracer.as_deref_mut().map(|t| t.enter("sweep.run", None));
            let outcome = sweep::run(&mut store, plan, &stats, false);
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
                t.exit(id);
            }
            runs.push((id, log.borrow().cells.len()));
            outcome.map_err(|e| e.to_string())?;
        }
        for plan in &plans {
            span(&mut tracer, "sweep.export", || check_export(&store, plan))?;
        }
        Ok(())
    }));
    let sweep_s = started.elapsed().as_secs_f64();
    let mut log = log.take();
    match ran {
        Ok(Ok(())) => {}
        Ok(Err(message)) => return Err(SweepError::Failed(message)),
        Err(payload) => match log.panicked.take() {
            Some(panicked) => return Err(SweepError::Panicked(panicked)),
            None => resume_unwind(payload),
        },
    }
    let records = oracle::load_records(store_dir)?;
    if let (Some(tracer), Some(root)) = (tracer, root) {
        tracer.exit(root);
        let mut first = 0;
        for &(run, logged) in &runs {
            let run = run.expect("a traced sweep opens a span per plan");
            for (cell, record) in log.cells[first..logged].iter().zip(&records[first..]) {
                let (start, end) = (tracer.ns_of(cell.started), tracer.ns_of(cell.ended));
                tracer.record("cell", start, end, run, Some(&record.hash));
            }
            first = logged;
        }
    }
    let first = log
        .cells
        .first()
        .ok_or_else(|| "the sweep dispatched no cell".to_string())?;
    let setup_s = first.started.duration_since(started).as_secs_f64();
    Ok(Swept {
        rep: Rep::new(sweep_s, setup_s, log.cells, &records)?,
        records,
        journal,
    })
}

/// One untraced sweep (see [`sweep_into`]).
///
/// # Errors
///
/// A panicking cell, or any error the program reports.
pub fn untraced(inputs: &Inputs, store_dir: &Path) -> Result<Rep, SweepError> {
    sweep_into(inputs, store_dir, None).map(|swept| swept.rep)
}

/// Every export must assemble, with one row per cell in each table.
fn check_export(store: &Store, plan: &Plan) -> Result<(), String> {
    let export = sweep::export(store, plan)?;
    if export.tables.is_empty()
        || export
            .tables
            .iter()
            .any(|(_, t)| t.num_rows() != plan.cells.len())
    {
        return Err(format!(
            "export of {} does not have one row per cell",
            plan.name
        ));
    }
    Ok(())
}

/// A traced sweep's extra bookkeeping.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The sweep itself.
    pub rep: Rep,
    /// Its durable records, for the replay.
    pub records: Vec<Record>,
    /// Index of its root `sweep` span in the tracer.
    pub root: usize,
    /// Index one past its last span, the timed pieces included.
    pub end: usize,
    /// Canonical manifest bytes fed to SHA-256.
    pub bytes_hashed: u64,
    /// Bytes the store appends wrote (`wchar` of `/proc/self/io`).
    pub bytes_written: u64,
    /// Size of the telemetry journal at the end.
    pub journal_bytes: u64,
}

/// One traced sweep (see [`sweep_into`]), followed by the pieces of
/// `sweep::run`'s per-cell bookkeeping timed one call at a time (see
/// [`time_pieces`]).
///
/// # Errors
///
/// As [`untraced`], and I/O errors of the timed pieces.
pub fn traced(
    inputs: &Inputs,
    store_dir: &Path,
    tracer: &mut Tracer,
) -> Result<Traced, SweepError> {
    let root = tracer.spans().len();
    let swept = sweep_into(inputs, store_dir, Some(tracer))?;
    let pieces = time_pieces(&swept, &store_dir.join("pieces"), tracer)?;
    let journal_bytes = std::fs::metadata(&swept.journal).map_or(0, |m| m.len());
    Ok(Traced {
        rep: swept.rep,
        records: swept.records,
        root,
        end: tracer.spans().len(),
        bytes_hashed: pieces.bytes_hashed,
        bytes_written: pieces.bytes_written,
        journal_bytes,
    })
}

/// Counts from the timed pieces.
struct Pieces {
    bytes_hashed: u64,
    bytes_written: u64,
}

/// Times, after the sweep and under a `pieces` span, the program calls
/// `sweep::run` makes between cells, one call at a time, on the sweep's
/// own records and journal lines: `Manifest::hash` and `Record::new`
/// (which hashes the manifest again) as `manifest.hash`, `Store::append`
/// into a scratch store as `store.append`, and `JsonlWriter::open` +
/// `append` into a scratch journal as `sweep.journal_append`. The bytes
/// each append writes are taken from the process' `wchar` counter.
fn time_pieces(swept: &Swept, scratch: &Path, tracer: &mut Tracer) -> Result<Pieces, String> {
    let lines = match std::fs::read_to_string(&swept.journal) {
        Ok(text) => text.lines().map(str::to_string).collect(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", swept.journal.display())),
    };
    let mut store = Store::open(scratch).map_err(|e| e.to_string())?;
    let root = tracer.enter("pieces", None);
    let mut pieces = Pieces {
        bytes_hashed: 0,
        bytes_written: 0,
    };
    for record in &swept.records {
        tracer.time("manifest.hash", || record.manifest.hash());
        let (manifest, result) = (record.manifest.clone(), record.result.clone());
        let fresh = tracer.time("manifest.hash", || Record::new(manifest, result, record.wall_ms));
        pieces.bytes_hashed += 2 * record.manifest.canonical().len() as u64;
        let before = wchar()?;
        tracer
            .time("store.append", || store.append(fresh))
            .map_err(|e| e.to_string())?;
        pieces.bytes_written += wchar()? - before;
    }
    let mut journal = tracer
        .time("sweep.journal_append", || {
            JsonlWriter::open(&sweep::telemetry_path(&store))
        })
        .map_err(|e| e.to_string())?;
    for line in &lines {
        tracer
            .time("sweep.journal_append", || journal.append(line))
            .map_err(|e| e.to_string())?;
    }
    tracer.exit(root);
    Ok(pieces)
}

/// Bytes this process has passed to write calls (`wchar`).
fn wchar() -> Result<u64, String> {
    let io = std::fs::read_to_string("/proc/self/io").map_err(|e| format!("/proc/self/io: {e}"))?;
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "no wchar in /proc/self/io".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{quick_inputs, Workload};

    #[test]
    fn traced_sweep_writes_the_same_records() {
        for workload in Workload::ALL {
            let (inputs, dir) = quick_inputs(workload, "traced");
            let plain = untraced(&inputs, &dir.join("plain")).expect("untraced sweep");
            let mut tracer = Tracer::new();
            let traced = traced(&inputs, &dir.join("traced"), &mut tracer).expect("traced sweep");
            assert_eq!(plain.digest, traced.rep.digest, "{}", workload.name());
            assert_eq!(plain.cells.len(), traced.rep.cells.len());
            assert_eq!(plain.wrong, 0);
            assert!(plain.setup_s > 0.0 && plain.setup_s < plain.sweep_s);
            let spans = &tracer.spans()[traced.root..traced.end];
            assert_eq!(spans[0].name, "sweep");
            let cells: Vec<_> = spans.iter().filter(|s| s.name == "cell").collect();
            assert_eq!(cells.len(), traced.records.len());
            for (cell, record) in cells.iter().zip(&traced.records) {
                assert_eq!(cell.trace.as_deref(), Some(record.hash.as_str()));
                let parent = cell.parent.expect("a cell runs inside sweep.run");
                assert_eq!(tracer.spans()[parent].name, "sweep.run");
            }
            let appends = spans.iter().filter(|s| s.name == "store.append").count();
            assert_eq!(appends, traced.records.len());
            assert!(traced.bytes_written > 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
