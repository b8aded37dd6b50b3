//! Seeded multi-trial experiment runners.
//!
//! # Parallel determinism
//!
//! Batches run under a [`Parallelism`] knob (`Serial | Threads(n) | Auto`).
//! Every trial draws its RNG from its own [`SeedSequence`] stream, keyed by
//! the trial index alone, so a trial's outcome does not depend on which
//! worker ran it or in what order. Workers pull indices from a shared atomic
//! counter and results are scattered back by index, making the full
//! [`TrialResults`] — and therefore every [`Summary`] derived from it —
//! **bit-identical to a serial run for any worker count and any
//! scheduling**. `tests/parallel_determinism.rs` enforces this.

use crate::stats::{fraction, Summary};
use avc_population::cached::Cached;
use avc_population::driver::{Driver, NullObserver, Observer};
use avc_population::engine::ChunkedSimulator;
use avc_population::faults::FaultPlan;
use avc_population::rngutil::SeedSequence;
use avc_population::scenario::{build_erased, build_erased_with_sink};
use avc_population::spec::RunOutcome;
use avc_population::telemetry::{
    keys, CellTelemetry, CountingSink, HistogramSnapshot, MetricValue, NoopSink, RegistrySnapshot,
    Sink, Span, TelemetryObserver,
};
use avc_population::{
    Config, ConvergenceRule, Opinion, Protocol, ProtocolSpec, Scenario, SchedulerSpec,
};
use avc_protocols::{Avc, Bef, Degssu, FourState, ThreeState, Voter};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How to spread a batch of trials across OS threads.
///
/// Regardless of the choice, trial `i` always consumes seed stream `i`, so
/// the knob changes wall-clock time only — never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Run every trial on the calling thread.
    Serial,
    /// Shard across exactly `n` worker threads (`n ≥ 1`).
    Threads(usize),
    /// Shard across [`std::thread::available_parallelism`] workers.
    #[default]
    Auto,
}

impl Parallelism {
    /// The number of workers this setting resolves to on this machine.
    ///
    /// # Panics
    ///
    /// Panics on `Threads(0)`.
    #[must_use]
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => {
                assert!(n >= 1, "Threads(0) would have no workers");
                n
            }
            Parallelism::Auto => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Throughput telemetry for one or more trial batches.
///
/// Wall-clock only — parallel workers race, so none of these numbers feed
/// back into results. Batches accumulate with [`BatchStats::absorb`].
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Trials completed.
    pub trials: u64,
    /// Scheduler events (interaction steps, including skipped null steps)
    /// simulated across all trials.
    pub events: u64,
    /// Wall-clock time, summed over batches.
    pub wall: Duration,
    /// Trials completed by each worker (indexed by worker).
    pub worker_trials: Vec<u64>,
    /// Events simulated by each worker.
    pub worker_events: Vec<u64>,
    /// Busy time of each worker (its loop duration, not the batch wall).
    pub worker_busy: Vec<Duration>,
}

impl BatchStats {
    /// Events simulated per wall-clock second (0 if no time elapsed).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }

    /// Per-worker utilization: busy time as a fraction of the wall clock.
    #[must_use]
    pub fn utilization(&self) -> Vec<f64> {
        let secs = self.wall.as_secs_f64();
        self.worker_busy
            .iter()
            .map(|b| {
                if secs > 0.0 {
                    b.as_secs_f64() / secs
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Accumulates another batch into this one (summing per-worker vectors
    /// element-wise, extending if the other batch used more workers).
    pub fn absorb(&mut self, other: &BatchStats) {
        self.trials += other.trials;
        self.events += other.events;
        self.wall += other.wall;
        grow_to(&mut self.worker_trials, other.worker_trials.len(), 0);
        grow_to(&mut self.worker_events, other.worker_events.len(), 0);
        grow_to(
            &mut self.worker_busy,
            other.worker_busy.len(),
            Duration::ZERO,
        );
        for (mine, theirs) in self.worker_trials.iter_mut().zip(&other.worker_trials) {
            *mine += theirs;
        }
        for (mine, theirs) in self.worker_events.iter_mut().zip(&other.worker_events) {
            *mine += theirs;
        }
        for (mine, theirs) in self.worker_busy.iter_mut().zip(&other.worker_busy) {
            *mine += *theirs;
        }
    }
}

fn grow_to<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if v.len() < len {
        v.resize(len, fill);
    }
}

impl fmt::Display for BatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} trials, {} events in {:.2?} ({:.3e} events/s)",
            self.trials,
            self.events,
            self.wall,
            self.events_per_sec()
        )?;
        if self.worker_busy.len() > 1 {
            write!(f, "; worker utilization")?;
            for u in self.utilization() {
                write!(f, " {:.0}%", u * 100.0)?;
            }
        }
        Ok(())
    }
}

/// A thread-safe accumulator of [`BatchStats`] across experiment cells —
/// the observability hook the CLI binaries print.
///
/// With [`StatsCollector::verbose`], each recorded batch also emits a
/// progress line to stderr (trials completed so far and the running event
/// rate), which is cheap enough to leave on for long sweeps.
#[derive(Debug, Default)]
pub struct StatsCollector {
    totals: Mutex<BatchStats>,
    verbose: bool,
}

impl StatsCollector {
    /// A quiet collector.
    #[must_use]
    pub fn new() -> StatsCollector {
        StatsCollector::default()
    }

    /// A collector that prints a progress line per recorded batch.
    #[must_use]
    pub fn verbose() -> StatsCollector {
        StatsCollector {
            totals: Mutex::new(BatchStats::default()),
            verbose: true,
        }
    }

    /// Folds one batch into the running totals.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a worker panicked).
    pub fn record(&self, batch: &BatchStats) {
        let mut totals = self.totals.lock().expect("stats lock poisoned");
        totals.absorb(batch);
        if self.verbose {
            eprintln!("[progress] {totals}");
        }
    }

    /// A copy of the accumulated totals.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock is poisoned (a worker panicked).
    #[must_use]
    pub fn snapshot(&self) -> BatchStats {
        self.totals.lock().expect("stats lock poisoned").clone()
    }
}

/// Evaluates `task(i)` for `i ∈ 0..runs` under the given [`Parallelism`] and
/// returns the results in index order, with throughput telemetry built from
/// the event count `task` reports per trial.
///
/// The output is identical for every parallelism setting; only wall-clock
/// time differs. `task` must therefore derive any randomness it needs from
/// the index alone (e.g. via [`SeedSequence::rng_for`]).
///
/// # Panics
///
/// Panics if a worker thread panics, propagating the failure.
pub fn run_indexed_with_stats<T, F>(
    runs: u64,
    parallelism: Parallelism,
    task: F,
) -> (Vec<T>, BatchStats)
where
    T: Send,
    F: Fn(u64) -> (T, u64) + Sync,
{
    run_indexed_with_ctx(runs, parallelism, || (), |(), i| task(i))
}

/// As [`run_indexed_with_stats`], but every worker lazily builds one
/// private context with `init` and threads it through each trial it claims
/// — the reuse seam behind zero-reallocation trial batches
/// ([`reset_erased`](avc_population::engine::ErasedChunkedSim::reset_erased) reinitializes a long-lived engine in
/// place between trials).
///
/// The context never crosses threads (workers are scoped and results travel
/// home without it), so `C` needs neither `Send` nor `Sync`. Determinism is
/// unaffected: trial `i` must still derive all randomness from its index
/// alone, and a correct context carries no trial-to-trial state — worker
/// assignment races, so anything leaking through the context would make
/// results scheduling-dependent.
///
/// # Panics
///
/// Panics if a worker thread panics, propagating the failure.
pub fn run_indexed_with_ctx<T, C, I, F>(
    runs: u64,
    parallelism: Parallelism,
    init: I,
    task: F,
) -> (Vec<T>, BatchStats)
where
    T: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, u64) -> (T, u64) + Sync,
{
    let workers = parallelism.worker_count().min(runs.max(1) as usize);
    let started = Span::start();

    if workers <= 1 {
        let mut out = Vec::with_capacity(runs as usize);
        let mut events = 0u64;
        let mut ctx: Option<C> = None;
        for i in 0..runs {
            let (value, e) = task(ctx.get_or_insert_with(&init), i);
            events += e;
            out.push(value);
        }
        let busy = started.elapsed();
        let stats = BatchStats {
            trials: runs,
            events,
            wall: busy,
            worker_trials: vec![runs],
            worker_events: vec![events],
            worker_busy: vec![busy],
        };
        return (out, stats);
    }

    // Dynamic sharding: workers pull the next unclaimed trial index from a
    // shared counter (so stragglers never idle the rest), and results carry
    // their index home for an order-restoring scatter below.
    type WorkerYield<T> = (Vec<(u64, T)>, u64, Duration);
    let next = AtomicU64::new(0);
    let per_worker: Vec<WorkerYield<T>> = std::thread::scope(|scope| {
        let next = &next;
        let init = &init;
        let task = &task;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let begun = Span::start();
                    let mut local = Vec::new();
                    let mut events = 0u64;
                    // Lazy so a worker that never claims a trial (possible
                    // under dynamic sharding) never pays for a context.
                    let mut ctx: Option<C> = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= runs {
                            break;
                        }
                        let (value, e) = task(ctx.get_or_insert_with(init), i);
                        events += e;
                        local.push((i, value));
                    }
                    (local, events, begun.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trial worker panicked"))
            .collect()
    });
    let wall = started.elapsed();

    let mut stats = BatchStats {
        trials: runs,
        events: 0,
        wall,
        worker_trials: Vec::with_capacity(workers),
        worker_events: Vec::with_capacity(workers),
        worker_busy: Vec::with_capacity(workers),
    };
    let mut slots: Vec<Option<T>> = (0..runs).map(|_| None).collect();
    for (local, events, busy) in per_worker {
        stats.worker_trials.push(local.len() as u64);
        stats.worker_events.push(events);
        stats.worker_busy.push(busy);
        stats.events += events;
        for (i, value) in local {
            debug_assert!(slots[i as usize].is_none(), "trial {i} ran twice");
            slots[i as usize] = Some(value);
        }
    }
    let out = slots
        .into_iter()
        .map(|s| s.expect("every trial index is claimed by exactly one worker"))
        .collect();
    (out, stats)
}

pub use avc_population::scenario::EngineKind;

/// Outcomes of a batch of trials, with the instance's expected winner.
#[derive(Debug, Clone)]
pub struct TrialResults {
    outcomes: Vec<RunOutcome>,
    expected: Option<Opinion>,
}

impl TrialResults {
    /// The raw per-run outcomes.
    #[must_use]
    pub fn outcomes(&self) -> &[RunOutcome] {
        &self.outcomes
    }

    /// Mean parallel convergence time over runs that converged.
    ///
    /// # Panics
    ///
    /// Panics if no run converged.
    #[must_use]
    pub fn mean_parallel_time(&self) -> f64 {
        self.summary().mean
    }

    /// Summary statistics of parallel convergence time over converged runs.
    ///
    /// # Panics
    ///
    /// Panics if no run converged.
    #[must_use]
    pub fn summary(&self) -> Summary {
        let times: Vec<f64> = self
            .outcomes
            .iter()
            .filter(|o| o.verdict.is_consensus())
            .map(|o| o.parallel_time)
            .collect();
        Summary::from_samples(&times)
    }

    /// Fraction of runs that converged to the *wrong* opinion (the paper's
    /// "fraction of runs to error final state", Figure 3 right).
    ///
    /// Runs that did not converge count as errors; ties have no wrong
    /// answer, so the fraction is 0 for tied instances.
    #[must_use]
    pub fn error_fraction(&self) -> f64 {
        let Some(expected) = self.expected else {
            return 0.0;
        };
        fraction(&self.outcomes, |o| !o.verdict.is_correct(expected))
    }

    /// Fraction of runs that converged (to either opinion).
    #[must_use]
    pub fn convergence_fraction(&self) -> f64 {
        fraction(&self.outcomes, |o| o.verdict.is_consensus())
    }

    /// Parallel convergence times of the runs that converged.
    #[must_use]
    pub fn converged_times(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.verdict.is_consensus())
            .map(|o| o.parallel_time)
            .collect()
    }
}

/// Runs one simulation to convergence on the chosen engine.
///
/// Goes through [`Driver::run_erased`], whose one virtual call per chunk
/// lands in the engine's fully monomorphized `SmallRng` chunk loop — the
/// trial hot path has no per-step dynamic dispatch. Protocols whose state
/// space fits under
/// [`Cached::MAX_TABLE_ENTRIES`](avc_population::cached::MAX_TABLE_ENTRIES)
/// are wrapped in a [`Cached`] dense transition table before the engine is
/// built; larger ones keep the arithmetic path. The wrap changes no RNG
/// draws and no results — only per-step cost.
pub fn run_one<P: Protocol + Clone>(
    protocol: &P,
    config: Config,
    engine: EngineKind,
    rule: ConvergenceRule,
    rng: &mut rand::rngs::SmallRng,
    max_steps: u64,
) -> RunOutcome {
    let uniform = &SchedulerSpec::Uniform;
    let mut sim = match Cached::try_new(protocol.clone()) {
        Ok(cached) => build_erased(cached, config, engine, uniform),
        Err(plain) => build_erased(plain, config, engine, uniform),
    }
    .expect("the uniform scheduler is valid for every engine");
    Driver::new(rule)
        .with_max_steps(max_steps)
        .run_erased(sim.as_mut(), rng, &mut NullObserver)
}

/// Runs an already-constructed engine to convergence on the monomorphized
/// driver path (convenience for callers that build their own simulator,
/// e.g. on a non-clique graph).
pub fn drive_to_consensus<S: ChunkedSimulator + ?Sized>(
    sim: &mut S,
    rule: ConvergenceRule,
    rng: &mut rand::rngs::SmallRng,
    max_steps: u64,
) -> RunOutcome {
    Driver::new(rule)
        .with_max_steps(max_steps)
        .run(sim, rng, &mut NullObserver)
}

/// The one batch loop, behind every [`ScenarioPlan`] entry point.
///
/// Each worker builds the scenario's engine **once**, through the
/// [`build_erased_with_sink`] seam with an owned sink from `sink`, and
/// replays every trial it claims through it: [`reset_erased`] to the
/// starting configuration, drive with a fresh observer from `observer`,
/// then hand the outcome, the observer, the engine's drained sink
/// ([`take_telemetry_erased`]) and the trial's start to `finish`. Reset is
/// fresh-equivalent and records nothing (`tests/reuse_reset.rs` pins
/// outcomes, RNG stream position and drained telemetry), so results are
/// bit-identical to per-trial construction at every [`Parallelism`]
/// setting; only the per-trial allocator traffic disappears. Trial `i`
/// draws from stream `i` of the scenario's seed family, and the batch
/// events are the trials' steps.
///
/// [`reset_erased`]: avc_population::engine::ErasedChunkedSim::reset_erased
/// [`take_telemetry_erased`]: avc_population::engine::ErasedChunkedSim::take_telemetry_erased
fn run_batch<P, T, O, X>(
    plan: &ScenarioPlan,
    protocol: &P,
    sink: fn() -> T,
    observer: fn() -> O,
    finish: impl Fn(&RunOutcome, O, RegistrySnapshot, Span) -> X + Sync,
) -> (Vec<(RunOutcome, X)>, BatchStats)
where
    P: Protocol + Clone + Sync,
    T: Sink,
    O: Observer,
    X: Send,
{
    let scenario = &plan.scenario;
    let seeds = match scenario.seed_child {
        Some(child) => SeedSequence::new(scenario.seed).child(child),
        None => SeedSequence::new(scenario.seed),
    };
    let instance = scenario.instance;
    let config = Config::from_input(protocol, instance.a(), instance.b());
    // Build the dense transition cache once per batch; worker threads share
    // it by reference, so even a maximal (128 MiB) table is paid for once.
    let dispatch = Cached::try_new(protocol.clone());
    let driver = Driver::new(scenario.rule).with_max_steps(scenario.max_steps);
    let (engine, scheduler) = (scenario.engine, &scenario.scheduler);
    let build = || {
        match &dispatch {
            Ok(cached) => build_erased_with_sink(cached, config.clone(), engine, scheduler, sink()),
            Err(plain) => build_erased_with_sink(plain, config.clone(), engine, scheduler, sink()),
        }
        .unwrap_or_else(|e| panic!("unrunnable scenario: {e}"))
    };
    run_indexed_with_ctx(scenario.runs, plan.parallelism, build, |sim, trial| {
        let started = Span::start();
        let mut rng = seeds.rng_for(trial);
        let mut observer = observer();
        // A freshly built engine is already in this state; resetting it
        // anyway keeps one uniform per-trial path.
        sim.reset_erased(&config);
        let outcome = if scenario.faults.is_empty() {
            driver.run_erased(sim.as_mut(), &mut rng, &mut observer)
        } else {
            let mut faults = FaultPlan::from_events(scenario.faults.clone());
            driver.run_faulted_erased(sim.as_mut(), &mut rng, &mut observer, &mut faults)
        };
        let probe = finish(&outcome, observer, sim.take_telemetry_erased(), started);
        ((outcome, probe), outcome.steps)
    })
}

/// One trial's [`CellTelemetry`]: the engine's drained sink (steps,
/// events, silent steps, chunk sizes, Fenwick descents, phase switches)
/// and the convergence outcome in the deterministic `sim` half; the
/// observer's chunk latencies and the trial's wall time in the `wall` half.
///
/// The observer's deterministic half is deliberately discarded: its chunk
/// histogram duplicates the sink's (both see the same `advance_chunk`
/// reports), and double-counting would corrupt the merge.
fn trial_telemetry(
    outcome: &RunOutcome,
    observer: TelemetryObserver,
    sim: RegistrySnapshot,
    started: Span,
) -> CellTelemetry {
    let mut cell = CellTelemetry::new();
    cell.sim = sim;
    let converged = outcome.verdict.is_consensus();
    let mut convergence = HistogramSnapshot::new();
    if converged {
        convergence.record(outcome.steps);
    }
    cell.sim.set(
        keys::SIM_CONVERGENCE_STEPS,
        MetricValue::Histogram(convergence),
    );
    cell.sim.set(keys::SIM_TRIALS, MetricValue::Counter(1));
    cell.sim.set(
        keys::SIM_TRIALS_CONVERGED,
        MetricValue::Counter(u64::from(converged)),
    );
    cell.wall = observer.wall_snapshot();
    let mut trial_ns = HistogramSnapshot::new();
    trial_ns.record(started.elapsed_ns());
    cell.wall
        .set(keys::WALL_TRIAL_NS, MetricValue::Histogram(trial_ns));
    cell
}

/// Resolves a [`ProtocolSpec`] to a concrete protocol value and runs `$body`
/// with it bound to `$protocol` — the spec-to-instance mapping the scenario
/// plane leaves to this crate (`avc-population` cannot depend on
/// `avc-protocols`).
macro_rules! with_resolved_protocol {
    ($spec:expr, |$protocol:ident| $body:expr) => {
        match $spec {
            ProtocolSpec::Avc { m, d } => {
                let $protocol = Avc::new(m, d).expect("scenario names a valid AVC instance");
                $body
            }
            ProtocolSpec::Bef { levels } => {
                let $protocol = Bef::new(levels).expect("scenario names a valid BEF instance");
                $body
            }
            ProtocolSpec::Degssu { levels, phase } => {
                let $protocol =
                    Degssu::new(levels, phase).expect("scenario names a valid DEGSSU instance");
                $body
            }
            ProtocolSpec::FourState => {
                let $protocol = FourState;
                $body
            }
            ProtocolSpec::ThreeState => {
                let $protocol = ThreeState::new();
                $body
            }
            ProtocolSpec::Voter => {
                let $protocol = Voter;
                $body
            }
        }
    };
}

/// Number of states of the protocol a [`ProtocolSpec`] names, resolved
/// through the real constructor (not the spec's arithmetic
/// [`ProtocolSpec::state_count`] formula) — the sweep tables' state-count
/// accounting goes through here so the two can be cross-checked.
///
/// # Panics
///
/// Panics on parameters the constructors reject; validate the spec first.
#[must_use]
pub fn spec_states(spec: ProtocolSpec) -> u32 {
    with_resolved_protocol!(spec, |protocol| Protocol::num_states(&protocol))
}

/// Runs any [`Scenario`] — scheduler and fault scenarios included — through
/// the deterministic parallel harness.
///
/// The scenario carries every result-determining knob (protocol, engine,
/// scheduler, faults, rule, step budget, seed policy) and the plan adds
/// only the [`Parallelism`] setting, which never affects results. Every
/// entry point runs the same batch loop, so plain, stats and telemetry
/// runs of one scenario see the same seed streams, RNG draws and outcomes.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct ScenarioPlan {
    scenario: Scenario,
    parallelism: Parallelism,
}

impl ScenarioPlan {
    /// A plan executing `scenario` under automatic parallelism.
    #[must_use]
    pub fn new(scenario: Scenario) -> ScenarioPlan {
        ScenarioPlan {
            scenario,
            parallelism: Parallelism::default(),
        }
    }

    /// Sets how trials are spread across threads. Outcomes are bit-identical
    /// for every setting; only the wall-clock time changes.
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> ScenarioPlan {
        self.parallelism = parallelism;
        self
    }

    /// The scenario this plan executes.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Runs the scenario's batch of trials.
    ///
    /// Trial `i` is seeded from stream `i` of `SeedSequence::new(seed)` (or
    /// of its `seed_child` family), making every batch reproducible
    /// run-for-run — including across [`Parallelism`] settings.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is unrunnable: invalid protocol parameters,
    /// or a non-uniform scheduler on a non-`agent` engine (validate the
    /// [`Scenario`] at parse sites).
    #[must_use]
    pub fn run(&self) -> TrialResults {
        self.run_plain().0
    }

    /// As [`ScenarioPlan::run`], folding throughput telemetry into `stats`.
    #[must_use]
    pub fn run_with_stats(&self, stats: &StatsCollector) -> TrialResults {
        let (results, batch) = self.run_plain();
        stats.record(&batch);
        results
    }

    /// As [`ScenarioPlan::run_with_stats`], additionally capturing
    /// per-trial telemetry aggregated into one [`CellTelemetry`].
    ///
    /// Each worker's engine owns a [`CountingSink`] (engine-level counters),
    /// drained after every trial, and each trial runs with a fresh
    /// [`TelemetryObserver`] on the driver's observer seam (wall-clock chunk
    /// latency). Convergence outcomes are folded in from the
    /// [`RunOutcome`]s. Per-trial snapshots are merged **in trial-index
    /// order after the batch completes**, so the `sim` half of the result is
    /// bit-identical at every [`Parallelism`] setting — the same guarantee
    /// [`TrialResults`] carries. The `wall` half (per-trial and per-chunk
    /// latencies, whole-cell wall time) is nondeterministic by nature and
    /// kept in the separate registry that exports can suppress.
    #[must_use]
    pub fn run_with_telemetry(&self, stats: &StatsCollector) -> (TrialResults, CellTelemetry) {
        let (trials, batch) = with_resolved_protocol!(self.scenario.protocol, |protocol| {
            run_batch(
                self,
                &protocol,
                CountingSink::new,
                TelemetryObserver::new,
                trial_telemetry,
            )
        });
        stats.record(&batch);
        let mut telemetry = CellTelemetry::new();
        let mut outcomes = Vec::with_capacity(trials.len());
        for (outcome, cell) in trials {
            telemetry.merge(&cell);
            outcomes.push(outcome);
        }
        telemetry.wall.set(
            keys::WALL_CELL_NS,
            MetricValue::Counter(u64::try_from(batch.wall.as_nanos()).unwrap_or(u64::MAX)),
        );
        (self.results(outcomes), telemetry)
    }

    fn run_plain(&self) -> (TrialResults, BatchStats) {
        let (trials, batch) = with_resolved_protocol!(self.scenario.protocol, |protocol| {
            run_batch(
                self,
                &protocol,
                || NoopSink,
                || NullObserver,
                |_, _, _, _| (),
            )
        });
        let outcomes = trials.into_iter().map(|(outcome, ())| outcome).collect();
        (self.results(outcomes), batch)
    }

    fn results(&self, outcomes: Vec<RunOutcome>) -> TrialResults {
        TrialResults {
            outcomes,
            expected: self.scenario.instance.winner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avc_population::MajorityInstance;

    #[test]
    fn spec_states_agrees_with_the_state_count_formulas() {
        for spec in [
            ProtocolSpec::Avc { m: 15, d: 3 },
            ProtocolSpec::Bef { levels: 10 },
            ProtocolSpec::Degssu {
                levels: 10,
                phase: 4,
            },
            ProtocolSpec::FourState,
            ProtocolSpec::ThreeState,
            ProtocolSpec::Voter,
        ] {
            assert_eq!(u64::from(spec_states(spec)), spec.state_count(), "{spec}");
        }
    }

    #[test]
    fn spec_validation_bounds_match_the_constructors() {
        // `ProtocolSpec::validate` (in avc-population, which cannot see the
        // constructors) must accept exactly what the constructors accept at
        // the boundary values, or valid scenarios would panic at resolution.
        assert_eq!(Bef::MAX_LEVELS, 32);
        assert_eq!(Degssu::MAX_LEVELS, 32);
        assert_eq!(Degssu::MAX_PHASE, 64);
        for levels in [1, Bef::MAX_LEVELS] {
            assert!(ProtocolSpec::Bef { levels }.validate().is_ok());
            assert!(Bef::new(levels).is_ok());
        }
        assert!(ProtocolSpec::Bef { levels: 33 }.validate().is_err());
        for (levels, phase) in [(1, 1), (Degssu::MAX_LEVELS, Degssu::MAX_PHASE)] {
            assert!(ProtocolSpec::Degssu { levels, phase }.validate().is_ok());
            assert!(Degssu::new(levels, phase).is_ok());
        }
        assert!(ProtocolSpec::Degssu {
            levels: 33,
            phase: 1
        }
        .validate()
        .is_err());
        assert!(ProtocolSpec::Degssu {
            levels: 1,
            phase: 65
        }
        .validate()
        .is_err());
    }

    fn plan(protocol: ProtocolSpec, a: u64, b: u64, engine: EngineKind) -> Scenario {
        Scenario::new(protocol, MajorityInstance::new(a, b)).engine(engine)
    }

    fn run(scenario: Scenario) -> TrialResults {
        ScenarioPlan::new(scenario).run()
    }

    #[test]
    fn trials_are_reproducible() {
        let scenario = plan(ProtocolSpec::FourState, 8, 5, EngineKind::Jump)
            .runs(10)
            .seed(3);
        let a = run(scenario.clone());
        let b = run(scenario);
        assert_eq!(a.outcomes(), b.outcomes());
    }

    #[test]
    fn four_state_never_errs() {
        for engine in [
            EngineKind::Agent,
            EngineKind::Count,
            EngineKind::Jump,
            EngineKind::Adaptive,
        ] {
            let r = run(plan(ProtocolSpec::FourState, 11, 10, engine).runs(30));
            assert_eq!(r.error_fraction(), 0.0, "engine {engine:?}");
            assert_eq!(r.convergence_fraction(), 1.0);
        }
    }

    #[test]
    fn voter_errs_roughly_at_minority_fraction() {
        // P[error] = b/n = 5/20.
        let r = run(plan(ProtocolSpec::Voter, 15, 5, EngineKind::Count)
            .runs(300)
            .seed(1));
        assert!(
            (r.error_fraction() - 0.25).abs() < 0.08,
            "{}",
            r.error_fraction()
        );
    }

    #[test]
    fn tie_instances_have_zero_error_fraction() {
        let r = run(plan(ProtocolSpec::Voter, 5, 5, EngineKind::Count).runs(5));
        assert_eq!(r.error_fraction(), 0.0);
    }

    #[test]
    fn max_steps_shows_up_as_non_convergence() {
        let r = run(plan(ProtocolSpec::Voter, 50, 50, EngineKind::Count)
            .runs(5)
            .max_steps(3));
        assert!(r.convergence_fraction() < 1.0);
    }

    #[test]
    fn three_state_runs_under_state_consensus() {
        let r = run(plan(ProtocolSpec::ThreeState, 40, 20, EngineKind::Auto)
            .rule(ConvergenceRule::StateConsensus)
            .runs(20));
        assert_eq!(r.convergence_fraction(), 1.0);
        assert!(r.summary().mean > 0.0);
    }

    #[test]
    fn run_indexed_preserves_index_order_at_any_width() {
        let expected: Vec<u64> = (0..97).map(|i| i * i).collect();
        for parallelism in [
            Parallelism::Serial,
            Parallelism::Threads(2),
            Parallelism::Threads(5),
            Parallelism::Auto,
        ] {
            let (got, stats) = run_indexed_with_stats(97, parallelism, |i| (i * i, i));
            assert_eq!(got, expected, "{parallelism:?}");
            assert_eq!(stats.events, (0..97).sum::<u64>(), "{parallelism:?}");
        }
    }

    #[test]
    fn run_indexed_handles_more_workers_than_trials() {
        let (got, _) = run_indexed_with_stats(3, Parallelism::Threads(16), |i| (i, 0));
        assert_eq!(got, vec![0, 1, 2]);
        let (none, _) = run_indexed_with_stats(0, Parallelism::Threads(4), |i| (i, 0));
        assert!(none.is_empty());
    }

    #[test]
    fn parallel_trials_match_serial_bit_for_bit() {
        let base = ScenarioPlan::new(
            plan(ProtocolSpec::FourState, 30, 21, EngineKind::Count)
                .runs(24)
                .seed(7),
        );
        let serial = base.clone().parallelism(Parallelism::Serial).run();
        for workers in [2, 3, 8] {
            let parallel = base
                .clone()
                .parallelism(Parallelism::Threads(workers))
                .run();
            assert_eq!(serial.outcomes(), parallel.outcomes(), "{workers} workers");
            assert_eq!(serial.summary(), parallel.summary(), "{workers} workers");
        }
    }

    #[test]
    fn stats_account_for_every_trial_and_event() {
        let collector = StatsCollector::new();
        let r = ScenarioPlan::new(
            plan(ProtocolSpec::Voter, 10, 5, EngineKind::Count)
                .runs(12)
                .seed(2),
        )
        .parallelism(Parallelism::Threads(3))
        .run_with_stats(&collector);
        let stats = collector.snapshot();
        assert_eq!(stats.trials, 12);
        let total_steps: u64 = r.outcomes().iter().map(|o| o.steps).sum();
        assert_eq!(stats.events, total_steps);
        assert_eq!(stats.worker_trials.iter().sum::<u64>(), 12);
        assert_eq!(stats.worker_events.iter().sum::<u64>(), stats.events);
        assert_eq!(stats.worker_busy.len(), stats.worker_trials.len());
    }

    #[test]
    fn batch_stats_absorb_sums_across_batches() {
        let mut a = BatchStats {
            trials: 2,
            events: 10,
            wall: Duration::from_millis(4),
            worker_trials: vec![2],
            worker_events: vec![10],
            worker_busy: vec![Duration::from_millis(4)],
        };
        let b = BatchStats {
            trials: 3,
            events: 5,
            wall: Duration::from_millis(6),
            worker_trials: vec![1, 2],
            worker_events: vec![2, 3],
            worker_busy: vec![Duration::from_millis(3), Duration::from_millis(3)],
        };
        a.absorb(&b);
        assert_eq!(a.trials, 5);
        assert_eq!(a.events, 15);
        assert_eq!(a.wall, Duration::from_millis(10));
        assert_eq!(a.worker_trials, vec![3, 2]);
        assert_eq!(a.worker_events, vec![12, 3]);
        assert!(a.events_per_sec() > 0.0);
        assert_eq!(a.utilization().len(), 2);
    }

    #[test]
    #[should_panic(expected = "Threads(0)")]
    fn zero_threads_is_rejected() {
        let _ = Parallelism::Threads(0).worker_count();
    }

    #[test]
    fn telemetry_matches_outcomes_and_stats() {
        let collector = StatsCollector::new();
        let (r, telemetry) = ScenarioPlan::new(
            plan(ProtocolSpec::FourState, 20, 11, EngineKind::Count)
                .runs(8)
                .seed(5),
        )
        .run_with_telemetry(&collector);
        let total_steps: u64 = r.outcomes().iter().map(|o| o.steps).sum();
        assert_eq!(telemetry.sim.counter(keys::SIM_STEPS), Some(total_steps));
        assert_eq!(telemetry.sim.counter(keys::SIM_TRIALS), Some(8));
        assert_eq!(telemetry.sim.counter(keys::SIM_TRIALS_CONVERGED), Some(8));
        let conv = telemetry
            .sim
            .histogram(keys::SIM_CONVERGENCE_STEPS)
            .unwrap();
        assert_eq!(conv.count, 8);
        assert_eq!(conv.sum, total_steps);
        let stats = collector.snapshot();
        assert_eq!(stats.trials, 8);
        assert_eq!(stats.events, total_steps);
        // Wall half is populated and throughput is derivable.
        assert_eq!(
            telemetry.wall.histogram(keys::WALL_TRIAL_NS).unwrap().count,
            8
        );
        assert!(telemetry.wall.counter(keys::WALL_CELL_NS).is_some());
        assert!(telemetry.steps_per_sec().unwrap() > 0.0);
    }

    #[test]
    fn telemetry_sim_half_is_parallelism_invariant() {
        let base = ScenarioPlan::new(
            plan(ProtocolSpec::ThreeState, 25, 18, EngineKind::Adaptive)
                .rule(ConvergenceRule::StateConsensus)
                .runs(12)
                .seed(9),
        );
        let run = |parallelism| {
            base.clone()
                .parallelism(parallelism)
                .run_with_telemetry(&StatsCollector::new())
        };
        let (serial_r, serial_t) = run(Parallelism::Serial);
        for workers in [2, 5] {
            let (r, t) = run(Parallelism::Threads(workers));
            assert_eq!(serial_r.outcomes(), r.outcomes(), "{workers} workers");
            assert_eq!(serial_t.sim, t.sim, "{workers} workers");
        }
        // RNG-invisibility: the uninstrumented path sees identical outcomes.
        assert_eq!(base.run().outcomes(), serial_r.outcomes());
        assert!(serial_t.sim.counter(keys::SIM_STEPS).unwrap() > 0);
    }

    /// The reference the reuse loop must reproduce: every trial on a freshly
    /// built engine that borrows a fresh [`CountingSink`], the per-trial
    /// cells merged in index order.
    fn fresh_per_trial_telemetry(scenario: &Scenario) -> (Vec<RunOutcome>, CellTelemetry) {
        with_resolved_protocol!(scenario.protocol, |protocol| {
            let seeds = match scenario.seed_child {
                Some(child) => SeedSequence::new(scenario.seed).child(child),
                None => SeedSequence::new(scenario.seed),
            };
            let (a, b) = (scenario.instance.a(), scenario.instance.b());
            let config = Config::from_input(&protocol, a, b);
            let cached = Cached::try_new(protocol).expect("small protocols cache");
            let driver = Driver::new(scenario.rule).with_max_steps(scenario.max_steps);
            let mut outcomes = Vec::new();
            let mut merged = CellTelemetry::new();
            for trial in 0..scenario.runs {
                let mut sink = CountingSink::new();
                let mut sim = build_erased_with_sink(
                    &cached,
                    config.clone(),
                    scenario.engine,
                    &scenario.scheduler,
                    &mut sink,
                )
                .expect("runnable scenario");
                let mut rng = seeds.rng_for(trial);
                let mut faults = FaultPlan::from_events(scenario.faults.clone());
                let outcome = driver.run_faulted_erased(
                    sim.as_mut(),
                    &mut rng,
                    &mut NullObserver,
                    &mut faults,
                );
                drop(sim);
                let cell = trial_telemetry(
                    &outcome,
                    TelemetryObserver::new(),
                    sink.snapshot(),
                    Span::start(),
                );
                merged.merge(&cell);
                outcomes.push(outcome);
            }
            (outcomes, merged)
        })
    }

    #[test]
    fn reused_engine_telemetry_matches_fresh_per_trial_builds() {
        use avc_population::faults::Fault;
        let avc = ProtocolSpec::Avc { m: 7, d: 1 };
        let scenarios = [
            plan(ProtocolSpec::FourState, 21, 20, EngineKind::Agent),
            plan(ProtocolSpec::ThreeState, 30, 20, EngineKind::Count),
            plan(avc, 41, 40, EngineKind::Jump),
            plan(ProtocolSpec::FourState, 61, 60, EngineKind::TauLeap),
            // Margin 1 at n = 401 switches the adaptive engine to its
            // sparse phase, so the retained jump engine is reused too.
            plan(avc, 201, 200, EngineKind::Auto),
            plan(ProtocolSpec::Bef { levels: 6 }, 31, 30, EngineKind::Agent)
                .scheduler(SchedulerSpec::Biased { hot: 8, bias: 0.9 }),
            plan(avc, 31, 30, EngineKind::Agent).scheduler(SchedulerSpec::Epoch),
            plan(avc, 41, 40, EngineKind::Agent)
                .fault(50, Fault::Crash { agent: 3 })
                .fault(400, Fault::Revive { agent: 3 })
                .fault(
                    90,
                    Fault::Corrupt {
                        from: 0,
                        to: 1,
                        agents: 2,
                    },
                ),
        ];
        for scenario in scenarios {
            let scenario = scenario.runs(7).seed(11).max_steps(5_000_000);
            let (fresh_outcomes, fresh) = fresh_per_trial_telemetry(&scenario);
            // The adaptive and faulted cases exercise what they claim to.
            let switches = fresh.sim.counter("sim.phase_switches").unwrap();
            assert_eq!(scenario.engine == EngineKind::Auto, switches > 0);
            let faults = fresh.sim.counter("sim.faults").unwrap();
            assert_eq!(scenario.faults.is_empty(), faults == 0);
            let plain = ScenarioPlan::new(scenario.clone()).run();
            assert_eq!(plain.outcomes(), fresh_outcomes.as_slice(), "{scenario:?}");
            for parallelism in [Parallelism::Serial, Parallelism::Threads(3)] {
                let (r, t) = ScenarioPlan::new(scenario.clone())
                    .parallelism(parallelism)
                    .run_with_telemetry(&StatsCollector::new());
                assert_eq!(
                    r.outcomes(),
                    plain.outcomes(),
                    "{parallelism:?} {scenario:?}"
                );
                assert_eq!(t.sim, fresh.sim, "{parallelism:?} {scenario:?}");
            }
        }
    }
}
