//! Replays a finished sweep's cells through the public seams, on one
//! thread, with a span around every call.
//!
//! A sweep cell is a closure, so the traced sweep sees each cell only as
//! one span. To see inside, each cell's embedded scenario (the manifest's
//! `scenario` parameter) is run again the way the harness ran it:
//! * `Scenario::parse` on the embedded JSON;
//! * `Cached::try_new` once per cell (the arithmetic fallback above the
//!   table cutoff);
//! * cells that recorded telemetry took the instrumented batch path: one
//!   `build_erased_with_sink` per trial with a `CountingSink`;
//! * cells without telemetry took the reuse path: one `build_erased` per
//!   cell and a `reset_erased` before every trial;
//! * `Driver::run_erased` (or its faulted twin) on the engine wrapped in
//!   [`Timed`], which stamps each `advance_chunk_erased` call, so a chunk
//!   span is the kernel call alone and everything else the driver does is
//!   its self time.
//!
//! The replay then checks that its outcomes equal the cell's checkpointed
//! trials, so the per-layer numbers describe the run that was measured.

use crate::heap;
use crate::trace::Tracer;
use avc_population::cached::Cached;
use avc_population::driver::{Driver, NullObserver};
use avc_population::engine::{AdvanceReport, ErasedChunkedSim, Simulator, StopCondition};
use avc_population::faults::{Fault, FaultError, FaultPlan};
use avc_population::rngutil::SeedSequence;
use avc_population::scenario::{build_erased, build_erased_with_sink};
use avc_population::spec::RunOutcome;
use avc_population::telemetry::CountingSink;
use avc_population::{Config, EngineKind, Opinion, Protocol, ProtocolSpec, Scenario, StateId};
use avc_protocols::{Avc, Bef, Degssu, FourState, ThreeState, Voter};
use avc_store::record::Record;
use rand::rngs::SmallRng;
use rand::RngCore;
use std::collections::BTreeMap;
use std::time::Instant;

/// The replayed scenarios all ran in the measured sweep, so they build.
const BUILDS: &str = "a scenario the sweep ran builds";

/// Engine kinds the ledger reports, by the engine each one builds
/// (`auto` builds the adaptive engine).
pub const KINDS: [&str; 3] = ["agent", "jump", "adaptive"];

/// Counts the replay accumulates beside its spans, per engine kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineCounts {
    /// Scheduler steps, from the trials' `RunOutcome.steps`.
    pub steps: u64,
    /// Productive interactions, from the engine after each trial.
    pub events: u64,
    /// `advance_chunk` calls.
    pub chunks: u64,
    /// Adaptive dense↔sparse switches (instrumented path only).
    pub phase_switches: u64,
}

/// Everything the replay measured besides span times.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayCounts {
    /// Per engine kind.
    pub engines: BTreeMap<&'static str, EngineCounts>,
    /// Heap bytes held by the largest table `Cached::try_new` built.
    pub max_table_bytes: u64,
    /// Cells whose protocol was too large to cache.
    pub fallbacks: u64,
}

/// The ledger's name for the engine an [`EngineKind`] builds.
#[must_use]
pub fn kind_name(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::Agent => "agent",
        EngineKind::Count => "count",
        EngineKind::Jump => "jump",
        EngineKind::TauLeap => "tau_leap",
        EngineKind::Auto | EngineKind::Adaptive => "adaptive",
    }
}

/// Replays every record in order under one `replay` span, checking each
/// against its checkpoint.
///
/// # Errors
///
/// A record whose embedded scenario does not parse, or whose replayed
/// outcomes differ from its checkpointed trials.
pub fn replay(records: &[Record], tracer: &mut Tracer) -> Result<ReplayCounts, String> {
    let mut counts = ReplayCounts::default();
    let root = tracer.enter("replay", None);
    for record in records {
        replay_record(record, tracer, &mut counts)?;
    }
    tracer.exit(root);
    Ok(counts)
}

fn replay_record(
    record: &Record,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    let label = record.manifest.get("cell").unwrap_or("?").to_string();
    let text = record
        .manifest
        .get("scenario")
        .ok_or_else(|| format!("cell {label}: manifest embeds no scenario"))?;
    let span = tracer.enter("replay.cell", Some(&record.hash));
    let scenario = tracer.time("scenario.parse", || Scenario::parse(text))?;
    let instrumented = record.result.telemetry.is_some();
    let replayed = match scenario.protocol {
        ProtocolSpec::Avc { m, d } => {
            let protocol = Avc::new(m, d).map_err(|e| format!("{e:?}"))?;
            replay_cell(protocol, &scenario, instrumented, tracer, counts)
        }
        ProtocolSpec::Bef { levels } => {
            let protocol = Bef::new(levels).map_err(|e| format!("{e:?}"))?;
            replay_cell(protocol, &scenario, instrumented, tracer, counts)
        }
        ProtocolSpec::Degssu { levels, phase } => {
            let protocol = Degssu::new(levels, phase).map_err(|e| format!("{e:?}"))?;
            replay_cell(protocol, &scenario, instrumented, tracer, counts)
        }
        ProtocolSpec::FourState => replay_cell(FourState, &scenario, instrumented, tracer, counts),
        ProtocolSpec::ThreeState => {
            replay_cell(ThreeState::new(), &scenario, instrumented, tracer, counts)
        }
        ProtocolSpec::Voter => replay_cell(Voter, &scenario, instrumented, tracer, counts),
    };
    tracer.exit(span);
    check(record, &label, &replayed)
}

/// What a replayed cell produced, in the terms its record keeps.
struct Replayed {
    outcomes: Vec<RunOutcome>,
    /// Merged per-trial sinks (instrumented path only).
    sink: Option<CountingSink>,
}

fn replay_cell<P: Protocol + Clone>(
    protocol: P,
    scenario: &Scenario,
    instrumented: bool,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> Replayed {
    let (dispatch, bytes) = tracer.time("cached.build", || {
        heap::retained(|| Cached::try_new(protocol.clone()))
    });
    match &dispatch {
        Ok(cached) => {
            let bytes = u64::try_from(bytes).unwrap_or(0);
            counts.max_table_bytes = counts.max_table_bytes.max(bytes);
            replay_trials(cached, scenario, instrumented, tracer, counts)
        }
        Err(plain) => {
            counts.fallbacks += 1;
            replay_trials(plain, scenario, instrumented, tracer, counts)
        }
    }
}

fn replay_trials<P: Protocol + Clone>(
    protocol: P,
    scenario: &Scenario,
    instrumented: bool,
    tracer: &mut Tracer,
    counts: &mut ReplayCounts,
) -> Replayed {
    let kind = kind_name(scenario.engine);
    let seeds = match scenario.seed_child {
        Some(child) => SeedSequence::new(scenario.seed).child(child),
        None => SeedSequence::new(scenario.seed),
    };
    let (a, b) = (scenario.instance.a(), scenario.instance.b());
    let config = Config::from_input(&protocol, a, b);
    let driver = Driver::new(scenario.rule).with_max_steps(scenario.max_steps);
    let mut outcomes = Vec::with_capacity(scenario.runs as usize);
    let engine = counts.engines.entry(kind).or_default();
    if instrumented {
        let mut merged = CountingSink::new();
        for trial in 0..scenario.runs {
            let mut rng = seeds.rng_for(trial);
            let mut sink = CountingSink::new();
            let span = tracer.enter("scenario.build", None);
            let mut sim = build_erased_with_sink(
                protocol.clone(),
                config.clone(),
                scenario.engine,
                &scenario.scheduler,
                &mut sink,
            )
            .expect(BUILDS);
            tracer.exit(span);
            let outcome = drive(
                &driver,
                sim.as_mut(),
                &mut rng,
                scenario,
                kind,
                tracer,
                engine,
            );
            drop(sim);
            engine.phase_switches += sink.switches;
            merged.merge(&sink);
            outcomes.push(outcome);
        }
        Replayed {
            outcomes,
            sink: Some(merged),
        }
    } else {
        let span = tracer.enter("scenario.build", None);
        let mut sim = build_erased(
            protocol.clone(),
            config.clone(),
            scenario.engine,
            &scenario.scheduler,
        )
        .expect(BUILDS);
        tracer.exit(span);
        for trial in 0..scenario.runs {
            let mut rng = seeds.rng_for(trial);
            tracer.time("engine.reset", || sim.reset_erased(&config));
            outcomes.push(drive(
                &driver,
                sim.as_mut(),
                &mut rng,
                scenario,
                kind,
                tracer,
                engine,
            ));
        }
        Replayed {
            outcomes,
            sink: None,
        }
    }
}

/// One `driver.run` span with the engine's chunk spans as children.
fn drive(
    driver: &Driver,
    sim: &mut dyn ErasedChunkedSim,
    rng: &mut SmallRng,
    scenario: &Scenario,
    kind: &'static str,
    tracer: &mut Tracer,
    engine: &mut EngineCounts,
) -> RunOutcome {
    let mut faults = FaultPlan::from_events(scenario.faults.clone());
    let mut timed = Timed {
        sim,
        chunks: Vec::new(),
    };
    let span = tracer.enter("driver.run", None);
    let outcome = if scenario.faults.is_empty() {
        driver.run_erased(&mut timed, rng, &mut NullObserver)
    } else {
        driver.run_faulted_erased(&mut timed, rng, &mut NullObserver, &mut faults)
    };
    tracer.exit(span);
    let name = chunk_span_name(kind);
    for (start, end) in &timed.chunks {
        tracer.record(name, tracer.ns_of(*start), tracer.ns_of(*end), span, None);
    }
    engine.steps += outcome.steps;
    engine.events += timed.events();
    engine.chunks += timed.chunks.len() as u64;
    outcome
}

/// Chunk span names, one per engine kind the builder can produce.
pub const CHUNK_SPANS: [&str; 5] = [
    "engine.agent.chunk",
    "engine.jump.chunk",
    "engine.adaptive.chunk",
    "engine.count.chunk",
    "engine.tau_leap.chunk",
];

/// The chunk span name of an engine kind.
#[must_use]
pub fn chunk_span_name(kind: &str) -> &'static str {
    CHUNK_SPANS
        .into_iter()
        .find(|name| {
            name.strip_prefix("engine.")
                .and_then(|n| n.strip_suffix(".chunk"))
                == Some(kind)
        })
        .expect("kind_name yields only the five engine kinds")
}

/// An engine that forwards every call to the one it wraps and stamps the
/// start and end of each `advance_chunk_erased`. The driver's own work
/// between chunks (rule and silence checks, fault injection, building its
/// view) falls outside the stamps.
struct Timed<'a> {
    sim: &'a mut dyn ErasedChunkedSim,
    chunks: Vec<(Instant, Instant)>,
}

impl Simulator for Timed<'_> {
    fn population(&self) -> u64 {
        self.sim.population()
    }

    fn steps(&self) -> u64 {
        self.sim.steps()
    }

    fn events(&self) -> u64 {
        self.sim.events()
    }

    fn counts(&self) -> &[u64] {
        self.sim.counts()
    }

    fn count_a(&self) -> u64 {
        self.sim.count_a()
    }

    fn unanimous_state(&self) -> Option<StateId> {
        self.sim.unanimous_state()
    }

    fn state_output(&self, state: StateId) -> Opinion {
        self.sim.state_output(state)
    }

    fn config_is_silent(&self) -> bool {
        self.sim.config_is_silent()
    }

    fn inject(&mut self, fault: Fault) -> Result<u64, FaultError> {
        self.sim.inject(fault)
    }

    fn advance(&mut self, rng: &mut dyn RngCore) -> u64 {
        self.sim.advance(rng)
    }

    fn advance_upto(&mut self, rng: &mut dyn RngCore, stop: StopCondition) -> AdvanceReport {
        self.sim.advance_upto(rng, stop)
    }
}

impl ErasedChunkedSim for Timed<'_> {
    fn advance_chunk_erased(&mut self, rng: &mut SmallRng, stop: StopCondition) -> AdvanceReport {
        let start = Instant::now();
        let report = self.sim.advance_chunk_erased(rng, stop);
        self.chunks.push((start, Instant::now()));
        report
    }

    fn reset_erased(&mut self, config: &Config) {
        self.sim.reset_erased(config);
    }
}

/// The replay must reproduce the checkpoint: the sorted converged-time
/// samples bit for bit, the trial count, the timeout count where recorded,
/// and the engine counters of the cell's telemetry.
fn check(record: &Record, label: &str, replayed: &Replayed) -> Result<(), String> {
    let fail = |what: &str| {
        Err(format!(
            "cell {label}: replayed {what} differ from the checkpoint"
        ))
    };
    let result = &record.result;
    let mut samples: Vec<f64> = replayed
        .outcomes
        .iter()
        .filter(|o| o.verdict.is_consensus())
        .map(|o| o.parallel_time)
        .collect();
    samples.sort_by(f64::total_cmp);
    if let Some(trials) = &result.trials {
        let same = trials.samples.len() == samples.len()
            && trials
                .samples
                .iter()
                .zip(&samples)
                .all(|(x, y)| x.to_bits() == y.to_bits());
        if !same {
            return fail("convergence times");
        }
    }
    if let Some(timeouts) = result.value("timeouts") {
        let replayed_timeouts = replayed
            .outcomes
            .iter()
            .filter(|o| !o.verdict.is_consensus())
            .count();
        if timeouts as usize != replayed_timeouts {
            return fail("timeouts");
        }
    }
    if let (Some(telemetry), Some(sink)) = (&result.telemetry, &replayed.sink) {
        let recorded = |key: &str| telemetry.sim.counter(key);
        let pairs = [
            ("sim.steps", sink.steps),
            ("sim.events", sink.events),
            ("sim.chunks", sink.chunks),
            ("sim.phase_switches", sink.switches),
        ];
        if pairs
            .iter()
            .any(|&(key, value)| recorded(key) != Some(value))
        {
            return fail("engine counters");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{quick_inputs, Workload};
    use crate::{oracle, sweeps};

    #[test]
    fn replay_equals_checkpoint_on_quick_profiles() {
        for workload in Workload::ALL {
            let (inputs, dir) = quick_inputs(workload, "replay");
            let rep = sweeps::untraced(&inputs, &dir.join("store")).expect("quick sweep");
            let records = oracle::load_records(&dir.join("store")).expect("quick records");
            let mut tracer = Tracer::new();
            let counts = replay(&records, &mut tracer)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let steps: u64 = counts.engines.values().map(|e| e.steps).sum();
            assert_eq!(steps, rep.steps, "{}: replayed steps", workload.name());
            assert!(tracer.spans().iter().any(|s| s.name.ends_with(".chunk")));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn replay_rejects_a_tampered_checkpoint() {
        let (inputs, dir) = quick_inputs(Workload::Fig3, "tamper");
        sweeps::untraced(&inputs, &dir.join("store")).expect("quick sweep");
        let mut records = oracle::load_records(&dir.join("store")).expect("quick records");
        let trials = records[4]
            .result
            .trials
            .as_mut()
            .expect("fig3 cells keep trials");
        trials.samples[0] += 1.0;
        let err = replay(&records, &mut Tracer::new()).expect_err("tampered samples");
        assert!(err.contains("convergence times"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
