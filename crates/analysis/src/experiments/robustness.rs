//! Protocol robustness under adversarial schedulers and injected faults.
//!
//! The paper proves AVC exact under the uniform scheduler, and the
//! four-state baseline is exact under any *fair* scheduler \[DV12]. This
//! experiment probes both protocols across a grid of scenarios: four
//! adversarial (but fair, fault-free) schedulers from
//! [`avc_population::sched`], plus crash/revive and state-corruption fault
//! scenarios from [`avc_population::faults`]. Reported per cell: the
//! wrong-consensus fraction (exactness violations), timeout count, and the
//! convergence-time summary, from which the export derives per-scenario
//! *slowdown factors* relative to the uniform baseline.
//!
//! Headline structure of the results: both protocols stay exact in every
//! cell; AVC additionally *stalls* (times out in a mixed configuration,
//! never answering wrong) when the schedule is restricted to a sparse
//! interaction graph, while the four-state protocol converges on any
//! connected graph per \[DV12]. The two AVC stalls differ: on the star it
//! livelocks (the weak center toggles between −0 and +0 while the leaves
//! never change, so interactions stay productive), and on the cycle it
//! freezes (no interaction is productive; agents at most swap states).
//!
//! Every scenario is deterministic per seed: schedulers draw all
//! randomness from the trial RNG, and fault injection draws none, so a
//! cell replays bit-identically — the property the checkpoint/resume
//! byte-identity of the `robustness` sweep spec rests on.

use crate::harness::{EngineKind, Parallelism, ScenarioPlan, StatsCollector};
use crate::stats::Summary;
use crate::table::{fmt_num, Table};
use avc_population::faults::Fault;
use avc_population::{
    MajorityInstance, Opinion, Protocol, ProtocolSpec, Scenario as RunScenario, SchedulerSpec,
};
use avc_protocols::{Avc, FourState};

/// Protocols measured, in cell order. AVC runs with `m = 7, d = 1`
/// (10 states — exactness is parameter-independent; speed is not the
/// subject here).
pub const PROTOCOLS: [&str; 2] = ["avc", "four_state"];

/// Parameters for the robustness experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Population size (odd, so the majority instance is never a tie).
    pub n: u64,
    /// Margin.
    pub epsilon: f64,
    /// Runs per (protocol, scenario) cell.
    pub runs: u64,
    /// Master seed.
    pub seed: u64,
    /// Step budget per run (slow scenarios are reported as timeouts).
    pub max_steps: u64,
    /// Thread sharding of each cell's trials (results are unaffected).
    pub parallelism: Parallelism,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            n: 201,
            epsilon: 0.2,
            runs: 25,
            seed: 77,
            max_steps: 100_000_000,
            parallelism: Parallelism::default(),
        }
    }
}

impl Config {
    /// A downscaled configuration for smoke tests and CI.
    #[must_use]
    pub fn quick() -> Config {
        Config {
            n: 41,
            epsilon: 0.5,
            runs: 6,
            seed: 77,
            max_steps: 10_000_000,
            parallelism: Parallelism::default(),
        }
    }

    /// Builds a configuration from parsed CLI arguments (`--quick`, `--n`,
    /// `--runs`, `--seed`, `--serial`/`--threads`).
    #[must_use]
    pub fn from_args(args: &crate::cli::Args) -> Config {
        let mut config = if args.flag("quick") {
            Config::quick()
        } else {
            Config::default()
        };
        config.n = args.get_u64("n", config.n);
        config.runs = args.get_u64("runs", config.runs);
        config.seed = args.get_u64("seed", config.seed);
        config.parallelism = args.parallelism();
        config
    }
}

/// How one scenario perturbs the run (parameters already resolved for a
/// concrete population size).
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioKind {
    /// The uniform baseline every slowdown factor is measured against.
    Uniform,
    /// [`BiasedPair`](avc_population::sched::BiasedPair) hammering a hot clique of `hot` agents.
    Biased {
        /// Hot-set size.
        hot: usize,
        /// Probability a step stays inside the hot set.
        bias: f64,
    },
    /// [`LaggardStarving`](avc_population::sched::LaggardStarving) the `laggards` highest-numbered agents.
    Starved {
        /// Starved-set size.
        laggards: usize,
        /// Steps between laggard-eligible slots.
        period: u64,
    },
    /// [`EpochBatched`](avc_population::sched::EpochBatched) random perfect matchings.
    Epoch,
    /// [`GraphRestricted`](avc_population::sched::GraphRestricted) to the star (all traffic through one center).
    StarRestricted,
    /// [`GraphRestricted`](avc_population::sched::GraphRestricted) to the cycle (worst standard spectral gap).
    CycleRestricted,
    /// Crash `agents` agents at step `crash_at`, revive them all at
    /// `revive_at` (uniform scheduling throughout).
    CrashRevive {
        /// Number of crashed agents (ids `0..agents`).
        agents: usize,
        /// Crash step.
        crash_at: u64,
        /// Revive step.
        revive_at: u64,
    },
    /// At step `at`, corrupt `agents` agents from the initial-A state to
    /// the initial-B state (uniform scheduling throughout).
    Corrupt {
        /// Number of corrupted agents (clamped to the source count).
        agents: u64,
        /// Corruption step.
        at: u64,
    },
}

/// One row of the scenario grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Short cell label (`uniform`, `biased`, `crash_revive`, …).
    pub label: String,
    /// The perturbation.
    pub kind: ScenarioKind,
}

impl Scenario {
    /// Whether the scenario injects faults (as opposed to only skewing
    /// the schedule).
    #[must_use]
    pub fn is_faulty(&self) -> bool {
        matches!(
            self.kind,
            ScenarioKind::CrashRevive { .. } | ScenarioKind::Corrupt { .. }
        )
    }

    /// The scenario's scheduler, as declarative scenario data. Fault
    /// scenarios run under uniform scheduling.
    #[must_use]
    pub fn scheduler(&self) -> SchedulerSpec {
        match self.kind {
            ScenarioKind::Biased { hot, bias } => SchedulerSpec::Biased {
                hot: hot as u64,
                bias,
            },
            ScenarioKind::Starved { laggards, period } => SchedulerSpec::Starved {
                laggards: laggards as u64,
                period,
            },
            ScenarioKind::Epoch => SchedulerSpec::Epoch,
            ScenarioKind::StarRestricted => SchedulerSpec::RestrictedStar,
            ScenarioKind::CycleRestricted => SchedulerSpec::RestrictedCycle,
            ScenarioKind::Uniform
            | ScenarioKind::CrashRevive { .. }
            | ScenarioKind::Corrupt { .. } => SchedulerSpec::Uniform,
        }
    }

    /// The scenario's scheduler description, for manifests and tables —
    /// the canonical [`SchedulerSpec`] rendering.
    #[must_use]
    pub fn scheduler_spec(&self) -> String {
        self.scheduler().to_string()
    }

    /// The scenario's fault-plan description, for manifests and tables
    /// (`none` for fault-free scenarios).
    #[must_use]
    pub fn fault_spec(&self) -> String {
        match &self.kind {
            ScenarioKind::CrashRevive {
                agents,
                crash_at,
                revive_at,
            } => format!("crash_revive(agents={agents},crash_at={crash_at},revive_at={revive_at})"),
            ScenarioKind::Corrupt { agents, at } => {
                format!("corrupt(agents={agents},at={at},A->B)")
            }
            _ => "none".to_string(),
        }
    }
}

/// The scenario grid at population `n` (parameters scale with `n`).
#[must_use]
pub fn scenarios(n: u64) -> Vec<Scenario> {
    let mk = |label: &str, kind| Scenario {
        label: label.to_string(),
        kind,
    };
    vec![
        mk("uniform", ScenarioKind::Uniform),
        mk(
            "biased",
            ScenarioKind::Biased {
                hot: (n as usize / 10).max(2),
                bias: 0.5,
            },
        ),
        mk(
            "starved",
            ScenarioKind::Starved {
                laggards: (n as usize / 4).max(1),
                period: 16,
            },
        ),
        mk("epoch", ScenarioKind::Epoch),
        mk("star_restricted", ScenarioKind::StarRestricted),
        mk("cycle_restricted", ScenarioKind::CycleRestricted),
        mk(
            "crash_revive",
            ScenarioKind::CrashRevive {
                agents: (n as usize / 10).max(1),
                crash_at: n,
                revive_at: 20 * n,
            },
        ),
        mk(
            "corrupt",
            ScenarioKind::Corrupt {
                agents: (n / 20).max(1),
                at: n,
            },
        ),
    ]
}

/// One (protocol, scenario) cell's measurement.
///
/// Exactness and convergence are reported separately: a run that
/// *converges to the wrong majority* violates exactness
/// (`wrong_fraction`), while a run that never converges within the step
/// budget is a `timeout` — AVC under graph-restricted schedules stalls in
/// mixed configurations (its transition structure assumes the clique) but
/// never reports a wrong answer.
#[derive(Debug, Clone)]
pub struct Point {
    /// Protocol name (an entry of [`PROTOCOLS`]).
    pub protocol: String,
    /// The scenario measured.
    pub scenario: Scenario,
    /// Fraction of runs converging to the *wrong* majority (exactness
    /// violations).
    pub wrong_fraction: f64,
    /// Runs that hit the step budget without converging.
    pub timeouts: u64,
    /// Parallel-time summary over converged runs (`None` if every run hit
    /// the budget).
    pub summary: Option<Summary>,
    /// Runs attempted.
    pub runs: u64,
}

/// Lowers one grid cell to a declarative run scenario; `pi` indexes
/// [`PROTOCOLS`], `si` indexes [`scenarios`]`(config.n)`.
///
/// The scenario is self-contained: it carries the cell's seed family
/// (`seed_child = pi * num_scenarios + si`), so executing it — here, from a
/// store manifest, or from a serialized scenario file — replays the cell
/// bit-identically. Fault scenarios resolve the corruption's concrete state
/// ids (initial-A → initial-B) from the protocol here, so the scenario
/// needs no protocol knowledge to run.
///
/// # Panics
///
/// Panics if either index is out of range.
#[must_use]
pub fn cell_scenario(config: &Config, pi: usize, si: usize) -> RunScenario {
    let grid = scenarios(config.n);
    let num_scenarios = grid.len();
    let scenario = grid.into_iter().nth(si).expect("scenario index in range");
    let inst = MajorityInstance::with_margin(config.n, config.epsilon);
    let protocol = match PROTOCOLS[pi] {
        "avc" => ProtocolSpec::Avc { m: 7, d: 1 },
        "four_state" => ProtocolSpec::FourState,
        other => unreachable!("unknown protocol {other}"),
    };
    let mut run = RunScenario::new(protocol, inst)
        .engine(EngineKind::Agent)
        .scheduler(scenario.scheduler())
        .max_steps(config.max_steps)
        .runs(config.runs)
        .seed(config.seed)
        .seed_child((pi * num_scenarios + si) as u64);
    match scenario.kind {
        ScenarioKind::CrashRevive {
            agents,
            crash_at,
            revive_at,
        } => {
            for agent in 0..agents {
                run = run
                    .fault(crash_at, Fault::Crash { agent })
                    .fault(revive_at, Fault::Revive { agent });
            }
        }
        ScenarioKind::Corrupt { agents, at } => {
            let (from, to) = match protocol {
                ProtocolSpec::Avc { m, d } => {
                    let avc = Avc::new(m, d).expect("valid parameters");
                    (avc.input(Opinion::A), avc.input(Opinion::B))
                }
                _ => (FourState.input(Opinion::A), FourState.input(Opinion::B)),
            };
            run = run.fault(at, Fault::Corrupt { from, to, agents });
        }
        _ => {}
    }
    run
}

/// Runs one cell through the shared [`ScenarioPlan`] harness; `pi` indexes
/// [`PROTOCOLS`], `si` indexes [`scenarios`]`(config.n)`. Trial seeds
/// derive from `(pi, si)` alone (via the scenario's `seed_child`), so a
/// cell reruns identically in isolation (the basis of checkpoint/resume).
///
/// # Panics
///
/// Panics if either index is out of range.
#[must_use]
pub fn run_point(config: &Config, pi: usize, si: usize, stats: &StatsCollector) -> Point {
    let scenario = scenarios(config.n)
        .into_iter()
        .nth(si)
        .expect("scenario index in range");
    let inst = MajorityInstance::with_margin(config.n, config.epsilon);
    let name = PROTOCOLS[pi];
    let results = ScenarioPlan::new(cell_scenario(config, pi, si))
        .parallelism(config.parallelism)
        .run_with_stats(stats);
    let outcomes = results.outcomes();
    let expected = inst.winner().expect("positive margin has a winner");
    let wrong = outcomes
        .iter()
        .filter(|o| o.verdict.is_consensus() && !o.verdict.is_correct(expected))
        .count() as u64;
    let timeouts = outcomes
        .iter()
        .filter(|o| !o.verdict.is_consensus())
        .count() as u64;
    let times: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.verdict.is_consensus())
        .map(|o| o.parallel_time)
        .collect();
    let summary = (!times.is_empty()).then(|| Summary::from_samples(&times));
    Point {
        protocol: name.to_string(),
        scenario,
        wrong_fraction: wrong as f64 / config.runs as f64,
        timeouts,
        summary,
        runs: config.runs,
    }
}

/// Per-scenario slowdown factors relative to each protocol's uniform
/// baseline: `(protocol, scenario_label, mean / uniform_mean)`. Cells
/// whose baseline or own mean is unavailable are omitted.
#[must_use]
pub fn slowdowns(points: &[Point]) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    for protocol in PROTOCOLS {
        let baseline = points
            .iter()
            .find(|p| p.protocol == protocol && p.scenario.label == "uniform")
            .and_then(|p| p.summary.as_ref().map(|s| s.mean));
        let Some(base) = baseline else { continue };
        for p in points.iter().filter(|p| p.protocol == protocol) {
            if p.scenario.label == "uniform" {
                continue;
            }
            if let Some(s) = &p.summary {
                out.push((
                    protocol.to_string(),
                    p.scenario.label.clone(),
                    s.mean / base,
                ));
            }
        }
    }
    out
}

/// Renders the result table.
#[must_use]
pub fn table(points: &[Point], config: &Config) -> Table {
    let mut t = Table::new(
        format!(
            "Robustness under adversarial schedulers and faults (n = {}, eps = {}, {} runs)",
            config.n, config.epsilon, config.runs
        ),
        [
            "protocol",
            "scenario",
            "scheduler",
            "faults",
            "wrong_consensus",
            "mean_parallel_time",
            "std_dev",
            "timeouts",
            "runs",
        ],
    );
    for p in points {
        let (mean, std) = match &p.summary {
            Some(s) => (fmt_num(s.mean), fmt_num(s.std_dev)),
            None => ("-".to_string(), "-".to_string()),
        };
        t.push_row([
            p.protocol.clone(),
            p.scenario.label.clone(),
            p.scenario.scheduler_spec(),
            p.scenario.fault_spec(),
            fmt_num(p.wrong_fraction),
            mean,
            std,
            p.timeouts.to_string(),
            p.runs.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_is_exact_where_the_paper_says_so() {
        let config = Config::quick();
        // The `robustness` sweep spec's `(protocol, scenario)` order.
        let stats = StatsCollector::new();
        let num_scenarios = scenarios(config.n).len();
        let points: Vec<Point> = (0..PROTOCOLS.len())
            .flat_map(|pi| (0..num_scenarios).map(move |si| (pi, si)))
            .map(|(pi, si)| run_point(&config, pi, si, &stats))
            .collect();
        assert_eq!(points.len(), PROTOCOLS.len() * scenarios(config.n).len());
        for p in &points {
            // Exactness: no scenario — adversarial or faulted — may
            // produce a wrong consensus at these fault magnitudes.
            assert_eq!(
                p.wrong_fraction, 0.0,
                "{} answered wrong under {}",
                p.protocol, p.scenario.label
            );
            // four_state converges under every scenario (\[DV12] holds on
            // any connected graph), as does AVC under the clique-fair
            // schedulers; AVC stalls when the schedule is restricted to a
            // sparse graph — its transition structure assumes the clique.
            let avc_stalls = p.protocol == "avc"
                && matches!(
                    p.scenario.kind,
                    ScenarioKind::StarRestricted | ScenarioKind::CycleRestricted
                );
            if avc_stalls {
                assert_eq!(p.timeouts, p.runs, "AVC unexpectedly converged");
            } else {
                assert_eq!(
                    p.timeouts, 0,
                    "{} timed out under {}",
                    p.protocol, p.scenario.label
                );
            }
        }
        // Slowdowns resolve against the uniform baselines.
        let factors = slowdowns(&points);
        assert!(factors
            .iter()
            .any(|(p, s, _)| p == "four_state" && s == "cycle_restricted"));
    }

    #[test]
    fn cells_rerun_identically_in_isolation() {
        let config = Config::quick();
        let stats = StatsCollector::new();
        let a = run_point(&config, 1, 2, &stats);
        let b = run_point(&config, 1, 2, &stats);
        assert_eq!(a.wrong_fraction, b.wrong_fraction);
        assert_eq!(a.timeouts, b.timeouts);
        assert_eq!(
            a.summary.as_ref().map(|s| s.mean),
            b.summary.as_ref().map(|s| s.mean)
        );
    }
}
