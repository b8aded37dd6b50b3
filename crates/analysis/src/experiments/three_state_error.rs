//! The three-state protocol's error law (behind Figure 3, right).
//!
//! \[PVV09] prove the three-state protocol converges to the wrong state with
//! probability `exp(−D((1+ε)/2 ‖ 1/2)·n) ≈ exp(−ε²n/2)` for small `ε`. This
//! experiment measures the empirical error fraction across margins and
//! populations and reports it against the theory, verifying the
//! approximation regime in which Figure 3 (right) shows sizable error.

use crate::harness::{EngineKind, Parallelism, ScenarioPlan, StatsCollector};
use crate::table::{fmt_num, Table};
use avc_population::{ConvergenceRule, MajorityInstance, ProtocolSpec, Scenario};

/// Parameters for the error-law experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Population sizes.
    pub ns: Vec<u64>,
    /// Margins to sweep.
    pub epsilons: Vec<f64>,
    /// Runs per `(n, ε)` point (error estimation needs many).
    pub runs: u64,
    /// Master seed.
    pub seed: u64,
    /// Thread sharding of each point's trials (results are unaffected).
    pub parallelism: Parallelism,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            ns: vec![1_001, 10_001],
            epsilons: vec![0.001, 0.005, 0.01, 0.02, 0.03, 0.05, 0.08],
            runs: 400,
            seed: 55,
            parallelism: Parallelism::default(),
        }
    }
}

impl Config {
    /// A downscaled configuration for smoke tests and CI.
    #[must_use]
    pub fn quick() -> Config {
        Config {
            ns: vec![1_001],
            epsilons: vec![0.01, 0.1],
            runs: 60,
            seed: 55,
            parallelism: Parallelism::default(),
        }
    }

    /// Builds a configuration from parsed CLI arguments (`--quick`, `--ns`,
    /// `--runs`, `--seed`, `--serial`/`--threads`).
    #[must_use]
    pub fn from_args(args: &crate::cli::Args) -> Config {
        let mut config = if args.flag("quick") {
            Config::quick()
        } else {
            Config::default()
        };
        config.ns = args.get_u64_list("ns", &config.ns);
        config.runs = args.get_u64("runs", config.runs);
        config.seed = args.get_u64("seed", config.seed);
        config.parallelism = args.parallelism();
        config
    }
}

/// One `(n, ε)` measurement.
#[derive(Debug, Clone)]
pub struct Point {
    /// Population size.
    pub n: u64,
    /// Achieved margin.
    pub epsilon: f64,
    /// Empirical fraction of runs converging to the minority state.
    pub error_fraction: f64,
    /// The Kullback–Leibler bound `exp(−D((1+ε)/2 ‖ 1/2)·n)` of \[PVV09].
    pub kl_bound: f64,
    /// Number of runs.
    pub runs: u64,
}

/// The KL divergence `D(p ‖ q)` between Bernoulli distributions.
///
/// # Panics
///
/// Panics unless both arguments lie strictly inside `(0, 1)`.
#[must_use]
pub fn bernoulli_kl(p: f64, q: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0 && q > 0.0 && q < 1.0,
        "need p, q in (0,1)"
    );
    p * (p / q).ln() + (1.0 - p) * ((1.0 - p) / (1.0 - q)).ln()
}

/// Lowers one `(n, ε)` point to a declarative run scenario: `ni` indexes
/// [`Config::ns`], `ei` indexes [`Config::epsilons`]. Seeded by the grid
/// indices alone, so the point reruns identically in isolation (the basis
/// of checkpoint/resume).
///
/// # Panics
///
/// Panics if either index is out of range.
#[must_use]
pub fn cell_scenario(config: &Config, ni: usize, ei: usize) -> Scenario {
    let instance = MajorityInstance::with_margin(config.ns[ni], config.epsilons[ei]);
    Scenario::new(ProtocolSpec::ThreeState, instance)
        .engine(EngineKind::Jump)
        .rule(ConvergenceRule::StateConsensus)
        .runs(config.runs)
        .seed(config.seed + (ni as u64) * 100 + ei as u64)
}

/// Runs one `(n, ε)` point through the shared [`ScenarioPlan`] harness.
///
/// # Panics
///
/// As [`cell_scenario`].
#[must_use]
pub fn run_point(config: &Config, ni: usize, ei: usize, stats: &StatsCollector) -> Point {
    let n = config.ns[ni];
    let scenario = cell_scenario(config, ni, ei);
    let eps_achieved = scenario.instance.margin();
    let results = ScenarioPlan::new(scenario)
        .parallelism(config.parallelism)
        .run_with_stats(stats);
    Point {
        n,
        epsilon: eps_achieved,
        error_fraction: results.error_fraction(),
        kl_bound: (-bernoulli_kl((1.0 + eps_achieved) / 2.0, 0.5) * n as f64).exp(),
        runs: config.runs,
    }
}

/// Renders the result table.
#[must_use]
pub fn table(points: &[Point]) -> Table {
    let mut t = Table::new(
        "Three-state error probability vs the PVV09 KL bound",
        ["n", "eps", "eps^2*n", "error_fraction", "kl_bound", "runs"],
    );
    for p in points {
        t.push_row([
            p.n.to_string(),
            fmt_num(p.epsilon),
            fmt_num(p.epsilon * p.epsilon * p.n as f64),
            fmt_num(p.error_fraction),
            fmt_num(p.kl_bound),
            p.runs.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kl_of_fair_coin_is_zero() {
        assert!(bernoulli_kl(0.5, 0.5).abs() < 1e-15);
        assert!(bernoulli_kl(0.6, 0.5) > 0.0);
    }

    #[test]
    #[should_panic(expected = "(0,1)")]
    fn kl_rejects_degenerate() {
        let _ = bernoulli_kl(1.0, 0.5);
    }

    #[test]
    fn error_decays_with_margin() {
        let config = Config {
            ns: vec![601],
            epsilons: vec![0.005, 0.25],
            runs: 80,
            seed: 1,
            parallelism: Parallelism::Auto,
        };
        // The `err_three_state` sweep spec's `(n, ε)` order.
        let stats = StatsCollector::new();
        let points = [
            run_point(&config, 0, 0, &stats),
            run_point(&config, 0, 1, &stats),
        ];
        // Near-tie: errors common. Wide margin: errors (almost) gone.
        assert!(
            points[0].error_fraction > 0.15,
            "{}",
            points[0].error_fraction
        );
        assert!(
            points[1].error_fraction < 0.05,
            "{}",
            points[1].error_fraction
        );
        // KL bound orders the same way.
        assert!(points[0].kl_bound > points[1].kl_bound);
    }
}
