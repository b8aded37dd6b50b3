//! Empirical validation of the four-state lower bound (Theorem B.1).
//!
//! The paper proves that *any* four-state exact-majority protocol needs
//! `Ω(1/ε)` expected parallel time. This experiment measures the four-state
//! protocol's convergence time across a margin sweep at fixed `n` and fits
//! the log–log slope of time against `1/ε`; the paper's bound predicts a
//! slope of ≈ 1 for small margins.

use crate::harness::{EngineKind, Parallelism, ScenarioPlan, StatsCollector};
use crate::stats::{loglog_slope, Summary};
use crate::table::{fmt_num, Table};
use avc_population::{MajorityInstance, ProtocolSpec, Scenario};

/// Parameters for the scaling experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Population size.
    pub n: u64,
    /// Margins to sweep (small margins are where the bound binds).
    pub epsilons: Vec<f64>,
    /// Runs per margin.
    pub runs: u64,
    /// Master seed.
    pub seed: u64,
    /// Thread sharding of each margin's trials (results are unaffected).
    pub parallelism: Parallelism,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            n: 100_001,
            epsilons: vec![1e-5, 3.16e-5, 1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2],
            runs: 25,
            seed: 77,
            parallelism: Parallelism::default(),
        }
    }
}

impl Config {
    /// A downscaled configuration for smoke tests and CI.
    #[must_use]
    pub fn quick() -> Config {
        Config {
            n: 2_001,
            epsilons: vec![1e-3, 1e-2, 1e-1],
            runs: 9,
            seed: 77,
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

/// One margin point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Margin realized after integer rounding.
    pub epsilon: f64,
    /// Parallel-time summary.
    pub summary: Summary,
}

/// The sweep outcome: per-margin summaries plus the fitted scaling exponent
/// of time against `1/ε`.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Per-margin measurements.
    pub points: Vec<Point>,
    /// Fitted log–log slope of mean time vs `1/ε` (expected ≈ 1).
    pub slope: f64,
}

/// Lowers one margin point to a declarative run scenario; `i` indexes
/// [`Config::epsilons`]. Seeded by the index alone, so the point reruns
/// identically in isolation.
///
/// # Panics
///
/// Panics if `i` is out of range.
#[must_use]
pub fn cell_scenario(config: &Config, i: usize) -> Scenario {
    let instance = MajorityInstance::with_margin(config.n, config.epsilons[i]);
    Scenario::new(ProtocolSpec::FourState, instance)
        .engine(EngineKind::Jump)
        .runs(config.runs)
        .seed(config.seed + i as u64)
}

/// Runs one margin point through the shared [`ScenarioPlan`] harness.
///
/// # Panics
///
/// As [`cell_scenario`].
#[must_use]
pub fn run_point(config: &Config, i: usize, stats: &StatsCollector) -> Point {
    let scenario = cell_scenario(config, i);
    let epsilon = scenario.instance.margin();
    let results = ScenarioPlan::new(scenario)
        .parallelism(config.parallelism)
        .run_with_stats(stats);
    Point {
        epsilon,
        summary: results.summary(),
    }
}

/// Fits the log–log slope of mean time against `1/ε` over `points`.
#[must_use]
pub fn fit_slope(points: &[Point]) -> f64 {
    let inv_eps: Vec<f64> = points.iter().map(|p| 1.0 / p.epsilon).collect();
    let times: Vec<f64> = points.iter().map(|p| p.summary.mean).collect();
    loglog_slope(&inv_eps, &times)
}

/// Renders the result table, with the fitted exponent in the title.
#[must_use]
pub fn table(outcome: &Outcome, n: u64) -> Table {
    let mut t = Table::new(
        format!(
            "Theorem B.1 check: four-state time vs margin at n = {n} (fitted exponent {:.3}, theory: 1)",
            outcome.slope
        ),
        ["eps", "one_over_eps", "mean_parallel_time", "std_dev", "runs"],
    );
    for p in &outcome.points {
        t.push_row([
            fmt_num(p.epsilon),
            fmt_num(1.0 / p.epsilon),
            fmt_num(p.summary.mean),
            fmt_num(p.summary.std_dev),
            p.summary.count.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every margin point of `config`, in the `lb_four_state` sweep spec's
    /// order, with the fitted exponent.
    fn outcome(config: &Config) -> Outcome {
        let stats = StatsCollector::new();
        let points: Vec<Point> = (0..config.epsilons.len())
            .map(|i| run_point(config, i, &stats))
            .collect();
        let slope = fit_slope(&points);
        Outcome { points, slope }
    }

    #[test]
    fn scaling_exponent_is_near_one() {
        let outcome = outcome(&Config {
            n: 4_001,
            epsilons: vec![1e-3, 3.16e-3, 1e-2, 3.16e-2],
            runs: 15,
            seed: 3,
            parallelism: Parallelism::Auto,
        });
        // Θ(1/ε) with log corrections: generous band around 1.
        assert!(
            (0.6..=1.4).contains(&outcome.slope),
            "slope {} outside Θ(1/eps) band",
            outcome.slope
        );
        // Times must be monotone decreasing in eps (up to noise at ends).
        assert!(
            outcome.points.first().unwrap().summary.mean
                > outcome.points.last().unwrap().summary.mean
        );
    }

    #[test]
    fn table_embeds_slope() {
        let outcome = outcome(&Config::quick());
        let t = table(&outcome, Config::quick().n);
        assert!(t.title().contains("fitted exponent"));
        assert_eq!(t.num_rows(), 3);
    }
}
