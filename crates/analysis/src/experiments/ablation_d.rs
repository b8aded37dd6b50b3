//! Ablation: sensitivity of AVC to the intermediate-level count `d`.
//!
//! The paper's analysis sets `d = Θ(log m · log n)` but its experiments use
//! `d = 1` and observe that "setting d > 1 does not significantly affect the
//! running time" (§6 discussion). This ablation fixes a state *budget* `s`
//! and reallocates it between `m` and `d` (`s = m + 2d + 1`), measuring the
//! convergence time at a hard margin for several splits.

use crate::harness::{Parallelism, ScenarioPlan, StatsCollector};
use crate::stats::Summary;
use crate::table::{fmt_num, Table};
use avc_population::{MajorityInstance, ProtocolSpec, Scenario};

/// Parameters for the `d` ablation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Population size.
    pub n: u64,
    /// State budget `s` to split between `m` and `d`.
    pub state_budget: u64,
    /// Level counts to try.
    pub ds: Vec<u32>,
    /// Runs per point.
    pub runs: u64,
    /// Master seed.
    pub seed: u64,
    /// Thread sharding of each point's trials (results are unaffected).
    pub parallelism: Parallelism,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            n: 10_001,
            state_budget: 64,
            ds: vec![1, 2, 4, 8, 16],
            runs: 25,
            seed: 6,
            parallelism: Parallelism::default(),
        }
    }
}

impl Config {
    /// A downscaled configuration for smoke tests and CI.
    #[must_use]
    pub fn quick() -> Config {
        Config {
            n: 1_001,
            state_budget: 24,
            ds: vec![1, 4],
            runs: 9,
            seed: 6,
            parallelism: Parallelism::default(),
        }
    }

    /// Builds a configuration from parsed CLI arguments (`--quick`, `--n`,
    /// `--budget`, `--runs`, `--seed`, `--serial`/`--threads`).
    #[must_use]
    pub fn from_args(args: &crate::cli::Args) -> Config {
        let mut config = if args.flag("quick") {
            Config::quick()
        } else {
            Config::default()
        };
        config.n = args.get_u64("n", config.n);
        config.state_budget = args.get_u64("budget", config.state_budget);
        config.runs = args.get_u64("runs", config.runs);
        config.seed = args.get_u64("seed", config.seed);
        config.parallelism = args.parallelism();
        config
    }
}

/// One `(m, d)` measurement.
#[derive(Debug, Clone)]
pub struct Point {
    /// Maximum weight.
    pub m: u64,
    /// Intermediate levels.
    pub d: u32,
    /// Realized state count `m + 2d + 1`.
    pub s: u64,
    /// Parallel-time summary.
    pub summary: Summary,
}

/// Lowers one `(m, d)` point to a declarative run scenario; `i` indexes
/// [`Config::ds`]. The point's seed depends only on the index, so it reruns
/// identically in isolation.
///
/// # Panics
///
/// Panics if `i` is out of range or the budget cannot accommodate `ds[i]`.
#[must_use]
pub fn cell_scenario(config: &Config, i: usize) -> Scenario {
    let d = config.ds[i];
    let budget_for_m = config
        .state_budget
        .checked_sub(2 * d as u64 + 1)
        .unwrap_or_else(|| panic!("budget {} too small for d={d}", config.state_budget));
    let m = if budget_for_m % 2 == 1 {
        budget_for_m
    } else {
        budget_for_m - 1
    };
    assert!(m >= 1, "budget {} too small for d={d}", config.state_budget);
    Scenario::new(
        ProtocolSpec::Avc { m, d },
        MajorityInstance::one_extra(config.n),
    )
    .runs(config.runs)
    .seed(config.seed + i as u64)
}

/// Runs one `(m, d)` point through the shared [`ScenarioPlan`] harness.
///
/// # Panics
///
/// As [`cell_scenario`].
#[must_use]
pub fn run_point(config: &Config, i: usize, stats: &StatsCollector) -> Point {
    let scenario = cell_scenario(config, i);
    let ProtocolSpec::Avc { m, d } = scenario.protocol else {
        unreachable!("the ablation always runs AVC")
    };
    let results = ScenarioPlan::new(scenario)
        .parallelism(config.parallelism)
        .run_with_stats(stats);
    Point {
        m,
        d,
        s: m + 2 * u64::from(d) + 1,
        summary: results.summary(),
    }
}

/// Renders the result table.
#[must_use]
pub fn table(points: &[Point], config: &Config) -> Table {
    let mut t = Table::new(
        format!(
            "Ablation: splitting a budget of {} states between m and d (n = {}, eps = 1/n)",
            config.state_budget, config.n
        ),
        ["m", "d", "s", "mean_parallel_time", "std_dev", "runs"],
    );
    for p in points {
        t.push_row([
            p.m.to_string(),
            p.d.to_string(),
            p.s.to_string(),
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

    /// Every point of `config`, in the `ablation_d` sweep spec's `d` order.
    fn points(config: &Config) -> Vec<Point> {
        let stats = StatsCollector::new();
        (0..config.ds.len())
            .map(|i| run_point(config, i, &stats))
            .collect()
    }

    #[test]
    fn all_splits_converge_exactly() {
        let points = points(&Config::quick());
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.s, p.m + 2 * p.d as u64 + 1);
            assert_eq!(p.summary.count, 9, "every run must converge (exactness)");
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_infeasible_budget() {
        let _ = points(&Config {
            n: 101,
            state_budget: 8,
            ds: vec![4],
            runs: 1,
            seed: 0,
            parallelism: Parallelism::Serial,
        });
    }
}
