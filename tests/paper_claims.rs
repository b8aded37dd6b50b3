//! End-to-end checks of the paper's headline claims at reduced scale, run
//! through the same per-cell experiment code the `avc sweep` specs call to
//! regenerate the figures, visiting cells in each spec's order.

use avc::analysis::experiments::{fig3, fig4, four_state_scaling, three_state_error};
use avc::analysis::harness::{Parallelism, StatsCollector};
use avc::analysis::stats::loglog_slope;
use avc::verify::enumerate::three_state_impossibility;
use avc::verify::knowledge::{cover_steps, expected_cover_steps};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Figure 3's ordering: AVC ≈ 3-state ≪ 4-state at `ε = 1/n`, with the
/// exact protocols at zero error and the 3-state protocol erring.
#[test]
fn figure3_ordering_holds() {
    let config = fig3::Config {
        ns: vec![1_001],
        runs: 21,
        seed: 3,
        parallelism: Parallelism::Auto,
    };
    let stats = StatsCollector::new();
    let cells: Vec<fig3::Cell> = (0..fig3::PROTOCOL_KEYS.len())
        .map(|pi| fig3::run_cell(&config, 0, pi, &stats))
        .collect();
    let get = |name: &str| {
        cells
            .iter()
            .find(|c| c.protocol.starts_with(name))
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    let t3 = get("3-state").results.mean_parallel_time();
    let t4 = get("4-state").results.mean_parallel_time();
    let tavc = get("avc").results.mean_parallel_time();

    assert!(t4 > 20.0 * tavc, "4-state {t4} should dwarf AVC {tavc}");
    assert!(
        tavc < 5.0 * t3,
        "AVC {tavc} should be comparable to 3-state {t3}"
    );
    assert_eq!(get("4-state").results.error_fraction(), 0.0);
    assert_eq!(get("avc").results.error_fraction(), 0.0);
    assert!(
        get("3-state").results.error_fraction() > 0.2,
        "3-state should err often at eps = 1/n"
    );
}

/// Figure 4's left panel: at fixed `s`, time scales like `1/ε`; at fixed
/// `ε`, time falls roughly like `1/s` (until the polylog floor).
#[test]
fn figure4_scaling_shape_holds() {
    let config = fig4::Config {
        n: 4_001,
        state_counts: vec![4, 34, 258],
        epsilons: vec![1e-3, 1e-2, 1e-1],
        runs: 9,
        seed: 11,
        parallelism: Parallelism::Auto,
    };
    let stats = StatsCollector::new();
    let points: Vec<fig4::Point> = (0..config.state_counts.len())
        .flat_map(|si| (0..config.epsilons.len()).map(move |ei| (si, ei)))
        .map(|(si, ei)| fig4::run_point(&config, si, ei, &stats))
        .collect();
    let get = |s: u64, eps: f64| {
        points
            .iter()
            .find(|p| p.s == s && (p.epsilon - eps).abs() < 1e-9)
            .unwrap()
            .summary
            .mean
    };
    // Left panel: 1/eps growth at s = 4 across two decades.
    let slope = loglog_slope(
        &[1e3, 1e2, 1e1],
        &[get(4, 1e-3), get(4, 1e-2), get(4, 1e-1)],
    );
    assert!((0.5..1.5).contains(&slope), "eps-scaling slope {slope}");
    // More states help at the hard margin by at least ~4x per ~8x states.
    assert!(get(4, 1e-3) > 4.0 * get(34, 1e-3));
    assert!(get(34, 1e-3) > 2.0 * get(258, 1e-3));
    // Right panel: the s·ε collapse — equal s·ε cells have similar times.
    let a = get(34, 1e-2); // s·ε = 0.34
    let b = get(258, 1e-3); // s·ε ≈ 0.258
    let ratio = a / b;
    assert!(
        (0.2..5.0).contains(&ratio),
        "collapse failed: {a} vs {b} at similar s*eps"
    );
}

/// Theorem B.1's shape: the four-state protocol's time is `Θ(1/ε)`.
#[test]
fn four_state_lower_bound_scaling() {
    let config = four_state_scaling::Config {
        n: 4_001,
        epsilons: vec![1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1],
        runs: 11,
        seed: 21,
        parallelism: Parallelism::Auto,
    };
    let stats = StatsCollector::new();
    let points: Vec<four_state_scaling::Point> = (0..config.epsilons.len())
        .map(|i| four_state_scaling::run_point(&config, i, &stats))
        .collect();
    let slope = four_state_scaling::fit_slope(&points);
    assert!(
        (0.6..1.4).contains(&slope),
        "expected Θ(1/eps), fitted exponent {slope}"
    );
}

/// Theorem C.1's shape: knowledge-set cover needs `Θ(n log n)` steps, and
/// the simulation matches the closed-form expectation.
#[test]
fn information_lower_bound_scaling() {
    let mut rng = SmallRng::seed_from_u64(5);
    for n in [200u64, 2_000] {
        let trials = 60;
        let mean = (0..trials)
            .map(|_| cover_steps(n, &mut rng) as f64)
            .sum::<f64>()
            / trials as f64;
        let expected = expected_cover_steps(n);
        assert!(
            (mean - expected).abs() / expected < 0.15,
            "n={n}: {mean} vs {expected}"
        );
        // Θ(log n) parallel time: between ln n and 3·ln n.
        let parallel = expected / n as f64;
        let ln_n = (n as f64).ln();
        assert!(parallel > 0.8 * ln_n && parallel < 3.0 * ln_n);
    }
}

/// The PVV09 error law: the empirical error is within an order of magnitude
/// of `exp(−D·n)` and decays sharply in `ε²n`.
#[test]
fn three_state_error_law_shape() {
    let config = three_state_error::Config {
        ns: vec![2_001],
        epsilons: vec![0.003, 0.05],
        runs: 200,
        seed: 17,
        parallelism: Parallelism::Auto,
    };
    let stats = StatsCollector::new();
    let points: Vec<three_state_error::Point> = (0..config.epsilons.len())
        .map(|ei| three_state_error::run_point(&config, 0, ei, &stats))
        .collect();
    assert!(points[0].error_fraction > 5.0 * points[1].error_fraction.max(0.005));
}

/// The MNRS14 impossibility on a reduced instance set (the full n ≤ 7 sweep
/// is `avc sweep mc_three_state`).
#[test]
fn no_three_state_protocol_is_exact_up_to_n5() {
    let outcome = three_state_impossibility(5);
    assert_eq!(outcome.candidates, 2 * 6u64.pow(6));
    assert_eq!(outcome.survivors, 0);
}
