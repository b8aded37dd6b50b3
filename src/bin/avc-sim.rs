//! `avc-sim` — ad-hoc simulation runs from the command line.
//!
//! ```text
//! avc-sim --protocol avc --n 10001 --eps 0.001 --states 64 --runs 25
//! avc-sim --protocol four-state --n 1001 --runs 101 --engine jump
//! avc-sim --protocol three-state --n 100001 --eps 0.0001 --seed 7
//! ```
//!
//! Prints a per-run line and a summary (mean/median parallel time, error
//! fraction). Flags:
//!
//! * `--protocol` — `avc` (default), `four-state`, `three-state`, `voter`;
//! * `--n` — population size (default 1001);
//! * `--eps` — margin (default 1/n);
//! * `--states` / `--m` / `--d` — AVC sizing (default `--states n`);
//! * `--engine` — `auto` (default), `agent`, `count`, `jump`, `adaptive`,
//!   `tau-leap`;
//! * `--runs`, `--seed`, `--max-steps`, `--verbose`.
//!
//! The flags describe one [`Scenario`], run through the same
//! [`ScenarioPlan`] batch loop as `avc run` and every sweep cell: trial `i`
//! draws from stream `i` of `SeedSequence::new(seed)`, and results do not
//! depend on the number of worker threads.

use avc::analysis::cli::Args;
use avc::analysis::harness::{EngineKind, ScenarioPlan};
use avc::analysis::stats::Summary;
use avc::population::{ConvergenceRule, MajorityInstance, Protocol, ProtocolSpec, Scenario};
use avc::protocols::{Avc, FourState, ThreeState, Voter};

fn main() {
    let args = Args::from_env();
    let n = args.get_u64("n", 1_001);
    let eps = args.get_f64("eps", 1.0 / n as f64);
    let runs = args.get_u64("runs", 11);
    let seed = args.get_u64("seed", 0);
    let max_steps = args.get_u64("max-steps", u64::MAX);
    let verbose = args.flag("verbose");

    let engine: EngineKind = args
        .get("engine")
        .unwrap_or("auto")
        .parse()
        .unwrap_or_else(|e| panic!("{e}"));

    let instance = MajorityInstance::with_margin(n, eps);
    let name = args.get("protocol").unwrap_or("avc").to_string();
    let (protocol, label, rule) = match name.as_str() {
        "avc" => {
            let avc = if let Some(m) = args.get("m") {
                let m: u64 = m.parse().expect("--m expects an odd integer");
                let d = args.get_u64("d", 1) as u32;
                Avc::new(m, d).expect("valid AVC parameters")
            } else {
                Avc::with_states(args.get_u64("states", n)).expect("valid state budget")
            };
            let spec = ProtocolSpec::Avc {
                m: avc.m(),
                d: avc.d(),
            };
            (
                spec,
                avc.name().to_string(),
                ConvergenceRule::OutputConsensus,
            )
        }
        "four-state" => (
            ProtocolSpec::FourState,
            FourState.name().to_string(),
            ConvergenceRule::OutputConsensus,
        ),
        "three-state" => (
            ProtocolSpec::ThreeState,
            ThreeState::new().name().to_string(),
            ConvergenceRule::StateConsensus,
        ),
        "voter" => (
            ProtocolSpec::Voter,
            Voter.name().to_string(),
            ConvergenceRule::OutputConsensus,
        ),
        other => panic!("unknown protocol `{other}` (avc|four-state|three-state|voter)"),
    };

    println!(
        "{label}: n = {n}, a = {}, b = {} (eps = {:.3e}), engine {engine:?}, {runs} runs",
        instance.a(),
        instance.b(),
        instance.margin()
    );

    let scenario = Scenario::new(protocol, instance)
        .engine(engine)
        .rule(rule)
        .max_steps(max_steps)
        .runs(runs)
        .seed(seed);
    let results = ScenarioPlan::new(scenario).run();

    let mut times = Vec::new();
    let mut errors = 0u64;
    let mut unconverged = 0u64;
    for (trial, out) in results.outcomes().iter().enumerate() {
        match out.verdict.opinion() {
            Some(op) => {
                if Some(op) != instance.winner() {
                    errors += 1;
                }
                times.push(out.parallel_time);
                if verbose {
                    println!(
                        "  run {trial:>3}: {op} after {:.2} parallel time ({} steps)",
                        out.parallel_time, out.steps
                    );
                }
            }
            None => {
                unconverged += 1;
                if verbose {
                    println!("  run {trial:>3}: no convergence within {max_steps} steps");
                }
            }
        }
    }

    if times.is_empty() {
        println!("no run converged within the step budget");
        return;
    }
    let summary = Summary::from_samples(&times);
    println!(
        "parallel time: mean {:.2} ± {:.2}, median {:.2}, range [{:.2}, {:.2}]",
        summary.mean,
        summary.std_error(),
        summary.median,
        summary.min,
        summary.max
    );
    println!(
        "errors: {errors}/{runs} ({:.1}%); unconverged: {unconverged}",
        100.0 * errors as f64 / runs as f64
    );
}
