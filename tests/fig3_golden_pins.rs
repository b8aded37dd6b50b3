//! Golden pins on the kernel paths Figure 3's large cells run.
//!
//! `golden_traces.rs` pins tiny [`CountSim`](avc::population::engine::CountSim)
//! runs; these pin the engines and protocol paths the `fig3` sweep spends
//! its time in:
//!
//! * `auto` on `Avc::with_states(5001)` at `n = 5001`, `ε = 1/n` — 5000
//!   states, above the `Cached` table bound, so every transition takes the
//!   arithmetic path through the dense phase and the jump handoff;
//! * `jump` on the four-state and three-state protocols at `n = 1001`,
//!   through their `Cached` tables.
//!
//! Each scenario is built by [`fig3::cell_scenario`] and run exactly as the
//! harness runs a trial (cache dispatch, erased engine, chunked driver);
//! the outcome is also checked against [`ScenarioPlan`] itself, so a pin
//! cannot drift from the sweep's path. A pin records
//! `steps events verdict` and the final counts as `state:count` pairs over
//! the nonzero states.
//!
//! To regenerate after an *intentional* semantic change:
//! `cargo test --test fig3_golden_pins -- --ignored --nocapture` and paste
//! the printed blocks over the `EXPECTED_*` constants.

use avc::analysis::experiments::fig3;
use avc::analysis::harness::{Parallelism, ScenarioPlan};
use avc::population::cached::Cached;
use avc::population::driver::{Driver, NullObserver};
use avc::population::rngutil::SeedSequence;
use avc::population::scenario::build_erased_with_sink;
use avc::population::telemetry::CountingSink;
use avc::population::{Config, EngineKind, Protocol, ProtocolSpec, Scenario};
use avc::protocols::{Avc, FourState, ThreeState};

/// Master seeds of the pinned trials (trial stream 0 of each).
const SEEDS: [u64; 3] = [1, 2, 3];

/// The fig3 cell at population `n` for protocol column `pi` (an index into
/// [`fig3::PROTOCOL_KEYS`]), one run under master seed `seed`.
fn cell(n: u64, pi: usize, seed: u64) -> Scenario {
    let config = fig3::Config {
        ns: vec![n],
        runs: 1,
        seed,
        parallelism: Parallelism::Serial,
    };
    fig3::cell_scenario(&config, 0, pi)
}

/// Runs trial 0 of `scenario` the way the harness does and renders the pin
/// line: `steps events verdict` followed by the nonzero final counts. Also
/// returns the number of dense→sparse phase switches the engine made.
fn pin_trial<P: Protocol + Clone>(protocol: P, scenario: &Scenario) -> (String, u64) {
    let config = Config::from_input(&protocol, scenario.instance.a(), scenario.instance.b());
    let dispatch = Cached::try_new(protocol);
    let mut sink = CountingSink::default();
    let (engine, scheduler) = (scenario.engine, &scenario.scheduler);
    let mut sim = match &dispatch {
        Ok(cached) => build_erased_with_sink(cached, config, engine, scheduler, &mut sink),
        Err(plain) => build_erased_with_sink(plain, config, engine, scheduler, &mut sink),
    }
    .expect("fig3 cells run on the uniform scheduler");
    let mut rng = SeedSequence::new(scenario.seed).rng_for(0);
    let outcome = Driver::new(scenario.rule)
        .with_max_steps(scenario.max_steps)
        .run_erased(sim.as_mut(), &mut rng, &mut NullObserver);
    let harness = ScenarioPlan::new(scenario.clone())
        .parallelism(Parallelism::Serial)
        .run();
    assert_eq!(
        harness.outcomes()[0],
        outcome,
        "pinned trial diverged from the harness path"
    );
    let counts: Vec<String> = sim
        .counts()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(q, c)| format!("{q}:{c}"))
        .collect();
    let line = format!(
        "{} {} {:?} [{}]",
        outcome.steps,
        sim.events(),
        outcome.verdict,
        counts.join(" ")
    );
    drop(sim);
    (line, sink.switches)
}

/// The pin block for protocol column `pi` at population `n` (one line per
/// seed in [`SEEDS`]) and the total number of phase switches behind it.
fn pins(n: u64, pi: usize) -> (String, u64) {
    let (lines, switches): (Vec<String>, Vec<u64>) = SEEDS
        .iter()
        .map(|&seed| {
            let scenario = cell(n, pi, seed);
            match scenario.protocol {
                ProtocolSpec::Avc { m, d } => {
                    pin_trial(Avc::new(m, d).expect("valid AVC cell"), &scenario)
                }
                ProtocolSpec::FourState => pin_trial(FourState, &scenario),
                ProtocolSpec::ThreeState => pin_trial(ThreeState::new(), &scenario),
                other => unreachable!("fig3 does not run {other}"),
            }
        })
        .unzip();
    (lines.join("\n"), switches.iter().sum())
}

const AVC_N: u64 = 5_001;
const SMALL_N: u64 = 1_001;

const EXPECTED_AVC: &str = "\
135760 73972 Consensus(A) [2500:2690 2501:982 2502:1315 2503:14]
149941 75195 Consensus(A) [2500:2620 2501:1075 2502:1304 2503:2]
134245 74687 Consensus(A) [2500:2666 2501:1012 2502:1315 2503:8]";

const EXPECTED_FOUR_STATE: &str = "\
3680799 4194 Consensus(A) [0:1 2:1000]
4533037 6132 Consensus(A) [0:1 2:1000]
3379704 7032 Consensus(A) [0:1 2:1000]";

const EXPECTED_THREE_STATE: &str = "\
17845 4884 Consensus(B) [1:1001]
18417 5200 Consensus(B) [1:1001]
22800 6224 Consensus(A) [0:1001]";

#[test]
fn avc_auto_pin_is_stable() {
    let scenario = cell(AVC_N, 2, SEEDS[0]);
    assert_eq!(scenario.engine, EngineKind::Auto);
    assert_eq!(scenario.protocol.state_count(), 5_000);
    assert!(!Cached::<Avc>::fits(5_000), "the pin must miss the table");
    let (pinned, switches) = pins(AVC_N, 2);
    assert_eq!(pinned, EXPECTED_AVC);
    // Every pinned trial crosses the dense→sparse handoff, so the pin
    // covers the arithmetic transition on both `auto` phases.
    assert_eq!(switches, SEEDS.len() as u64);
}

#[test]
fn four_state_jump_pin_is_stable() {
    assert_eq!(pins(SMALL_N, 1).0, EXPECTED_FOUR_STATE);
}

#[test]
fn three_state_jump_pin_is_stable() {
    assert_eq!(pins(SMALL_N, 0).0, EXPECTED_THREE_STATE);
}

#[test]
#[ignore = "prints the current pins for manual regeneration"]
fn print_pins() {
    println!("const EXPECTED_AVC: &str = \"\\\n{}\";\n", pins(AVC_N, 2).0);
    println!(
        "const EXPECTED_FOUR_STATE: &str = \"\\\n{}\";\n",
        pins(SMALL_N, 1).0
    );
    println!(
        "const EXPECTED_THREE_STATE: &str = \"\\\n{}\";",
        pins(SMALL_N, 0).0
    );
}
