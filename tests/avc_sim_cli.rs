//! Pins `avc-sim`'s full stdout on small fixed-seed runs.
//!
//! Each case runs the real binary with `--verbose` and compares every byte
//! it prints — header, per-run lines, summary — against text captured from
//! the binary before it moved onto the shared `ScenarioPlan` batch loop.
//! The cases cover each protocol, explicit and default engines, the
//! `--states`/`--m`/`--d`/`--eps` sizing flags, and step budgets that leave
//! some or all runs unconverged. Populations stay at `n ≤ 1001` and runs at
//! `≤ 5` so the debug-build suite stays fast.

use std::process::Command;

fn avc_sim(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_avc-sim"))
        .args(args)
        .output()
        .expect("avc-sim starts");
    assert!(
        output.status.success(),
        "avc-sim {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

fn check(args: &[&str], expected: &str) {
    assert_eq!(avc_sim(args), expected, "avc-sim {}", args.join(" "));
}

#[test]
fn avc_with_the_default_state_budget() {
    check(
        &[
            "--protocol",
            "avc",
            "--n",
            "1001",
            "--runs",
            "5",
            "--seed",
            "3",
            "--verbose",
        ],
        "\
avc(m=997,d=1): n = 1001, a = 501, b = 500 (eps = 9.990e-4), engine Auto, 5 runs
  run   0: A after 25.54 parallel time (25562 steps)
  run   1: A after 23.88 parallel time (23905 steps)
  run   2: A after 22.38 parallel time (22400 steps)
  run   3: A after 25.24 parallel time (25266 steps)
  run   4: A after 22.26 parallel time (22286 steps)
parallel time: mean 23.86 ± 0.69, median 23.88, range [22.26, 25.54]
errors: 0/5 (0.0%); unconverged: 0
",
    );
}

#[test]
fn avc_with_explicit_m_and_d() {
    check(
        &[
            "--protocol",
            "avc",
            "--m",
            "7",
            "--d",
            "2",
            "--n",
            "501",
            "--runs",
            "5",
            "--seed",
            "1",
            "--verbose",
        ],
        "\
avc(m=7,d=2): n = 501, a = 251, b = 250 (eps = 1.996e-3), engine Auto, 5 runs
  run   0: A after 304.00 parallel time (152304 steps)
  run   1: A after 451.18 parallel time (226042 steps)
  run   2: A after 251.10 parallel time (125800 steps)
  run   3: A after 346.39 parallel time (173539 steps)
  run   4: A after 391.52 parallel time (196153 steps)
parallel time: mean 348.84 ± 34.54, median 346.39, range [251.10, 451.18]
errors: 0/5 (0.0%); unconverged: 0
",
    );
}

#[test]
fn four_state_on_the_jump_engine() {
    check(
        &[
            "--protocol",
            "four-state",
            "--engine",
            "jump",
            "--n",
            "201",
            "--runs",
            "5",
            "--seed",
            "2",
            "--verbose",
        ],
        "\
four-state: n = 201, a = 101, b = 100 (eps = 4.975e-3), engine Jump, 5 runs
  run   0: A after 513.02 parallel time (103117 steps)
  run   1: A after 649.29 parallel time (130507 steps)
  run   2: A after 508.11 parallel time (102130 steps)
  run   3: A after 545.56 parallel time (109657 steps)
  run   4: A after 714.07 parallel time (143528 steps)
parallel time: mean 586.01 ± 40.89, median 545.56, range [508.11, 714.07]
errors: 0/5 (0.0%); unconverged: 0
",
    );
}

#[test]
fn three_state_errs_at_the_hardest_margin() {
    check(
        &[
            "--protocol",
            "three-state",
            "--n",
            "1001",
            "--runs",
            "5",
            "--seed",
            "4",
            "--verbose",
        ],
        "\
three-state: n = 1001, a = 501, b = 500 (eps = 9.990e-4), engine Auto, 5 runs
  run   0: A after 37.68 parallel time (37715 steps)
  run   1: A after 26.93 parallel time (26955 steps)
  run   2: B after 20.86 parallel time (20880 steps)
  run   3: A after 14.46 parallel time (14475 steps)
  run   4: B after 21.87 parallel time (21896 steps)
parallel time: mean 24.36 ± 3.88, median 21.87, range [14.46, 37.68]
errors: 2/5 (40.0%); unconverged: 0
",
    );
}

#[test]
fn voter_on_the_agent_engine() {
    check(
        &[
            "--protocol",
            "voter",
            "--engine",
            "agent",
            "--n",
            "101",
            "--runs",
            "5",
            "--seed",
            "5",
            "--verbose",
        ],
        "\
voter: n = 101, a = 51, b = 50 (eps = 9.901e-3), engine Agent, 5 runs
  run   0: B after 25.74 parallel time (2600 steps)
  run   1: A after 11.63 parallel time (1175 steps)
  run   2: A after 344.19 parallel time (34763 steps)
  run   3: B after 50.29 parallel time (5079 steps)
  run   4: B after 58.07 parallel time (5865 steps)
parallel time: mean 97.98 ± 62.11, median 50.29, range [11.63, 344.19]
errors: 3/5 (60.0%); unconverged: 0
",
    );
}

#[test]
fn step_budget_leaves_some_runs_unconverged() {
    check(
        &[
            "--protocol",
            "avc",
            "--n",
            "501",
            "--states",
            "64",
            "--eps",
            "0.01",
            "--runs",
            "5",
            "--seed",
            "6",
            "--max-steps",
            "10100",
            "--verbose",
        ],
        "\
avc(m=61,d=1): n = 501, a = 253, b = 248 (eps = 9.980e-3), engine Auto, 5 runs
  run   0: no convergence within 10100 steps
  run   1: A after 19.99 parallel time (10016 steps)
  run   2: no convergence within 10100 steps
  run   3: no convergence within 10100 steps
  run   4: A after 19.37 parallel time (9705 steps)
parallel time: mean 19.68 ± 0.31, median 19.68, range [19.37, 19.99]
errors: 0/5 (0.0%); unconverged: 3
",
    );
}

#[test]
fn step_budget_leaves_every_run_unconverged() {
    check(
        &[
            "--protocol",
            "four-state",
            "--n",
            "101",
            "--runs",
            "3",
            "--max-steps",
            "1000",
            "--verbose",
        ],
        "\
four-state: n = 101, a = 51, b = 50 (eps = 9.901e-3), engine Auto, 3 runs
  run   0: no convergence within 1000 steps
  run   1: no convergence within 1000 steps
  run   2: no convergence within 1000 steps
no run converged within the step budget
",
    );
}
