//! The three workloads: which sweep each runs, at what size, and how its
//! inputs are made from the seed.

use avc_analysis::cli::Args;
use avc_population::json::Json;
use avc_population::rngutil::SeedSequence;
use avc_store::scenario_grid;
use avc_store::specs;
use avc_store::sweep::Plan;
use rand::RngCore;
use std::path::{Path, PathBuf};

/// Trials per fig3 cell in the measured profile (the paper uses 101; the
/// five population sizes are all kept).
pub const FIG3_RUNS: u64 = 8;
/// Trials per robustness cell in the measured profile (the spec's default
/// is 25).
pub const ROBUSTNESS_RUNS: u64 = 2;
/// The committed rival comparison grids, relative to the repository root.
pub const RIVAL_GRIDS: [&str; 2] = [
    "examples/scenarios/rivals_time_vs_n.grid.json",
    "examples/scenarios/rivals_margin1.grid.json",
];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `fig3` spec: n ∈ {11…100001} × {three_state, four_state, avc}.
    Fig3,
    /// Both rival `*.grid.json` files, full profile.
    Rivals,
    /// The `robustness` spec: adversarial schedulers and faults at n = 201.
    Robustness,
}

/// Measured size or the small reference profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The size the benchmark times.
    Measured,
    /// The quick profile, used by the reference check and the tests.
    Quick,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Fig3, Workload::Rivals, Workload::Robustness];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig3 => "fig3",
            Workload::Rivals => "rivals",
            Workload::Robustness => "robustness",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything a plan build needs, made from the seed before any timing.
#[derive(Debug, Clone)]
pub struct Inputs {
    workload: Workload,
    args: Args,
    /// Seeded copies of the rival grids (empty for spec workloads).
    grids: Vec<PathBuf>,
}

impl Inputs {
    /// Makes the inputs for `workload` from `seed`. Rival grids are copied
    /// into `work_dir` with every cell's seed replaced by one drawn from
    /// `seed`; the spec workloads take `seed` as their master seed.
    /// Harness workers are pinned to `workers` (`--threads`).
    ///
    /// # Errors
    ///
    /// A missing or malformed grid file, or a failed write.
    pub fn prepare(
        workload: Workload,
        profile: Profile,
        seed: u64,
        workers: usize,
        repo: &Path,
        work_dir: &Path,
    ) -> Result<Inputs, String> {
        let mut tokens = vec!["--threads".to_string(), workers.to_string()];
        if profile == Profile::Quick {
            tokens.push("--quick".to_string());
        }
        let mut grids = Vec::new();
        match workload {
            Workload::Fig3 | Workload::Robustness => {
                tokens.extend(["--seed".to_string(), seed.to_string()]);
                let runs = match (workload, profile) {
                    (Workload::Fig3, Profile::Measured) => Some(FIG3_RUNS),
                    (Workload::Robustness, Profile::Measured) => Some(ROBUSTNESS_RUNS),
                    (Workload::Robustness, Profile::Quick) => Some(2),
                    _ => None,
                };
                if let Some(runs) = runs {
                    tokens.extend(["--runs".to_string(), runs.to_string()]);
                }
            }
            Workload::Rivals => {
                for (g, grid) in RIVAL_GRIDS.iter().enumerate() {
                    let source = repo.join(grid);
                    let text = std::fs::read_to_string(&source)
                        .map_err(|e| format!("{}: {e}", source.display()))?;
                    let seeded = reseed_grid(&text, SeedSequence::new(seed).child(g as u64))?;
                    let file = Path::new(grid).file_name().expect("grid paths name a file");
                    let path = work_dir.join(file);
                    std::fs::write(&path, seeded)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    grids.push(path);
                }
            }
        }
        Ok(Inputs {
            workload,
            args: Args::parse(tokens),
            grids,
        })
    }

    /// Calls the program's plan builders: `specs::build` for the spec
    /// workloads, `scenario_grid::load_plan` (read, parse, validate) for
    /// each rival grid.
    ///
    /// # Errors
    ///
    /// A grid that fails to load.
    pub fn build_plans(&self) -> Result<Vec<Plan>, String> {
        match self.workload {
            Workload::Fig3 => Ok(vec![
                specs::build("fig3", &self.args).expect("fig3 is a registered spec")
            ]),
            Workload::Robustness => {
                Ok(vec![specs::build("robustness", &self.args)
                    .expect("robustness is a registered spec")])
            }
            Workload::Rivals => self
                .grids
                .iter()
                .map(|path| scenario_grid::load_plan(&path.to_string_lossy(), &self.args))
                .collect(),
        }
    }
}

/// Replaces every cell's `scenario.seed` in a grid document with a draw
/// from `seeds` (cell `i` takes stream `i`), keeping everything else.
fn reseed_grid(text: &str, seeds: SeedSequence) -> Result<String, String> {
    let mut grid = Json::parse(text)?;
    let Json::Obj(fields) = &mut grid else {
        return Err("grid must be a JSON object".to_string());
    };
    let Some(Json::Arr(cells)) = fields.get_mut("cells") else {
        return Err("grid needs a `cells` array".to_string());
    };
    for (i, cell) in cells.iter_mut().enumerate() {
        let Json::Obj(cell) = cell else {
            return Err(format!("grid cell {i} must be an object"));
        };
        let Some(Json::Obj(scenario)) = cell.get_mut("scenario") else {
            return Err(format!("grid cell {i} needs a `scenario` object"));
        };
        // 53 bits keep the seed an exact JSON integer.
        let seed = seeds.rng_for(i as u64).next_u64() >> 11;
        scenario.insert("seed".to_string(), Json::Int(seed as i64));
    }
    Ok(grid.to_string_pretty())
}

/// Test support: quick-profile inputs for `workload` in a fresh scratch
/// directory under the package's `work/`, and that directory.
#[cfg(test)]
pub fn quick_inputs(workload: Workload, tag: &str) -> (Inputs, PathBuf) {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = package.join("work").join(format!(
        "test-{tag}-{}-{}",
        workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let repo = package.parent().expect("package sits in the repository");
    let inputs = Inputs::prepare(workload, Profile::Quick, 7, 2, repo, &dir).expect("quick inputs");
    (inputs, dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fig4"), None);
    }

    #[test]
    fn reseeding_changes_only_seeds_and_depends_on_the_seed() {
        let text = r#"{"name":"g","cells":[
            {"label":"a","scenario":{"protocol":"avc","seed":1,"runs":3}},
            {"label":"b","scenario":{"protocol":"bef(l=3)","seed":1,"runs":3}}]}"#;
        let one = reseed_grid(text, SeedSequence::new(1)).unwrap();
        assert_eq!(one, reseed_grid(text, SeedSequence::new(1)).unwrap());
        assert_ne!(one, reseed_grid(text, SeedSequence::new(2)).unwrap());
        let parsed = Json::parse(&one).unwrap();
        let cells = parsed.get("cells").and_then(Json::as_arr).unwrap();
        let seed = |i: usize| {
            cells[i]
                .get("scenario")
                .and_then(|s| s.get("seed"))
                .and_then(Json::as_int)
        };
        assert_ne!(seed(0), seed(1));
        assert_eq!(
            cells[1]
                .get("scenario")
                .and_then(|s| s.get("runs"))
                .and_then(Json::as_int),
            Some(3)
        );
    }
}
