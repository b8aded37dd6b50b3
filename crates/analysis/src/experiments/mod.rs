//! Paper experiments, one module per figure/study.
//!
//! Each module exposes a `Config` (with paper defaults and a `quick()`
//! downscaled variant for CI), a per-cell runner (`run_cell`/`run_point`;
//! for [`dynamics`], its single-run `run`) and the table builders that
//! render its rows as [`Table`]s. The cell grid itself lives in the
//! matching `avc sweep` spec of the `avc-store` crate, which visits the
//! cells, checkpoints each one and exports the CSVs.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig3`] | Figure 3: 3-state vs 4-state vs n-state AVC at `ε = 1/n` (time + error fraction) |
//! | [`fig4`] | Figure 4: AVC time vs `ε` for 13 state counts, and the `s·ε` collapse |
//! | [`four_state_scaling`] | Theorem B.1: empirical `Θ(1/ε)` scaling of the four-state protocol |
//! | [`three_state_error`] | \[PVV09] error law `exp(−Θ(ε²n))` behind Figure 3 (right) |
//! | [`ablation_d`] | §6 discussion: sensitivity of AVC to the level count `d` |
//! | [`dynamics`] | §4 analysis structure: weight halving + population split along a run |
//! | [`graph_gap`] | \[DV12]: four-state time vs interaction-graph spectral gap |
//! | [`robustness`] | §2 model discussion: exactness under adversarial schedulers and injected faults |
//!
//! [`Table`]: crate::table::Table

pub mod ablation_d;
pub mod dynamics;
pub mod fig3;
pub mod fig4;
pub mod four_state_scaling;
pub mod graph_gap;
pub mod robustness;
pub mod three_state_error;

/// Writes a table as CSV under `results/` and prints its markdown rendering.
///
/// `avc export` reports every table through this helper so outputs land
/// consistently in one place.
///
/// # Panics
///
/// Panics if the CSV cannot be written (an export has no meaningful
/// recovery).
pub fn report(table: &crate::table::Table, out_dir: &str, file_stem: &str) {
    let path = std::path::Path::new(out_dir).join(format!("{file_stem}.csv"));
    table
        .write_csv(&path)
        .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
    println!("{}", table.to_markdown());
    println!("[written to {}]\n", path.display());
}
