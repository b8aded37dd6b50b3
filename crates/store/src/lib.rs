//! Crash-safe experiment registry with checkpoint/resume, plus the unified
//! `avc` sweep CLI.
//!
//! Every experiment is a grid of *cells*. A cell's identity is the SHA-256
//! hash of a canonical [`manifest`](manifest::Manifest) — protocol, engine,
//! instance size, effective seed, trial count — and its result (trial
//! samples as exact `f64` bit patterns, pre-rendered table rows) is appended
//! durably to a JSONL [`store`](store::Store) the moment the cell finishes.
//! Interrupting a sweep (Ctrl-C, `kill -9`, power loss) therefore costs at
//! most the in-flight cell; rerunning the same `avc sweep` command skips
//! every completed cell and `avc export` regenerates byte-identical
//! `results/*.csv` files at any `--serial`/`--threads` setting.
//!
//! The crate is std-only by design: the registry format must not depend on
//! anything that could drift (see `avc_population::json` for the canonical
//! subset used).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod manifest;
pub mod record;
pub mod scenario_grid;
pub mod specs;
pub mod store;
pub mod sweep;
