//! Experiment harness reproducing every table and figure of the RkNNT
//! evaluation (Section 7), plus the three wall-clock experiments behind the
//! CI gates.
//!
//! * [`experiments`] — one function per experiment, named once in
//!   [`experiments::EXPERIMENTS`]; each returns its rows as typed
//!   [`Record`]s (string labels, `f64` values) in an [`Output`], and the
//!   wall-clock ones also return [`gate::GateOutcome`]s checked against
//!   constants that sit beside the measuring code;
//! * [`dataset`] — dataset construction ([`Dataset`],
//!   [`ExperimentContext`]);
//! * [`record`] — the record type, its human line and the one JSONL writer;
//! * [`gate`] — gate outcomes and their PASS/FAIL, JSON and markdown
//!   renderings;
//! * the `experiments` binary — a small CLI that dispatches through the
//!   table (see `experiments --help`).
//!
//! End-to-end throughput and latency are measured by `benchmark/`, not
//! here; exact seed-determined counts are asserted by the crates' own test
//! suites.

pub mod dataset;
pub mod experiments;
pub mod gate;
pub mod record;

pub use dataset::{Dataset, DatasetKind, ExperimentContext, ScaleConfig};
pub use record::{Output, Record};
