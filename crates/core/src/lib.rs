//! RkNNT query processing — the primary contribution of the paper.
//!
//! Given a route set `D_R` (indexed by a [`rknnt_index::RouteStore`]), a
//! transition set `D_T` (indexed by a [`rknnt_index::TransitionStore`]) and a
//! query route `Q`, an RkNNT query returns every transition that takes `Q`
//! as one of its k nearest routes (Definition 5). This crate provides four
//! interchangeable engines behind the [`RknnTEngine`] trait:
//!
//! | Engine | Paper section | Idea |
//! |---|---|---|
//! | [`BruteForceEngine`] | Sec. 1 (straw-man) | per-transition kNN check; also the correctness oracle for the test-suite |
//! | [`FilterRefineEngine`] | Sec. 4 | half-space filtering with a filter set chosen from the RR-tree, best-first pruning of the TR-tree, exact verification |
//! | [`VoronoiEngine`] | Sec. 5.1 | Filter–Refine plus the per-route Voronoi filtering space to enlarge the pruned region |
//! | [`DivideConquerEngine`] | Sec. 5.2 | one single-point RkNNT per query point, results unioned (Lemma 3) |
//!
//! All engines answer both ∃RkNNT and ∀RkNNT ([`Semantics`]), produce the
//! same result sets (verified extensively against the brute-force oracle in
//! the test-suite), and report per-phase timings used by the breakdown
//! figures of the evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod brute;
mod divide;
mod engine;
mod filter;
mod filter_refine;
mod kind;
mod prune;
mod query;
mod scratch;
mod verify;

pub use brute::BruteForceEngine;
pub use divide::DivideConquerEngine;
pub use engine::RknnTEngine;
pub use filter::{build_filter_set, FilterOutcome, FilterPoint, FilterSet};
pub use filter_refine::{FilterRefineEngine, VoronoiEngine};
pub use kind::EngineKind;
pub use prune::{prune_into_scratch, prune_transitions, CandidateEndpoint, PruneOutcome};
pub use query::{PhaseTimings, QueryStats, RknntQuery, RknntResult, Semantics};
pub use scratch::{QueryScratch, RouteMarks};
pub use verify::{
    verify_candidates, CertificateScratch, EndpointCertificate, TransitionCertificate,
};
