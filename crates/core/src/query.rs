//! Query description, result and statistics types.

use crate::filter::FilterOutcome;
use rknnt_geo::Point;
use rknnt_index::TransitionId;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Which flavour of RkNNT to answer (Definition 4 / 5).
///
/// * `Exists` (∃RkNNT): a transition qualifies when *at least one* of its
///   endpoints takes the query as a kNN. This is the paper's default.
/// * `ForAll` (∀RkNNT): a transition qualifies when *both* endpoints take
///   the query as a kNN. By Lemma 1, `ForAll ⊆ Exists`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Semantics {
    /// ∃RkNNT — at least one endpoint qualifies.
    #[default]
    Exists,
    /// ∀RkNNT — both endpoints must qualify.
    ForAll,
}

impl std::fmt::Display for Semantics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Semantics::Exists => "exists",
            Semantics::ForAll => "forall",
        })
    }
}

impl std::str::FromStr for Semantics {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "exists" | "exist" | "any" | "∃" => Ok(Semantics::Exists),
            "forall" | "for-all" | "for_all" | "all" | "∀" => Ok(Semantics::ForAll),
            other => Err(format!(
                "unknown semantics {other:?}; expected exists or forall"
            )),
        }
    }
}

/// An RkNNT query: a query route `Q`, the neighbourhood size `k`, and the
/// desired semantics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RknntQuery {
    /// Points of the query route, in travel order.
    pub route: Vec<Point>,
    /// Number of nearest routes considered (k of "k nearest").
    pub k: usize,
    /// ∃ or ∀ semantics.
    pub semantics: Semantics,
}

impl RknntQuery {
    /// Builds an ∃RkNNT query.
    pub fn exists(route: Vec<Point>, k: usize) -> Self {
        RknntQuery {
            route,
            k,
            semantics: Semantics::Exists,
        }
    }

    /// Builds a ∀RkNNT query.
    pub fn for_all(route: Vec<Point>, k: usize) -> Self {
        RknntQuery {
            route,
            k,
            semantics: Semantics::ForAll,
        }
    }

    /// Whether the query is trivially empty (no points or `k == 0`); engines
    /// return an empty result for such queries.
    pub fn is_degenerate(&self) -> bool {
        self.route.is_empty() || self.k == 0
    }
}

/// Wall-clock time spent in the two phases the paper's breakdown figures
/// report: filtering (filter-set construction plus transition pruning) and
/// verification (exact refinement of surviving candidates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Filter-set construction + TR-tree pruning.
    pub filtering: Duration,
    /// Exact verification of candidates.
    pub verification: Duration,
}

impl PhaseTimings {
    /// Total time across both phases.
    pub fn total(&self) -> Duration {
        self.filtering + self.verification
    }
}

/// Work counters reported alongside a query result. Useful for the ablation
/// benchmarks and for understanding where pruning power comes from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryStats {
    /// Number of filtering points kept in the filter set (|S_filter.P|).
    pub filter_points: usize,
    /// Number of distinct routes contributing filter points (|S_filter.R|).
    pub filter_routes: usize,
    /// RR-tree nodes set aside as "filtered" during filter-set construction
    /// (|S_refine|).
    pub refine_nodes: usize,
    /// TR-tree nodes pruned wholesale during transition pruning.
    pub pruned_tr_nodes: usize,
    /// Candidate endpoints surviving transition pruning (|S_cnd|).
    pub candidate_endpoints: usize,
    /// Candidate endpoints confirmed by verification.
    pub verified_endpoints: usize,
    /// Transitions in the final result (|S_result|).
    pub result_transitions: usize,
    /// Entries put through `IsFiltered` by the two tree walks: RR-tree node
    /// MBRs and stops during filter construction, TR-tree node MBRs and
    /// endpoints during pruning. A property of the trees, the query and `k`
    /// alone — the same however the test is evaluated.
    pub entries_tested: usize,
    /// Filter-point × entry evaluations those tests made (step 1 of
    /// `IsFiltered`: one filter point's half-planes against one node MBR or
    /// point). The machine-independent cost of the filter and prune phases;
    /// inheriting verdicts down the walks is what keeps it far below
    /// `entries_tested × filter_points`.
    pub filter_tests: usize,
}

impl QueryStats {
    /// Adds the counters of one filter + prune pass: the filter set's size,
    /// the RR-tree nodes its construction set aside, the work that
    /// construction did, and the TR-tree nodes the pruning walk(s) against it
    /// skipped wholesale. (The pruning walks' own work counts come from the
    /// scratch they ran on, through [`crate::verify_candidates`].)
    pub fn record_filter(&mut self, outcome: &FilterOutcome, pruned_tr_nodes: usize) {
        self.filter_points += outcome.filter_set.num_points();
        self.filter_routes += outcome.filter_set.num_routes();
        self.refine_nodes += outcome.refine_nodes.len();
        self.entries_tested += outcome.entries_tested;
        self.filter_tests += outcome.filter_tests;
        self.pruned_tr_nodes += pruned_tr_nodes;
    }
}

/// Result of an RkNNT query.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RknntResult {
    /// Identifiers of the qualifying transitions, sorted ascending.
    pub transitions: Vec<TransitionId>,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// Work counters.
    pub stats: QueryStats,
}

impl RknntResult {
    /// Number of transitions in the result (the paper's |ω(R)| when the
    /// query is a route of the network).
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Whether no transition qualifies.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Whether a specific transition is part of the result.
    pub fn contains(&self, id: TransitionId) -> bool {
        self.transitions.binary_search(&id).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_semantics() {
        let q1 = RknntQuery::exists(vec![Point::new(0.0, 0.0)], 3);
        let q2 = RknntQuery::for_all(vec![Point::new(0.0, 0.0)], 3);
        assert_eq!(q1.semantics, Semantics::Exists);
        assert_eq!(q2.semantics, Semantics::ForAll);
        assert_eq!(Semantics::default(), Semantics::Exists);
    }

    #[test]
    fn semantics_roundtrip_display_fromstr() {
        for semantics in [Semantics::Exists, Semantics::ForAll] {
            let parsed: Semantics = semantics.to_string().parse().unwrap();
            assert_eq!(parsed, semantics);
        }
        assert_eq!("for_all".parse::<Semantics>().unwrap(), Semantics::ForAll);
        assert_eq!("ANY".parse::<Semantics>().unwrap(), Semantics::Exists);
        assert!("both".parse::<Semantics>().is_err());
    }

    #[test]
    fn degenerate_queries_detected() {
        assert!(RknntQuery::exists(vec![], 3).is_degenerate());
        assert!(RknntQuery::exists(vec![Point::new(1.0, 1.0)], 0).is_degenerate());
        assert!(!RknntQuery::exists(vec![Point::new(1.0, 1.0)], 1).is_degenerate());
    }

    #[test]
    fn result_contains_uses_sorted_ids() {
        let r = RknntResult {
            transitions: vec![TransitionId(1), TransitionId(5), TransitionId(9)],
            ..Default::default()
        };
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!(r.contains(TransitionId(5)));
        assert!(!r.contains(TransitionId(4)));
    }

    #[test]
    fn timings_total() {
        let t = PhaseTimings {
            filtering: Duration::from_millis(3),
            verification: Duration::from_millis(7),
        };
        assert_eq!(t.total(), Duration::from_millis(10));
    }
}
