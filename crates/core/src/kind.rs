//! Engine selection by value: the [`EngineKind`] enum and its factory.
//!
//! The kinds name the paper's curves (Figures 9–15) and the oracles the
//! serving layer is tested against; serving itself runs no engine — it
//! composes the two kernel halves (see [`crate::RknnTEngine`]).
//! [`EngineKind::build`] constructs an engine over borrowed stores (engines
//! own no index, so this is O(1)) and works for *any* borrow lifetime, so a
//! thread inside a [`std::thread::scope`] can call it on references captured
//! by the scope.

use crate::brute::BruteForceEngine;
use crate::divide::DivideConquerEngine;
use crate::engine::RknnTEngine;
use crate::filter_refine::{FilterRefineEngine, VoronoiEngine};
use rknnt_index::{RouteStore, TransitionStore};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The four interchangeable RkNNT engines, as a value.
///
/// `Ord` follows declaration order and carries no meaning.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum EngineKind {
    /// Per-transition kNN check without index support (the oracle).
    BruteForce,
    /// Half-space filtering + best-first pruning + exact verification.
    FilterRefine,
    /// Filter–Refine with the per-route Voronoi filtering spaces.
    Voronoi,
    /// One single-point RkNNT per query point, results unioned (Lemma 3).
    #[default]
    DivideConquer,
}

impl EngineKind {
    /// All four kinds, in oracle-first order (handy for exhaustive tests).
    pub const ALL: [EngineKind; 4] = [
        EngineKind::BruteForce,
        EngineKind::FilterRefine,
        EngineKind::Voronoi,
        EngineKind::DivideConquer,
    ];

    /// The engine's display name, matching [`RknnTEngine::name`].
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::BruteForce => "BruteForce",
            EngineKind::FilterRefine => "Filter-Refine",
            EngineKind::Voronoi => "Voronoi",
            EngineKind::DivideConquer => "Divide-Conquer",
        }
    }

    /// Builds an engine of this kind over the given stores.
    ///
    /// The signature is universally quantified over the borrow lifetime
    /// (`for<'a>`), so callers can construct engines inside scoped worker
    /// threads over references captured by the scope.
    pub fn build<'a>(
        self,
        routes: &'a RouteStore,
        transitions: &'a TransitionStore,
    ) -> Box<dyn RknnTEngine + 'a> {
        match self {
            EngineKind::BruteForce => Box::new(BruteForceEngine::new(routes, transitions)),
            EngineKind::FilterRefine => Box::new(FilterRefineEngine::new(routes, transitions)),
            EngineKind::Voronoi => Box::new(VoronoiEngine::new(routes, transitions)),
            EngineKind::DivideConquer => Box::new(DivideConquerEngine::new(routes, transitions)),
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EngineKind::BruteForce => "brute-force",
            EngineKind::FilterRefine => "filter-refine",
            EngineKind::Voronoi => "voronoi",
            EngineKind::DivideConquer => "divide-conquer",
        })
    }
}

impl FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "brute-force" | "bruteforce" | "brute" => Ok(EngineKind::BruteForce),
            "filter-refine" | "filterrefine" | "fr" => Ok(EngineKind::FilterRefine),
            "voronoi" | "vo" => Ok(EngineKind::Voronoi),
            "divide-conquer" | "divideconquer" | "dc" => Ok(EngineKind::DivideConquer),
            other => Err(format!(
                "unknown engine {other:?}; expected brute-force, filter-refine, voronoi or divide-conquer"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknnt_geo::Point;

    #[test]
    fn roundtrips_through_display_and_fromstr() {
        for kind in EngineKind::ALL {
            let parsed: EngineKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert_eq!(
            "dc".parse::<EngineKind>().unwrap(),
            EngineKind::DivideConquer
        );
        assert!("nearest".parse::<EngineKind>().is_err());
    }

    #[test]
    fn build_produces_matching_names() {
        let routes = RouteStore::default();
        let transitions = TransitionStore::default();
        for kind in EngineKind::ALL {
            let engine = kind.build(&routes, &transitions);
            assert_eq!(engine.name(), kind.name());
        }
    }

    #[test]
    fn built_engines_are_usable_from_scoped_threads() {
        let mut routes = RouteStore::default();
        routes.insert_route(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
        let mut transitions = TransitionStore::default();
        transitions
            .insert(Point::new(1.0, 1.0), Point::new(9.0, 1.0))
            .unwrap();
        std::thread::scope(|scope| {
            for kind in EngineKind::ALL {
                let (r, t) = (&routes, &transitions);
                scope.spawn(move || {
                    let engine = kind.build(r, t);
                    let q = crate::RknntQuery::exists(vec![Point::new(5.0, 1.0)], 1);
                    let _ = engine.execute(&q);
                });
            }
        });
    }
}
