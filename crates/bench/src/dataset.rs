//! Dataset construction for the experiments.

use rknnt_data::{CityConfig, CityGenerator, TransitionConfig, TransitionGenerator};
use rknnt_graph::RouteGraph;
use rknnt_index::{RouteStore, TransitionStore};
use std::sync::OnceLock;

/// Which of the paper's datasets to emulate (plus the small synthetic city
/// used by the examples and the serving experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// The small synthetic city of `CityConfig::small` (tests, examples,
    /// the serving experiments).
    Small,
    /// The LA bus network + LA-Transit check-ins.
    LaLike,
    /// The NYC bus network + NYC-Transit check-ins.
    NycLike,
    /// The NYC network with the large synthetic transition set
    /// (NYC-Synthetic, 10M transitions in the paper).
    NycSynthetic,
}

impl DatasetKind {
    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Small => "Small-synthetic",
            DatasetKind::LaLike => "LA-like",
            DatasetKind::NycLike => "NYC-like",
            DatasetKind::NycSynthetic => "NYC-Synthetic-like",
        }
    }
}

impl std::fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DatasetKind::Small => "small",
            DatasetKind::LaLike => "la",
            DatasetKind::NycLike => "nyc",
            DatasetKind::NycSynthetic => "nyc-synthetic",
        })
    }
}

impl std::str::FromStr for DatasetKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "small" | "smallville" => Ok(DatasetKind::Small),
            "la" | "la-like" => Ok(DatasetKind::LaLike),
            "nyc" | "nyc-like" => Ok(DatasetKind::NycLike),
            "nyc-synthetic" | "synthetic" => Ok(DatasetKind::NycSynthetic),
            other => Err(format!(
                "unknown dataset {other:?}; expected small, la, nyc or nyc-synthetic"
            )),
        }
    }
}

/// Scale knobs for experiment runs. The defaults keep a full `--exp all`
/// sweep to a few minutes on a laptop; raise `city_scale` /
/// `transitions` to approach the paper's dataset sizes (Table 2 / 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Fraction of the paper's route counts to generate (1.0 = full size).
    pub city_scale: f64,
    /// Number of transitions for the LA-like / NYC-like check-in sets.
    pub transitions: usize,
    /// Number of transitions for the synthetic set (paper: 10,000,000).
    pub synthetic_transitions: usize,
    /// Number of queries per configuration point.
    pub queries_per_point: usize,
    /// RNG seed shared by all generators.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            city_scale: 0.08,
            transitions: 20_000,
            synthetic_transitions: 80_000,
            queries_per_point: 12,
            seed: 42,
        }
    }
}

impl ScaleConfig {
    /// A deliberately tiny configuration for smoke tests and CI.
    pub fn tiny() -> Self {
        ScaleConfig {
            city_scale: 0.01,
            transitions: 1_000,
            synthetic_transitions: 2_000,
            queries_per_point: 2,
            seed: 42,
        }
    }
}

/// One generated dataset: the city, its index structures and its graph.
pub struct Dataset {
    /// Which dataset this emulates.
    pub kind: DatasetKind,
    /// The generated city (routes as point sequences).
    pub city: rknnt_data::City,
    /// RR-tree-backed route store.
    pub routes: RouteStore,
    /// TR-tree-backed transition store.
    pub transitions: TransitionStore,
    /// Bus-network graph.
    pub graph: RouteGraph,
}

impl Dataset {
    /// Builds a dataset of the given kind at the given scale.
    pub fn build(kind: DatasetKind, scale: &ScaleConfig) -> Self {
        let city_config = match kind {
            DatasetKind::Small => CityConfig::small(scale.seed),
            DatasetKind::LaLike => CityConfig::la_like(scale.city_scale, scale.seed),
            DatasetKind::NycLike | DatasetKind::NycSynthetic => {
                CityConfig::nyc_like(scale.city_scale, scale.seed ^ 0x5a5a)
            }
        };
        let city = CityGenerator::new(city_config).generate();
        let transition_count = match kind {
            DatasetKind::NycSynthetic => scale.synthetic_transitions,
            _ => scale.transitions,
        };
        let transitions = TransitionGenerator::new(TransitionConfig::checkin_like(
            transition_count,
            scale.seed ^ kind.name().len() as u64,
        ))
        .generate_store(&city);
        let routes = city.route_store();
        let graph = city.graph();
        Dataset {
            kind,
            city,
            routes,
            transitions,
            graph,
        }
    }

    /// One-line summary used by the Tables 2/3 experiment.
    pub fn summary(&self) -> String {
        format!(
            "{:<20} |D_R| = {:>6}  |G.V| = {:>7}  |G.E| = {:>7}  |D_T| = {:>9}",
            self.kind.name(),
            self.routes.num_routes(),
            self.graph.num_vertices(),
            self.graph.num_edges(),
            self.transitions.len()
        )
    }
}

/// The LA-like and NYC-like datasets the paper's sweeps run on — each built
/// the first time an experiment asks for it, so an experiment that uses
/// neither (the serving experiments run on [`DatasetKind::Small`]) never
/// pays for them — plus the default query parameters of Table 4 (scaled to
/// the synthetic city size).
pub struct ExperimentContext {
    la: OnceLock<Dataset>,
    nyc: OnceLock<Dataset>,
    /// Scale configuration the datasets are built at.
    pub scale: ScaleConfig,
}

impl ExperimentContext {
    /// A context at `scale`; nothing is generated yet.
    pub fn new(scale: ScaleConfig) -> Self {
        ExperimentContext {
            la: OnceLock::new(),
            nyc: OnceLock::new(),
            scale,
        }
    }

    /// The LA-like dataset.
    pub fn la(&self) -> &Dataset {
        self.la
            .get_or_init(|| Dataset::build(DatasetKind::LaLike, &self.scale))
    }

    /// The NYC-like dataset.
    pub fn nyc(&self) -> &Dataset {
        self.nyc
            .get_or_init(|| Dataset::build(DatasetKind::NycLike, &self.scale))
    }

    /// Default k (Table 4 underlines k = 10).
    pub fn default_k(&self) -> usize {
        10
    }

    /// Default query length |Q| (Table 4 underlines 5).
    pub fn default_query_len(&self) -> usize {
        5
    }

    /// Default interval I between adjacent query points, in metres.
    ///
    /// The paper's default is 3 km on full-size cities; the scaled cities
    /// keep the same stop spacing, so the absolute value carries over.
    pub fn default_interval(&self) -> f64 {
        3_000.0
    }

    /// The k sweep of Table 4.
    pub fn k_values(&self) -> Vec<usize> {
        vec![1, 5, 10, 15, 20, 25]
    }

    /// The |Q| sweep of Table 4.
    pub fn query_len_values(&self) -> Vec<usize> {
        vec![3, 4, 5, 6, 7, 8, 9, 10]
    }

    /// The interval sweep of Table 4 (1–6 km).
    pub fn interval_values(&self) -> Vec<f64> {
        (1..=6).map(|i| i as f64 * 1_000.0).collect()
    }

    /// The ψ(se) sweep of Table 4, scaled to the generated city diagonal so
    /// every span admits at least one start/end pair.
    pub fn span_values(&self, dataset: &Dataset) -> Vec<f64> {
        let diag = dataset
            .city
            .config
            .area()
            .min
            .distance(&dataset.city.config.area().max);
        (1..=5).map(|i| diag * 0.08 * i as f64).collect()
    }

    /// The τ/ψ(se) sweep of Table 4.
    pub fn tau_ratio_values(&self) -> Vec<f64> {
        vec![1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_datasets_build_consistently() {
        let scale = ScaleConfig::tiny();
        let la = Dataset::build(DatasetKind::LaLike, &scale);
        assert!(la.routes.num_routes() > 0);
        assert_eq!(la.transitions.len(), scale.transitions);
        assert_eq!(la.graph.num_vertices(), la.routes.num_stops());
        assert!(la.summary().contains("LA-like"));
        let synthetic = Dataset::build(DatasetKind::NycSynthetic, &scale);
        assert_eq!(synthetic.transitions.len(), scale.synthetic_transitions);
    }

    #[test]
    fn dataset_kind_roundtrips_display_fromstr() {
        for kind in [
            DatasetKind::Small,
            DatasetKind::LaLike,
            DatasetKind::NycLike,
            DatasetKind::NycSynthetic,
        ] {
            let parsed: DatasetKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert_eq!("LA".parse::<DatasetKind>().unwrap(), DatasetKind::LaLike);
        assert!("chicago".parse::<DatasetKind>().is_err());
    }

    #[test]
    fn small_dataset_builds_from_the_small_city() {
        let scale = ScaleConfig::tiny();
        let small = Dataset::build(DatasetKind::Small, &scale);
        assert_eq!(small.city.config.name, "Smallville");
        assert_eq!(small.transitions.len(), scale.transitions);
        assert!(small.summary().contains("Small-synthetic"));
    }

    #[test]
    fn context_parameters_match_table4() {
        let ctx = ExperimentContext::new(ScaleConfig::tiny());
        assert_eq!(ctx.default_k(), 10);
        assert_eq!(ctx.default_query_len(), 5);
        assert_eq!(ctx.k_values(), vec![1, 5, 10, 15, 20, 25]);
        assert_eq!(ctx.query_len_values().len(), 8);
        assert_eq!(ctx.interval_values().len(), 6);
        assert_eq!(ctx.tau_ratio_values().len(), 6);
        assert_eq!(ctx.span_values(ctx.la()).len(), 5);
    }
}
