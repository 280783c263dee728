//! Everything a run feeds the program: the world (routes + transitions),
//! the distinct queries, the op lists and the update stream — all generated
//! here, from the seed, before any clock starts.
//!
//! **Why the world is fixed and the seed moves the ops.** Per-query cost on
//! check-in-shaped data is heavy-tailed (a route that crosses a hub costs
//! 100× one that does not), so re-rolling the city and the query anchors per
//! seed moves every end-to-end number by 20–30 % — measured — which would
//! drown the 10 % regression bounds in input lottery. The world and the
//! query and update *anchors* of each workload therefore come from a
//! constant, and the seed displaces every query point and every arriving
//! transition endpoint by up to [`JITTER_METRES`] and shuffles the op order
//! of the two workloads whose passes are order-free.
//! Different seeds give different inputs and different answers; aggregate
//! work stays within a few percent.

use crate::engines::ENGINES;
use crate::model::Model;
use rknnt_core::{EngineKind, RknntQuery, Semantics};
use rknnt_data::codec::Encoder;
use rknnt_data::{workload, CityConfig, CityGenerator, TransitionConfig, TransitionGenerator};
use rknnt_geo::Point;
use rknnt_index::{RouteId, TransitionId};
use rknnt_service::StoreUpdate;

/// `CityConfig::nyc_like(0.5)`: the paper's NYC extent with half its routes.
const NYC_HALF: (f64, f64, usize) = (45_000.0, 55_000.0, 1_011);
/// A compact city at the full NYC route density (0.8 routes/km²): the
/// service builds its engines once per batch, a cost that grows with the
/// route count, so the served workloads keep that count small enough for a
/// pass to hold hundreds of uncached queries.
const COMPACT: (f64, f64, usize) = (16_000.0, 20_000.0, 260);

/// Seed used when none is given; its fingerprints are committed.
pub const DEFAULT_SEED: u64 = 1;
/// Largest displacement the seed applies to each coordinate of a query
/// point or of an arriving transition endpoint.
pub const JITTER_METRES: f64 = 10.0;
/// Transition updates per batch (half inserts, half expiries).
pub const BATCH: usize = 8;
/// Measured passes of a run (fewer only when `--seconds` runs out first).
pub const MAX_PASSES: usize = 8;
/// Write passes of the read-only workloads.
pub const WRITE_PASSES: usize = 10;
/// On `churn_durable` every this-many-th batch also adds or withdraws a route.
pub const ROUTE_OP_EVERY: usize = 64;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    PaperEngines,
    ServeHot,
    ServeCold,
    ChurnDurable,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::PaperEngines,
        WorkloadKind::ServeHot,
        WorkloadKind::ServeCold,
        WorkloadKind::ChurnDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::PaperEngines => "paper_engines",
            WorkloadKind::ServeHot => "serve_hot",
            WorkloadKind::ServeCold => "serve_cold",
            WorkloadKind::ChurnDurable => "churn_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Reads and writes interleaved in one pass (only `churn_durable`); the
    /// other workloads run their write passes first, then only read.
    pub fn interleaved(self) -> bool {
        self == WorkloadKind::ChurnDurable
    }

    /// The sizes frozen at the commit that added the benchmark.
    pub fn spec(self) -> Spec {
        match self {
            WorkloadKind::PaperEngines => Spec {
                world_seed: 0x7a11_0001,
                city: NYC_HALF,
                transitions: 40_000,
                trip_cap: None,
                distinct: 72,
                reads_per_pass: 432,
                batches_per_pass: 2_000,
                subscriptions: 0,
            },
            WorkloadKind::ServeHot => Spec {
                world_seed: 0x7a11_0002,
                city: COMPACT,
                transitions: 30_000,
                trip_cap: None,
                distinct: 256,
                reads_per_pass: 80_000,
                batches_per_pass: 2_000,
                subscriptions: 0,
            },
            WorkloadKind::ServeCold => Spec {
                world_seed: 0x7a11_0003,
                city: COMPACT,
                transitions: 40_000,
                trip_cap: Some(600.0),
                distinct: 2_100,
                reads_per_pass: 2_415,
                batches_per_pass: 2_000,
                subscriptions: 0,
            },
            WorkloadKind::ChurnDurable => Spec {
                world_seed: 0x7a11_0004,
                city: COMPACT,
                transitions: 25_000,
                trip_cap: None,
                distinct: 128,
                reads_per_pass: 1_320,
                batches_per_pass: 330,
                subscriptions: 32,
            },
        }
    }
}

/// Sizes of one workload. `--smoke` divides the op counts by 20 and the
/// transition count by 8.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Constant the world and the query anchors are generated from.
    pub world_seed: u64,
    /// City extent in metres and its number of bus routes (stop spacing and
    /// stops per route are `CityConfig::nyc_like`'s).
    pub city: (f64, f64, usize),
    /// Check-in-like transitions bulk-loaded at set-up.
    pub transitions: usize,
    /// Longest trip, when the world is local trips (sharding needs them:
    /// a hub-to-hub trip inflates its shard's root MBR to city size).
    pub trip_cap: Option<f64>,
    /// Distinct query routes (`paper_engines`: × 2 values of k) or queries.
    pub distinct: usize,
    /// Queries issued per pass.
    pub reads_per_pass: usize,
    /// Update batches per write pass (or per interleaved pass).
    pub batches_per_pass: usize,
    /// Standing subscriptions registered at set-up.
    pub subscriptions: usize,
}

impl Spec {
    pub fn smoke(mut self) -> Spec {
        self.transitions /= 8;
        self.reads_per_pass = (self.reads_per_pass / 20).max(8);
        self.batches_per_pass = (self.batches_per_pass / 20).max(4);
        self.distinct = self.distinct.min(self.reads_per_pass).max(4);
        self.subscriptions = self.subscriptions.min(4);
        self
    }
}

/// One operation of a pass.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Answer `queries[index]`; `engine` is used by `paper_engines` only
    /// (the served workloads leave the choice to the service's policy).
    Query { index: u32, engine: EngineKind },
    /// Apply one batch of store updates.
    Update(Vec<StoreUpdate>),
}

/// The generated inputs of one run.
pub struct Inputs {
    pub kind: WorkloadKind,
    pub spec: Spec,
    pub routes: Vec<Vec<Point>>,
    pub transitions: Vec<(Point, Point)>,
    /// Distinct queries; `Op::Query::index` points here.
    pub queries: Vec<RknntQuery>,
    /// Standing queries registered at set-up.
    pub subscriptions: Vec<RknntQuery>,
    /// The read pass, replayed identically every time (empty for the
    /// interleaved workload, whose reads are in `slices`).
    pub read_pass: Vec<Op>,
    /// Slice 0 is the warm-up. Read-only workloads: `WRITE_PASSES + 1`
    /// slices of updates only. Interleaved: `MAX_PASSES + 1` slices of
    /// 4 queries : 1 update batch.
    pub slices: Vec<Vec<Op>>,
    /// FNV-1a over the codec bytes of all of the above.
    pub fingerprint: u64,
}

impl Inputs {
    /// The store contents right after set-up, before any update.
    pub fn initial_model(&self) -> Model {
        Model::new(&self.routes, &self.transitions)
    }
}

/// SplitMix64: the benchmark's own generator, so the op lists do not change
/// when the workspace swaps its `rand` stand-in for the real crate.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn jitter(rng: &mut Rng, route: &[Point]) -> Vec<Point> {
    route
        .iter()
        .map(|p| {
            Point::new(
                p.x + rng.range(-JITTER_METRES, JITTER_METRES),
                p.y + rng.range(-JITTER_METRES, JITTER_METRES),
            )
        })
        .collect()
}

/// Generates the inputs of `kind` for `seed`.
pub fn generate(kind: WorkloadKind, spec: Spec, seed: u64) -> Inputs {
    let city = CityGenerator::new(CityConfig {
        width: spec.city.0,
        height: spec.city.1,
        num_routes: spec.city.2,
        ..CityConfig::nyc_like(1.0, spec.world_seed)
    })
    .generate();
    let slice_count = if kind.interleaved() {
        MAX_PASSES + 1
    } else {
        WRITE_PASSES + 1
    };
    // One draw from the check-in-shaped generator yields the initial
    // population and, after it, every transition that will ever arrive —
    // so churn keeps the world's shape (same hubs, same background share)
    // however much of the population it replaces.
    let arriving = slice_count * spec.batches_per_pass * BATCH / 2;
    let mut transitions = TransitionGenerator::new(TransitionConfig::checkin_like(
        spec.transitions + arriving,
        spec.world_seed ^ 0x7ea5,
    ))
    .generate(&city);
    if let Some(cap) = spec.trip_cap {
        for (origin, destination) in &mut transitions {
            *destination = localize(*origin, *destination, cap);
        }
    }
    let arrivals = transitions.split_off(spec.transitions);
    let anchors = |count: usize, len: usize, interval: f64, tag: u64| {
        workload::rknnt_queries(&city, count, len, interval, spec.world_seed ^ tag)
    };
    let mut rng = Rng::new(seed, 1);
    let mut queries: Vec<RknntQuery> = Vec::new();
    let mut read_pass: Vec<Op> = Vec::new();
    let policy_engine = EngineKind::default();
    // Every workload's queries alternate between the paper's two values of k.
    let k_of = |i: usize| if i.is_multiple_of(2) { 5 } else { 10 };
    match kind {
        WorkloadKind::PaperEngines => {
            // The paper's Fig. 9–12 operating point: |Q| ∈ {3, 5, 8},
            // I = 3 km, ∃ semantics, k ∈ {5, 10}, every engine.
            let per_len = spec.distinct / 3;
            for (len, tag) in [(3usize, 3u64), (5, 5), (8, 8)] {
                for anchor in anchors(per_len.max(1), len, 3_000.0, tag) {
                    let route = jitter(&mut rng, &anchor);
                    for k in [5, 10] {
                        queries.push(RknntQuery::exists(route.clone(), k));
                    }
                }
            }
            let mut ops: Vec<Op> = Vec::new();
            for engine in ENGINES {
                for index in 0..queries.len() as u32 {
                    ops.push(Op::Query { index, engine });
                }
            }
            rng.shuffle(&mut ops);
            ops.truncate(spec.reads_per_pass.max(ENGINES.len()));
            read_pass = ops;
        }
        WorkloadKind::ServeHot => {
            for (i, anchor) in anchors(spec.distinct, 4, 1_000.0, 0x407).iter().enumerate() {
                queries.push(RknntQuery::exists(jitter(&mut rng, anchor), k_of(i)));
            }
            // Every distinct query the same number of times, in one
            // shuffled order: the working set is the whole cache content.
            while read_pass.len() < spec.reads_per_pass {
                let mut round: Vec<u32> = (0..queries.len() as u32).collect();
                rng.shuffle(&mut round);
                read_pass.extend(round.into_iter().map(|index| Op::Query {
                    index,
                    engine: policy_engine,
                }));
            }
            read_pass.truncate(spec.reads_per_pass);
        }
        WorkloadKind::ServeCold => {
            // Short neighbourhood probes clustered around 24 centres: the
            // per-neighbourhood demand a dispatch deployment issues, and the
            // shape spatial grouping and the footprint router work on.
            let centres = anchors(24, 1, 1.0, 0xc01d);
            let mut canon = Rng::new(spec.world_seed, 7);
            for i in 0..spec.distinct {
                let centre = centres[i % centres.len()][0];
                let start = Point::new(
                    centre.x + canon.range(-1_500.0, 1_500.0),
                    centre.y + canon.range(-1_500.0, 1_500.0),
                );
                let heading = canon.range(0.0, std::f64::consts::TAU);
                let anchor: Vec<Point> = (0..3)
                    .map(|j| {
                        let d = 400.0 * j as f64;
                        Point::new(start.x + d * heading.cos(), start.y + d * heading.sin())
                    })
                    .collect();
                queries.push(RknntQuery::exists(jitter(&mut rng, &anchor), k_of(i)));
            }
            // Clustered order (centre by centre, so a window of requests
            // shares a neighbourhood), then 10 % exact duplicates and 5 %
            // same-route ∀ twins, each right behind its original so both
            // meet in one server batch.
            let distinct = queries.len();
            let mut order: Vec<u32> = (0..distinct as u32).collect();
            order.sort_by_key(|&i| (i as usize % centres.len(), i));
            for index in order {
                read_pass.push(Op::Query {
                    index,
                    engine: policy_engine,
                });
                let roll = canon.unit();
                if roll < 0.10 {
                    read_pass.push(Op::Query {
                        index,
                        engine: policy_engine,
                    });
                } else if roll < 0.15 {
                    let original = &queries[index as usize];
                    queries.push(RknntQuery {
                        semantics: Semantics::ForAll,
                        ..original.clone()
                    });
                    read_pass.push(Op::Query {
                        index: queries.len() as u32 - 1,
                        engine: policy_engine,
                    });
                }
            }
        }
        WorkloadKind::ChurnDurable => {
            for (i, anchor) in anchors(spec.distinct, 4, 1_000.0, 0xc4a2)
                .iter()
                .enumerate()
            {
                queries.push(RknntQuery::exists(jitter(&mut rng, anchor), k_of(i)));
            }
        }
    }
    let subscriptions: Vec<RknntQuery> = anchors(spec.subscriptions.max(1), 4, 1_000.0, 0x5ab5)
        .iter()
        .take(spec.subscriptions)
        .map(|anchor| RknntQuery::exists(jitter(&mut rng, anchor), 5))
        .collect();

    // The update stream: generated against a model of the stores so every
    // expiry names a live id and every insert's id is known in advance.
    let mut updates = UpdateGen {
        rng: Rng::new(spec.world_seed, 2),
        jitter: Rng::new(seed, 2),
        arrivals: arrivals.into_iter(),
        stop_spacing: city.config.stop_spacing,
        next_transition: transitions.len() as u32,
        live: (0..transitions.len() as u32).collect(),
        next_route: city.routes.len() as u32,
        bench_route: None,
        batches: 0,
        route_ops: kind.interleaved(),
    };
    let mut pick = Rng::new(spec.world_seed, 3);
    let slices: Vec<Vec<Op>> = (0..slice_count)
        .map(|_| {
            let mut ops = Vec::new();
            for _ in 0..spec.batches_per_pass {
                if kind.interleaved() {
                    // Skewed popularity: squaring a uniform draw sends half
                    // the traffic to the first quarter of the queries.
                    let reads = spec.reads_per_pass / spec.batches_per_pass;
                    for _ in 0..reads {
                        let u = pick.unit();
                        ops.push(Op::Query {
                            index: (u * u * queries.len() as f64) as u32,
                            engine: policy_engine,
                        });
                    }
                }
                ops.push(Op::Update(updates.next_batch()));
            }
            ops
        })
        .collect();

    let mut inputs = Inputs {
        kind,
        spec,
        routes: city.routes,
        transitions,
        queries,
        subscriptions,
        read_pass,
        slices,
        fingerprint: 0,
    };
    inputs.fingerprint = fingerprint(&inputs);
    inputs
}

/// Caps a trip at `cap` metres by pulling the destination toward the origin.
fn localize(origin: Point, destination: Point, cap: f64) -> Point {
    let len = origin.distance(&destination);
    if len <= cap || len == 0.0 {
        destination
    } else {
        origin.lerp(&destination, cap / len)
    }
}

struct UpdateGen {
    /// Which transitions expire and where routes appear: part of the world,
    /// the same for every seed.
    rng: Rng,
    /// The seed's displacement of every arriving endpoint.
    jitter: Rng,
    /// The transitions still to arrive, in arrival order.
    arrivals: std::vec::IntoIter<(Point, Point)>,
    stop_spacing: f64,
    next_transition: u32,
    live: Vec<u32>,
    next_route: u32,
    bench_route: Option<u32>,
    batches: usize,
    route_ops: bool,
}

impl UpdateGen {
    fn arrival(&mut self) -> (Point, Point) {
        let (origin, destination) = self
            .arrivals
            .next()
            .expect("arrivals were sized to the slices");
        let moved = jitter(&mut self.jitter, &[origin, destination]);
        (moved[0], moved[1])
    }

    /// Four arrivals and four expiries, alternating, so the population is
    /// stationary; on the interleaved workload every 64th batch also adds a
    /// short route or withdraws the one added 64 batches before.
    fn next_batch(&mut self) -> Vec<StoreUpdate> {
        let mut batch = Vec::with_capacity(BATCH + 1);
        let mut last_origin = Point::ORIGIN;
        for i in 0..BATCH {
            if i % 2 == 0 {
                let (origin, destination) = self.arrival();
                last_origin = origin;
                self.live.push(self.next_transition);
                self.next_transition += 1;
                batch.push(StoreUpdate::InsertTransition {
                    origin,
                    destination,
                });
            } else {
                let victim = self.rng.below(self.live.len());
                batch.push(StoreUpdate::ExpireTransition(TransitionId(
                    self.live.swap_remove(victim),
                )));
            }
        }
        self.batches += 1;
        if self.route_ops && self.batches.is_multiple_of(ROUTE_OP_EVERY) {
            batch.push(match self.bench_route.take() {
                Some(id) => StoreUpdate::RemoveRoute(RouteId(id)),
                None => {
                    // A short straight line starting where demand just arrived.
                    let heading = self.rng.range(0.0, std::f64::consts::TAU);
                    let points = (0..4)
                        .map(|i| {
                            let d = i as f64 * self.stop_spacing;
                            Point::new(
                                last_origin.x + d * heading.cos(),
                                last_origin.y + d * heading.sin(),
                            )
                        })
                        .collect();
                    self.bench_route = Some(self.next_route);
                    self.next_route += 1;
                    StoreUpdate::InsertRoute(points)
                }
            });
        }
        batch
    }
}

/// FNV-1a over the codec bytes of routes, transitions, queries and ops.
fn fingerprint(inputs: &Inputs) -> u64 {
    let mut enc = Encoder::new();
    enc.len_prefix(inputs.routes.len());
    for route in &inputs.routes {
        enc.points(route);
    }
    enc.len_prefix(inputs.transitions.len());
    for (origin, destination) in &inputs.transitions {
        enc.point(origin);
        enc.point(destination);
    }
    let encode_query = |enc: &mut Encoder, q: &RknntQuery| {
        enc.points(&q.route);
        enc.u64(q.k as u64);
        enc.bool(q.semantics == Semantics::ForAll);
    };
    enc.len_prefix(inputs.queries.len());
    for q in inputs.queries.iter().chain(&inputs.subscriptions) {
        encode_query(&mut enc, q);
    }
    for ops in std::iter::once(&inputs.read_pass).chain(&inputs.slices) {
        enc.len_prefix(ops.len());
        for op in ops {
            match op {
                Op::Query { index, engine } => {
                    enc.u32(*index);
                    enc.str(engine.name());
                }
                Op::Update(batch) => {
                    for update in batch {
                        enc.bytes(&update.to_wal_record());
                    }
                }
            }
        }
    }
    enc.as_bytes().iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_ops_same_world() {
        for kind in WorkloadKind::ALL {
            let spec = kind.spec().smoke();
            let a = generate(kind, spec, 5);
            let b = generate(kind, spec, 5);
            let c = generate(kind, spec, 6);
            assert_eq!(a.fingerprint, b.fingerprint, "{}", kind.name());
            assert_ne!(a.fingerprint, c.fingerprint, "{}", kind.name());
            assert_eq!(a.routes, c.routes);
            assert_eq!(a.transitions, c.transitions);
            assert_ne!(a.queries, c.queries);
            assert_eq!(WorkloadKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::parse("nope"), None);
    }

    #[test]
    fn update_stream_is_balanced_and_names_only_live_ids() {
        let kind = WorkloadKind::ChurnDurable;
        let inputs = generate(kind, kind.spec().smoke(), 3);
        let mut model = inputs.initial_model();
        let before = model.live_transitions();
        let mut route_ops = 0;
        for op in inputs.slices.iter().flatten() {
            if let Op::Update(batch) = op {
                for update in batch {
                    assert!(model.apply(update), "update names a dead id: {update:?}");
                    route_ops += usize::from(matches!(
                        update,
                        StoreUpdate::InsertRoute(_) | StoreUpdate::RemoveRoute(_)
                    ));
                }
            }
        }
        assert_eq!(model.live_transitions(), before);
        assert!(route_ops >= 2, "the stream must add and withdraw routes");
        assert_eq!(inputs.slices.len(), MAX_PASSES + 1);
    }

    #[test]
    fn rng_is_uniform_enough_and_shuffles() {
        let mut rng = Rng::new(9, 1);
        let mean: f64 = (0..10_000).map(|_| rng.unit()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02);
        assert!((0..1_000).all(|_| rng.below(7) < 7));
        let mut items: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_ne!(items, sorted.iter().rev().copied().collect::<Vec<_>>());
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
