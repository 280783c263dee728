//! The correctness oracle: RkNNT by its definition, over the benchmark's own
//! [`Model`], sharing no code with the engines it checks.
//!
//! A transition endpoint `t` takes the query `Q` as a k-nearest route iff
//! fewer than `k` routes are strictly closer to `t` than `Q` is — that is,
//! iff `dist(t, Q) <= r_k(t)`, the distance from `t` to its k-th nearest
//! route. `r_k(t)` does not depend on the query, so it is computed once per
//! endpoint (a ring search over a uniform grid of stops) and every query is
//! then one pass over the endpoints. That makes checking *every* distinct
//! query affordable where `BruteForceEngine` costs about a second per query
//! at these sizes; the oracle itself is checked against `BruteForceEngine`
//! on one seeded query per run ([`brute_force`]).

use crate::model::Model;
use rknnt_core::{BruteForceEngine, RknnTEngine, RknntQuery, Semantics};
use rknnt_geo::Point;
use rknnt_index::{RouteStore, TransitionId, TransitionStore};
use rknnt_rtree::RTreeConfig;

const CELL: f64 = 400.0;

struct Entry {
    id: u32,
    endpoints: [Point; 2],
    /// `radii[endpoint][i]`: squared distance to the `ks[i]`-th nearest route.
    radii: [Vec<f64>; 2],
}

/// Precomputed k-th-nearest-route radii of every live transition endpoint.
pub struct Oracle {
    ks: Vec<usize>,
    entries: Vec<Entry>,
}

/// Uniform grid over every stop of every live route.
struct StopGrid {
    min: Point,
    cols: i64,
    rows: i64,
    cells: Vec<Vec<(Point, u32)>>,
}

impl StopGrid {
    fn build(model: &Model) -> StopGrid {
        let stops: Vec<(Point, u32)> = model
            .live_routes()
            .flat_map(|(id, points)| points.iter().map(move |p| (*p, id)))
            .collect();
        let (mut min, mut max) = (
            Point::new(f64::INFINITY, f64::INFINITY),
            Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        );
        for (p, _) in &stops {
            min = Point::new(min.x.min(p.x), min.y.min(p.y));
            max = Point::new(max.x.max(p.x), max.y.max(p.y));
        }
        if stops.is_empty() {
            (min, max) = (Point::ORIGIN, Point::ORIGIN);
        }
        let cols = ((max.x - min.x) / CELL) as i64 + 1;
        let rows = ((max.y - min.y) / CELL) as i64 + 1;
        let mut cells = vec![Vec::new(); (cols * rows) as usize];
        for (p, route) in stops {
            let (cx, cy) = (((p.x - min.x) / CELL) as i64, ((p.y - min.y) / CELL) as i64);
            cells[(cy * cols + cx) as usize].push((p, route));
        }
        StopGrid {
            min,
            cols,
            rows,
            cells,
        }
    }

    /// Squared distances from `t` to its nearest distinct routes, ascending,
    /// at most `want` of them.
    fn nearest_routes(&self, t: &Point, want: usize) -> Vec<f64> {
        let cx = ((t.x - self.min.x) / CELL).floor() as i64;
        let cy = ((t.y - self.min.y) / CELL).floor() as i64;
        // Rings further out than this hold no cell of the grid.
        let last_ring =
            (cx.abs().max((self.cols - cx).abs())).max(cy.abs().max((self.rows - cy).abs()));
        let mut best: Vec<(f64, u32)> = Vec::with_capacity(want + 1);
        for ring in 0..=last_ring {
            let mut visit = |x: i64, y: i64| {
                if x < 0 || y < 0 || x >= self.cols || y >= self.rows {
                    return;
                }
                for (stop, route) in &self.cells[(y * self.cols + x) as usize] {
                    let d = t.distance_sq(stop);
                    if let Some(slot) = best.iter_mut().find(|(_, r)| r == route) {
                        slot.0 = slot.0.min(d);
                    } else if best.len() < want || d < best[best.len() - 1].0 {
                        best.push((d, *route));
                    } else {
                        continue;
                    }
                    best.sort_by(|a, b| a.0.total_cmp(&b.0));
                    best.truncate(want);
                }
            };
            if ring == 0 {
                visit(cx, cy);
            } else {
                for x in cx - ring..=cx + ring {
                    visit(x, cy - ring);
                    visit(x, cy + ring);
                }
                for y in cy - ring + 1..cy + ring {
                    visit(cx - ring, y);
                    visit(cx + ring, y);
                }
            }
            // Every stop in a later ring is at least `ring` cells away.
            let reach = ring as f64 * CELL;
            if best.len() == want && best[want - 1].0 <= reach * reach {
                break;
            }
        }
        best.into_iter().map(|(d, _)| d).collect()
    }
}

impl Oracle {
    /// Precomputes the radii for the values of `k` the queries use.
    pub fn build(model: &Model, queries: &[RknntQuery]) -> Oracle {
        let mut ks: Vec<usize> = queries.iter().map(|q| q.k).collect();
        ks.sort_unstable();
        ks.dedup();
        let want = ks.last().copied().unwrap_or(1);
        let grid = StopGrid::build(model);
        let live: Vec<(u32, (Point, Point))> = model
            .transitions
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.map(|pair| (id as u32, pair)))
            .collect();
        let entry = |&(id, (origin, destination)): &(u32, (Point, Point))| {
            let radii = [origin, destination].map(|t| {
                let nearest = grid.nearest_routes(&t, want);
                ks.iter()
                    .map(|k| nearest.get(k - 1).copied().unwrap_or(f64::INFINITY))
                    .collect()
            });
            Entry {
                id,
                endpoints: [origin, destination],
                radii,
            }
        };
        // Checking is not measured, so it may use every core.
        let chunk = live.len().div_ceil(crate::sys::nproc()).max(1);
        let entries = std::thread::scope(|scope| {
            let handles: Vec<_> = live
                .chunks(chunk)
                .map(|part| scope.spawn(|| part.iter().map(entry).collect::<Vec<Entry>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle worker panicked"))
                .collect()
        });
        Oracle { ks, entries }
    }

    /// The transitions that take `query` as a k-nearest route, ascending.
    pub fn answer(&self, query: &RknntQuery) -> Vec<TransitionId> {
        if query.is_degenerate() {
            return Vec::new();
        }
        let ki = self
            .ks
            .iter()
            .position(|k| *k == query.k)
            .expect("oracle built for this k");
        self.entries
            .iter()
            .filter(|entry| {
                let ok = |e: usize| {
                    let d = query
                        .route
                        .iter()
                        .map(|q| entry.endpoints[e].distance_sq(q))
                        .fold(f64::INFINITY, f64::min);
                    d <= entry.radii[e][ki]
                };
                match query.semantics {
                    Semantics::Exists => ok(0) || ok(1),
                    Semantics::ForAll => ok(0) && ok(1),
                }
            })
            .map(|entry| TransitionId(entry.id))
            .collect()
    }
}

/// `BruteForceEngine` over stores rebuilt from the model — every live route,
/// and the live transitions whose id is a multiple of `stride` (transitions
/// do not influence one another's membership, so a sample of them checks
/// the oracle at a fraction of the cost). The answer is mapped back to the
/// model's ids: a rebuilt store numbers its transitions densely, in order.
pub fn brute_force(model: &Model, query: &RknntQuery, stride: u32) -> Vec<TransitionId> {
    let routes: Vec<Vec<Point>> = model.live_routes().map(|(_, p)| p.to_vec()).collect();
    let (ids, pairs): (Vec<u32>, Vec<(Point, Point)>) = model
        .transitions
        .iter()
        .enumerate()
        .filter(|(id, _)| (*id as u32).is_multiple_of(stride))
        .filter_map(|(id, slot)| slot.map(|pair| (id as u32, pair)))
        .unzip();
    let (routes, _) = RouteStore::bulk_build(RTreeConfig::default(), routes);
    let transitions = TransitionStore::bulk_build(RTreeConfig::default(), pairs);
    BruteForceEngine::new(&routes, &transitions)
        .execute(query)
        .transitions
        .into_iter()
        .map(|dense| TransitionId(ids[dense.index()]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{generate, Op, WorkloadKind};

    #[test]
    fn oracle_equals_brute_force_before_and_after_churn() {
        let kind = WorkloadKind::ChurnDurable;
        let mut spec = kind.spec().smoke();
        spec.transitions = 3_000;
        let inputs = generate(kind, spec, 11);
        let mut model = inputs.initial_model();
        let mut queries: Vec<RknntQuery> = inputs.queries[..6].to_vec();
        queries.push(RknntQuery::for_all(inputs.queries[6].route.clone(), 10));
        let check = |model: &Model| {
            let oracle = Oracle::build(model, &queries);
            let mut nonempty = 0;
            for q in &queries {
                let expected = brute_force(model, q, 1);
                assert_eq!(oracle.answer(q), expected, "k={} {:?}", q.k, q.semantics);
                nonempty += usize::from(!expected.is_empty());
            }
            assert!(nonempty >= 2, "the check must compare real answers");
        };
        check(&model);
        for op in inputs.slices.iter().flatten() {
            if let Op::Update(batch) = op {
                for update in batch {
                    assert!(model.apply(update));
                }
            }
        }
        check(&model);
    }

    #[test]
    fn with_fewer_routes_than_k_every_transition_qualifies() {
        let p = Point::new;
        let model = Model::new(
            &[
                vec![p(0.0, 0.0), p(500.0, 0.0)],
                vec![p(0.0, 900.0), p(500.0, 900.0)],
            ],
            &[
                (p(10.0, 10.0), p(400.0, 20.0)),
                (p(90_000.0, 5.0), p(-7_000.0, 880.0)),
            ],
        );
        let far = vec![p(50_000.0, 50_000.0), p(51_000.0, 50_000.0)];
        let k3 = RknntQuery::for_all(far.clone(), 3);
        let k1 = RknntQuery::exists(far, 1);
        let oracle = Oracle::build(&model, &[k3.clone(), k1.clone()]);
        assert_eq!(oracle.answer(&k3), vec![TransitionId(0), TransitionId(1)]);
        assert_eq!(oracle.answer(&k3), brute_force(&model, &k3, 1));
        assert_eq!(brute_force(&model, &k3, 2), vec![TransitionId(0)]);
        // Transition 1 starts further from both routes than from the query.
        assert_eq!(oracle.answer(&k1), vec![TransitionId(1)]);
        assert_eq!(oracle.answer(&k1), brute_force(&model, &k1, 1));
        assert!(oracle.answer(&RknntQuery::exists(vec![], 3)).is_empty());
    }
}
