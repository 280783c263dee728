//! `paper_engines`: the three index-based engines called in-process on one
//! thread — no service, no socket, no disk.

use crate::inputs::{Inputs, Op};
use crate::live::{LabelledAnswers, Live, PassOutcome, PassTrace};
use crate::sys::process_cpu_seconds;
use rknnt_core::{EngineKind, RknnTEngine, RknntQuery};
use rknnt_geo::Point;
use rknnt_index::{RouteStore, TransitionStore};
use rknnt_rtree::RTreeConfig;
use rknnt_service::StoreUpdate;
use std::time::Instant;

/// The engines the paper compares (Fig. 9–12), in a fixed order.
pub const ENGINES: [EngineKind; 3] = [
    EngineKind::FilterRefine,
    EngineKind::Voronoi,
    EngineKind::DivideConquer,
];

pub struct EngineWorkload {
    routes: RouteStore,
    transitions: TransitionStore,
}

fn engine_slot(kind: EngineKind) -> usize {
    ENGINES
        .iter()
        .position(|k| *k == kind)
        .expect("paper_engines op names an index-based engine")
}

impl EngineWorkload {
    /// Raw inputs → ready to serve: both bulk builds, plus one construction
    /// of every engine (each builds its NList over the route store).
    pub fn setup(routes: Vec<Vec<Point>>, transitions: Vec<(Point, Point)>) -> Self {
        let (routes, _) = RouteStore::bulk_build(RTreeConfig::default(), routes);
        let transitions = TransitionStore::bulk_build(RTreeConfig::default(), transitions);
        let workload = EngineWorkload {
            routes,
            transitions,
        };
        drop(workload.engines());
        workload
    }

    fn engines(&self) -> Vec<Box<dyn RknnTEngine + '_>> {
        ENGINES
            .iter()
            .map(|kind| kind.build(&self.routes, &self.transitions))
            .collect()
    }
}

impl Live for EngineWorkload {
    fn run(
        &mut self,
        inputs: &Inputs,
        ops: &[Op],
        mut trace: Option<PassTrace<'_>>,
    ) -> PassOutcome {
        let mut out = PassOutcome::default();
        if ops.iter().all(|op| matches!(op, Op::Update(_))) {
            let (started, cpu) = (Instant::now(), process_cpu_seconds());
            for op in ops {
                let Op::Update(batch) = op else {
                    unreachable!()
                };
                let t = Instant::now();
                for update in batch {
                    let applied = match update {
                        StoreUpdate::InsertTransition {
                            origin,
                            destination,
                        } => self.transitions.insert(*origin, *destination).is_some(),
                        StoreUpdate::ExpireTransition(id) => self.transitions.remove(*id),
                        StoreUpdate::InsertRoute(points) => {
                            self.routes.insert_route(points.clone()).is_some()
                        }
                        StoreUpdate::RemoveRoute(id) => self.routes.remove_route(*id),
                    };
                    out.failed += u64::from(!applied);
                }
                out.update_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            out.wall_s = started.elapsed().as_secs_f64();
            out.cpu_s = process_cpu_seconds() - cpu;
            return out;
        }
        // Engines borrow the stores, so they are built per pass — before
        // the clock starts; set-up has already paid for one construction.
        let engines = self.engines();
        let (started, cpu) = (Instant::now(), process_cpu_seconds());
        for (op_id, op) in ops.iter().enumerate() {
            let Op::Query { index, engine } = op else {
                panic!("paper_engines passes are all reads or all writes");
            };
            let query = &inputs.queries[*index as usize];
            let t = Instant::now();
            let result = engines[engine_slot(*engine)].execute(query);
            let elapsed = t.elapsed();
            out.query_ms.push(elapsed.as_secs_f64() * 1e3);
            if let Some(trace) = trace.as_mut() {
                if trace.sampled(op_id) {
                    let end = trace.tracer.now_ns();
                    let root = trace.tracer.record(
                        "engine.execute",
                        end - elapsed.as_nanos() as u64,
                        end,
                        None,
                        op_id as u64,
                    );
                    // The engine reports its own phase split; lay it under
                    // the root so the remainder is what nothing accounts for.
                    trace.tracer.lay_children(
                        root,
                        &[
                            ("core.filtering", result.timings.filtering.as_nanos() as u64),
                            (
                                "core.verification",
                                result.timings.verification.as_nanos() as u64,
                            ),
                        ],
                    );
                }
            }
            std::hint::black_box(result);
        }
        out.wall_s = started.elapsed().as_secs_f64();
        out.cpu_s = process_cpu_seconds() - cpu;
        out
    }

    fn answers(&mut self, queries: &[RknntQuery]) -> Result<LabelledAnswers, String> {
        Ok(self
            .engines()
            .iter()
            .map(|engine| {
                (
                    engine.name().to_string(),
                    queries
                        .iter()
                        .map(|q| engine.execute(q).transitions)
                        .collect(),
                )
            })
            .collect())
    }
}
