//! The benchmark's own model of what the stores must hold: plain vectors,
//! updated by the same update stream the program receives. The oracle reads
//! it, so no answer is ever checked against the program's own state.

use rknnt_geo::Point;
use rknnt_service::StoreUpdate;

/// Routes and transitions by id; `None` marks a removed slot. Ids are slot
/// indexes, exactly as the stores assign them (bulk load in order, every
/// later insert takes the next slot).
#[derive(Debug, Clone)]
pub struct Model {
    pub routes: Vec<Option<Vec<Point>>>,
    pub transitions: Vec<Option<(Point, Point)>>,
}

impl Model {
    pub fn new(routes: &[Vec<Point>], transitions: &[(Point, Point)]) -> Self {
        Model {
            routes: routes.iter().cloned().map(Some).collect(),
            transitions: transitions.iter().copied().map(Some).collect(),
        }
    }

    /// Applies one update; `false` when it names an unknown or dead id
    /// (which the stores would reject).
    pub fn apply(&mut self, update: &StoreUpdate) -> bool {
        match update {
            StoreUpdate::InsertTransition {
                origin,
                destination,
            } => {
                self.transitions.push(Some((*origin, *destination)));
                true
            }
            StoreUpdate::ExpireTransition(id) => self
                .transitions
                .get_mut(id.index())
                .and_then(Option::take)
                .is_some(),
            StoreUpdate::InsertRoute(points) => {
                self.routes.push(Some(points.clone()));
                true
            }
            StoreUpdate::RemoveRoute(id) => self
                .routes
                .get_mut(id.index())
                .and_then(Option::take)
                .is_some(),
        }
    }

    pub fn live_transitions(&self) -> usize {
        self.transitions.iter().flatten().count()
    }

    /// Live routes as `(id, points)`.
    pub fn live_routes(&self) -> impl Iterator<Item = (u32, &[Point])> {
        self.routes
            .iter()
            .enumerate()
            .filter_map(|(id, r)| r.as_deref().map(|points| (id as u32, points)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknnt_index::{RouteId, TransitionId};

    #[test]
    fn ids_are_slot_indexes_and_dead_ids_are_refused() {
        let p = |x: f64| Point::new(x, 0.0);
        let mut model = Model::new(
            &[vec![p(0.0), p(1.0)]],
            &[(p(0.0), p(1.0)), (p(2.0), p(3.0))],
        );
        assert!(model.apply(&StoreUpdate::InsertTransition {
            origin: p(4.0),
            destination: p(5.0),
        }));
        assert_eq!(model.transitions[2], Some((p(4.0), p(5.0))));
        assert!(model.apply(&StoreUpdate::ExpireTransition(TransitionId(0))));
        assert!(!model.apply(&StoreUpdate::ExpireTransition(TransitionId(0))));
        assert!(!model.apply(&StoreUpdate::ExpireTransition(TransitionId(9))));
        assert_eq!(model.live_transitions(), 2);
        assert!(model.apply(&StoreUpdate::InsertRoute(vec![p(7.0), p(8.0)])));
        assert!(model.apply(&StoreUpdate::RemoveRoute(RouteId(0))));
        assert!(!model.apply(&StoreUpdate::RemoveRoute(RouteId(0))));
        let live: Vec<u32> = model.live_routes().map(|(id, _)| id).collect();
        assert_eq!(live, vec![1]);
    }
}
