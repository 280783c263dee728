//! What the harness asks of a set-up workload: run a pass, answer probes.

use crate::inputs::{Inputs, Op};
use crate::spans::Tracer;
use rknnt_core::RknntQuery;
use rknnt_index::TransitionId;

/// What one pass measured.
#[derive(Debug, Default)]
pub struct PassOutcome {
    /// Wall time of the pass, first op sent to last answer received.
    pub wall_s: f64,
    /// Process CPU (user + system, every thread) over the same interval.
    pub cpu_s: f64,
    /// Latency of every answered query, in op order.
    pub query_ms: Vec<f64>,
    /// Latency of every acknowledged update batch, in op order.
    pub update_ms: Vec<f64>,
    /// Ops refused (`Overloaded`), errored or rejected.
    pub failed: u64,
}

impl PassOutcome {
    pub fn attempted(&self) -> u64 {
        (self.query_ms.len() + self.update_ms.len()) as u64 + self.failed
    }
}

/// Span recording for a traced pass: every `every`-th op gets a root span.
pub struct PassTrace<'a> {
    pub tracer: &'a mut Tracer,
    pub every: usize,
}

impl PassTrace<'_> {
    pub fn sampled(&self, op_id: usize) -> bool {
        op_id.is_multiple_of(self.every)
    }
}

/// Answers to a list of queries, one labelled list per way of answering.
pub type LabelledAnswers = Vec<(String, Vec<Vec<TransitionId>>)>;

/// A workload after set-up.
pub trait Live {
    /// Replays `ops` once and reports what it measured. A transport error
    /// ends the pass early; the ops not answered count as failed.
    fn run(&mut self, inputs: &Inputs, ops: &[Op], trace: Option<PassTrace<'_>>) -> PassOutcome;

    /// Answers every query through the workload's own path, outside any
    /// timed pass — one labelled list per way of answering.
    fn answers(&mut self, queries: &[RknntQuery]) -> Result<LabelledAnswers, String>;
}
