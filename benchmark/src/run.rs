//! One run: one workload, one process — inputs, five set-ups, a warm-up,
//! the measured passes, the correctness checks and the result line.

use crate::catalogue::END_TO_END;
use crate::engines::EngineWorkload;
use crate::inputs::{self, Inputs, Op, WorkloadKind, DEFAULT_SEED, MAX_PASSES};
use crate::json::Json;
use crate::live::{Live, PassOutcome};
use crate::model::Model;
use crate::oracle::{brute_force, Oracle};
use crate::served::ServedWorkload;
use crate::stats::{best_quartile, iqr_over_median, percentile, Better};
use crate::sys::{peak_rss_mb, set_affinity, CpuMask};
use rknnt_geo::Point;
use rknnt_index::TransitionId;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is the 2nd best.
pub const SETUPS: usize = 5;
/// Fewest measured passes, however slow the machine.
pub const MIN_PASSES: usize = 4;
/// The oracle is held against `BruteForceEngine` on every this-many-th
/// transition of one query.
const BRUTE_STRIDE: u32 = 8;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub kind: WorkloadKind,
    pub seed: u64,
    /// How long the measured passes go on (whole passes only).
    pub seconds: f64,
    /// One set-up, one pass, 1/20 of the ops: correctness only.
    pub smoke: bool,
    /// The affinity mask the process had before it pinned itself to one
    /// CPU; the checks (not measured) go back to it.
    pub unpinned: Option<CpuMask>,
}

/// The last line of standard output.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        *name,
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::Str((*unit).into())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// Scratch state of one run, under `target/benchmark/`; removed when the
/// run succeeds, kept for inspection when it does not.
pub struct Scratch {
    root: PathBuf,
    keep: bool,
}

impl Scratch {
    pub fn new() -> Result<Scratch, String> {
        let root = Path::new("target")
            .join("benchmark")
            .join(format!("run_{}", std::process::id()));
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(Scratch { root, keep: false })
    }

    pub fn dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    pub fn keep(&mut self) {
        self.keep = true;
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

/// A set-up workload of either kind.
pub enum Workload {
    Engines(EngineWorkload),
    Served(ServedWorkload),
}

impl Workload {
    /// Raw inputs → ready to serve. The caller times this call; the clones
    /// of the raw inputs it consumes are made before the clock starts.
    pub fn setup(
        inputs: &Inputs,
        routes: Vec<Vec<Point>>,
        transitions: Vec<(Point, Point)>,
        storage_dir: &Path,
    ) -> Result<Workload, String> {
        Ok(match inputs.kind {
            WorkloadKind::PaperEngines => {
                Workload::Engines(EngineWorkload::setup(routes, transitions))
            }
            _ => Workload::Served(ServedWorkload::setup(
                inputs,
                routes,
                transitions,
                storage_dir,
            )?),
        })
    }

    pub fn live(&mut self) -> &mut dyn Live {
        match self {
            Workload::Engines(w) => w,
            Workload::Served(w) => w,
        }
    }
}

/// Sets the workload up `times` times from scratch, tearing each one down
/// (outside the clock) before the next; returns the last one and every
/// set-up time.
pub fn timed_setups(
    inputs: &Inputs,
    scratch: &Scratch,
    times: usize,
) -> Result<(Workload, Vec<f64>), String> {
    let mut seconds = Vec::with_capacity(times);
    let mut workload = None;
    for i in 0..times {
        if let Some(previous) = workload.take() {
            drop::<Workload>(previous);
            let _ = std::fs::remove_dir_all(scratch.dir(&format!("storage_{}", i - 1)));
        }
        let (routes, transitions) = (inputs.routes.clone(), inputs.transitions.clone());
        let dir = scratch.dir(&format!("storage_{i}"));
        let t = Instant::now();
        let built = Workload::setup(inputs, routes, transitions, &dir)?;
        seconds.push(t.elapsed().as_secs_f64());
        workload = Some(built);
    }
    Ok((workload.expect("at least one set-up"), seconds))
}

/// Applies a slice's updates to the model (after the program acknowledged
/// them).
pub fn apply_to_model(model: &mut Model, ops: &[Op]) {
    for op in ops {
        if let Op::Update(batch) = op {
            for update in batch {
                model.apply(update);
            }
        }
    }
}

/// The phases before the measured read passes: for read-only workloads the
/// write warm-up and write passes, then the read warm-up; for the
/// interleaved workload its warm-up slice. Returns the measured write
/// passes (empty when interleaved).
pub fn lead_in(inputs: &Inputs, workload: &mut Workload, model: &mut Model) -> Vec<PassOutcome> {
    let live = workload.live();
    if inputs.kind.interleaved() {
        live.run(inputs, &inputs.slices[0], None);
        apply_to_model(model, &inputs.slices[0]);
        return Vec::new();
    }
    let mut writes = Vec::new();
    for (i, slice) in inputs.slices.iter().enumerate() {
        let outcome = live.run(inputs, slice, None);
        apply_to_model(model, slice);
        if i > 0 {
            writes.push(outcome);
        }
    }
    live.run(inputs, &inputs.read_pass, None);
    writes
}

/// The ops of measured pass `pass` (0-based).
pub fn pass_ops(inputs: &Inputs, pass: usize) -> &[Op] {
    if inputs.kind.interleaved() {
        &inputs.slices[pass + 1]
    } else {
        &inputs.read_pass
    }
}

fn per_pass<F: Fn(&PassOutcome) -> Result<f64, String>>(
    passes: &[&PassOutcome],
    better: Better,
    value: F,
) -> Result<f64, String> {
    let values: Vec<f64> = passes.iter().map(|p| value(p)).collect::<Result<_, _>>()?;
    Ok(best_quartile(&values, better))
}

pub fn pass_qps(pass: &PassOutcome) -> f64 {
    pass.query_ms.len() as f64 / pass.wall_s
}

/// Every end-to-end metric: each timing computed per pass, the run reports
/// the best-quartile pass.
fn end_to_end(
    setups: &[f64],
    reads: &[PassOutcome],
    writes: &[PassOutcome],
    rss_mb: f64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let reads: Vec<&PassOutcome> = reads.iter().collect();
    // The interleaved workload's passes carry the updates themselves.
    let writes: Vec<&PassOutcome> = if writes.is_empty() {
        reads.clone()
    } else {
        writes.iter().collect()
    };
    END_TO_END
        .iter()
        .map(|metric| {
            let value = match metric.name {
                "setup_s" => best_quartile(setups, metric.better),
                "query_qps" => per_pass(&reads, metric.better, |p| Ok(pass_qps(p)))?,
                "query_p50_ms" => {
                    per_pass(&reads, metric.better, |p| percentile(&p.query_ms, 0.50))?
                }
                "query_p95_ms" => {
                    per_pass(&reads, metric.better, |p| percentile(&p.query_ms, 0.95))?
                }
                "cpu_ms_per_query" => per_pass(&reads, metric.better, |p| {
                    Ok(p.cpu_s * 1e3 / p.query_ms.len() as f64)
                })?,
                "peak_rss_mb" => rss_mb,
                "update_p50_ms" => {
                    per_pass(&writes, metric.better, |p| percentile(&p.update_ms, 0.50))?
                }
                "update_p95_ms" => {
                    per_pass(&writes, metric.better, |p| percentile(&p.update_ms, 0.95))?
                }
                other => unreachable!("metric {other} has no estimator"),
            };
            Ok((metric.name, value, metric.unit))
        })
        .collect()
}

/// The committed fingerprint of `kind` at the default seed and full size.
fn committed_fingerprint(kind: WorkloadKind) -> Option<u64> {
    include_str!("../fingerprints.txt")
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            (words.next()? == kind.name())
                .then(|| u64::from_str_radix(words.next()?, 16).ok())
                .flatten()
        })
        .next()
}

/// Generates the inputs, prints their fingerprint and — at the default
/// seed and full size — holds it against the committed one, so a change to
/// the `rknnt_data` generators cannot silently change the load.
pub fn checked_inputs(kind: WorkloadKind, seed: u64, smoke: bool) -> Result<Inputs, String> {
    let spec = if smoke {
        kind.spec().smoke()
    } else {
        kind.spec()
    };
    let inputs = inputs::generate(kind, spec, seed);
    println!(
        "workload_fingerprint {} {:016x}",
        kind.name(),
        inputs.fingerprint
    );
    if !smoke && seed == DEFAULT_SEED {
        match committed_fingerprint(kind) {
            Some(expected) if expected == inputs.fingerprint => {}
            expected => {
                return Err(format!(
                    "input fingerprint {:016x} differs from the committed {:?}: the generators \
                     changed, so results are not comparable with earlier ones",
                    inputs.fingerprint,
                    expected.map(|e| format!("{e:016x}"))
                ))
            }
        }
    }
    Ok(inputs)
}

/// Checks every distinct query's answer, through every way the workload
/// answers, against the oracle over the model; the oracle against
/// `BruteForceEngine` on one seeded query; and, for the durable workload,
/// the state recovered after a crash against the state before it.
/// Returns `(probes made, probes wrong)`.
pub fn check(
    inputs: &Inputs,
    mut workload: Workload,
    model: &Model,
    seed: u64,
) -> Result<(u64, u64), String> {
    let started = Instant::now();
    let oracle = Oracle::build(model, &inputs.queries);
    let expected: Vec<_> = inputs.queries.iter().map(|q| oracle.answer(q)).collect();
    let (mut probes, mut wrong) = (0u64, 0u64);
    let mut compare = |label: &str, answers: &[Vec<TransitionId>]| {
        let bad = answers
            .iter()
            .zip(&expected)
            .filter(|(got, want)| got != want)
            .count();
        println!(
            "check {label}: {} of {} answers equal the oracle",
            answers.len() - bad,
            answers.len()
        );
        probes += answers.len() as u64;
        wrong += bad as u64;
    };
    for (label, answers) in workload.live().answers(&inputs.queries)? {
        compare(&label, &answers);
    }
    if let (true, Workload::Served(served)) = (inputs.kind.interleaved(), workload) {
        let (reopened, _, stats) = served.crash_and_reopen()?;
        let recovered: Vec<_> = inputs
            .queries
            .iter()
            .map(|q| reopened.execute(q).transitions)
            .collect();
        compare("reopened", &recovered);
        let live = reopened.transitions().len();
        println!(
            "check reopened: replayed {} WAL records, {live} live transitions (model {})",
            stats.replayed_records,
            model.live_transitions()
        );
        probes += 1;
        wrong += u64::from(live != model.live_transitions());
    }
    let sample = inputs::Rng::new(seed, 4).below(inputs.queries.len());
    let sampled: Vec<_> = expected[sample]
        .iter()
        .copied()
        .filter(|id| id.raw() % BRUTE_STRIDE == 0)
        .collect();
    let brute_ok = brute_force(model, &inputs.queries[sample], BRUTE_STRIDE) == sampled;
    println!(
        "check oracle: query {sample} {} BruteForceEngine on every {BRUTE_STRIDE}th transition ({} in the answer); checks took {:.2} s",
        if brute_ok { "equals" } else { "DIFFERS FROM" },
        sampled.len(),
        started.elapsed().as_secs_f64()
    );
    probes += 1;
    wrong += u64::from(!brute_ok);
    Ok((probes, wrong))
}

/// One untraced run.
pub fn run(args: RunArgs) -> Result<RunResult, String> {
    let inputs = checked_inputs(args.kind, args.seed, args.smoke)?;
    let spec = inputs.spec;
    println!(
        "sizes {}: {} routes, {} transitions, {} distinct queries, {} reads/pass, {} update batches/pass, {} subscriptions",
        args.kind.name(),
        inputs.routes.len(),
        inputs.transitions.len(),
        inputs.queries.len(),
        pass_ops(&inputs, 0).iter().filter(|op| matches!(op, Op::Query { .. })).count(),
        spec.batches_per_pass,
        inputs.subscriptions.len()
    );
    let mut scratch = Scratch::new()?;
    let outcome = measure(&inputs, args, &scratch);
    if !matches!(&outcome, Ok(result) if result.correct) {
        scratch.keep();
    }
    outcome
}

fn measure(inputs: &Inputs, args: RunArgs, scratch: &Scratch) -> Result<RunResult, String> {
    let (mut workload, setups) =
        timed_setups(inputs, scratch, if args.smoke { 1 } else { SETUPS })?;
    println!(
        "setup_s per set-up: {}",
        setups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut model = inputs.initial_model();
    let writes = lead_in(inputs, &mut workload, &mut model);

    let mut reads: Vec<PassOutcome> = Vec::new();
    let started = Instant::now();
    while reads.len() < MAX_PASSES
        && (reads.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds)
    {
        let ops = pass_ops(inputs, reads.len());
        let outcome = workload.live().run(inputs, ops, None);
        apply_to_model(&mut model, ops);
        println!(
            "pass {:2}: {:.3} s, {} queries at {:.1}/s ({:.3} s), {} updates ({:.3} s), {} failed",
            reads.len(),
            outcome.wall_s,
            outcome.query_ms.len(),
            pass_qps(&outcome),
            outcome.query_ms.iter().sum::<f64>() / 1e3,
            outcome.update_ms.len(),
            outcome.update_ms.iter().sum::<f64>() / 1e3,
            outcome.failed
        );
        reads.push(outcome);
        if args.smoke {
            break;
        }
    }
    let rss_mb = peak_rss_mb();

    let mut attempted: u64 = reads
        .iter()
        .chain(&writes)
        .map(PassOutcome::attempted)
        .sum();
    let mut failed: u64 = reads.iter().chain(&writes).map(|p| p.failed).sum();
    if let Some(mask) = &args.unpinned {
        set_affinity(mask);
    }
    let (probes, wrong) = check(inputs, workload, &model, args.seed)?;
    attempted += probes;
    failed += wrong;

    let metrics = if args.smoke {
        Vec::new()
    } else {
        let qps: Vec<f64> = reads.iter().map(pass_qps).collect();
        println!(
            "bench.samples_per_pass {} bench.pass_spread_frac {:.4} ({} passes)",
            reads[0].query_ms.len(),
            iqr_over_median(&qps),
            reads.len()
        );
        end_to_end(&setups, &reads, &writes, rss_mb)?
    };
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![("setup_s", 0.8127, "s"), ("query_qps", 1500.25, "1/s")],
        };
        assert_eq!(
            result.to_json().write(),
            r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}, "query_qps": {"value": 1500.25, "unit": "1/s"}}}"#
        );
    }

    #[test]
    fn every_end_to_end_metric_has_an_estimator() {
        let pass = |scale: f64| PassOutcome {
            wall_s: 2.0 * scale,
            cpu_s: 1.0 * scale,
            query_ms: (1..=400).map(|i| i as f64 * scale).collect(),
            update_ms: (1..=200).map(|i| i as f64 * scale).collect(),
            failed: 0,
        };
        let passes: Vec<PassOutcome> = [1.0, 1.1, 1.2, 1.3, 5.0].map(pass).into();
        let metrics = end_to_end(&[0.5, 0.4, 0.9, 0.45, 0.6], &passes, &[], 123.0).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let get = |name: &str| metrics.iter().find(|m| m.0 == name).unwrap().1;
        // 2nd best of five, in each metric's own direction.
        assert_eq!(get("setup_s"), 0.45);
        assert!((get("query_qps") - 400.0 / 2.2).abs() < 1e-9);
        assert!((get("query_p50_ms") - 200.0 * 1.1).abs() < 1e-9);
        assert!((get("query_p95_ms") - 380.0 * 1.1).abs() < 1e-9);
        assert!((get("update_p95_ms") - 190.0 * 1.1).abs() < 1e-9);
        assert!((get("cpu_ms_per_query") - 1.1 * 1e3 / 400.0).abs() < 1e-9);
        assert_eq!(get("peak_rss_mb"), 123.0);
        // Too few update samples for a p95: refused, not reported.
        let thin = PassOutcome {
            update_ms: vec![1.0; 50],
            ..pass(1.0)
        };
        assert!(end_to_end(&[0.5], &[thin], &[], 1.0).is_err());
    }
}
