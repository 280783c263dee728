//! `--agree N`: does the benchmark agree with itself?
//!
//! Two interleaved sets (A, B, A, B, …) of N runs per workload, each run a
//! process of its own, run `i` of either set on seed `base + i`. For every
//! end-to-end metric it prints both medians, how much worse one is than the
//! other, each set's quartile spread, and PASS/FAIL against the metric's
//! bound — the same two questions the acceptance check asks. Then two
//! traced runs per workload at the base seed must report identical values
//! for every count marked exact.

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::inputs::WorkloadKind;
use crate::json::Json;
use crate::stats::{iqr_over_median, median, quartiles, worsening};
use std::process::{Command, Stdio};

/// Runs one child benchmark process and returns its `metrics` object as
/// `(name, value)` pairs.
fn child_run(
    kind: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}:\n{stdout}",
            kind.name(),
            output.status
        ));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = Json::parse(last)?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{} seed {seed} was not correct: {last}",
            kind.name()
        ));
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("no metrics in {last}"));
    };
    metrics
        .iter()
        .map(|(name, entry)| {
            entry
                .get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect()
}

fn column(set: &[Vec<(String, f64)>], name: &str) -> Result<Vec<f64>, String> {
    set.iter()
        .map(|run| {
            run.iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("a run did not report {name}"))
        })
        .collect()
}

/// Returns whether every pairing passed.
pub fn agree(
    runs: usize,
    base_seed: u64,
    seconds: f64,
    only: Option<WorkloadKind>,
) -> Result<bool, String> {
    let kinds: Vec<WorkloadKind> = only.map_or(WorkloadKind::ALL.to_vec(), |k| vec![k]);
    let mut all_pass = true;
    println!("| workload | metric | median A | median B | worse by | bound | spread A | spread B | quartiles A | quartiles B | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for &kind in &kinds {
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..runs {
            for set in &mut sets {
                eprintln!("agree: {} run {} of {}", kind.name(), i + 1, runs);
                set.push(child_run(kind, base_seed + i as u64, seconds, false)?);
            }
        }
        for metric in &END_TO_END {
            let a = column(&sets[0], metric.name)?;
            let b = column(&sets[1], metric.name)?;
            let (ma, mb) = (median(&a), median(&b));
            let apart = worsening(ma, mb, metric.better).max(worsening(mb, ma, metric.better));
            let (spread_a, spread_b) = (iqr_over_median(&a), iqr_over_median(&b));
            // Set-up time is judged on its medians only: one run holds five
            // set-ups, far fewer samples than a pass holds operations.
            let spread_ok = metric.name == "setup_s" || spread_a.max(spread_b) <= metric.bound;
            let pass = apart <= metric.bound && spread_ok;
            // Passing with less than the recommended margin still passes,
            // but says so: medians should sit within half the bound, spreads
            // within a third.
            let tight = apart > metric.bound / 2.0
                || (metric.name != "setup_s" && spread_a.max(spread_b) > metric.bound / 3.0);
            all_pass &= pass;
            let q = |v: &[f64]| {
                let (q1, _, q3) = quartiles(v);
                format!("{q1:.4}–{q3:.4}")
            };
            println!(
                "| {} | {} | {ma:.4} | {mb:.4} | {:.1}% | {:.0}% | {:.1}% | {:.1}% | {} | {} | {} |",
                kind.name(),
                metric.name,
                apart * 100.0,
                metric.bound * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                q(&a),
                q(&b),
                match (pass, tight) {
                    (false, _) => "FAIL",
                    (true, true) => "PASS (thin margin)",
                    (true, false) => "PASS",
                }
            );
        }
    }
    for &kind in &kinds {
        eprintln!("agree: {} traced runs", kind.name());
        let first = child_run(kind, base_seed, seconds, true)?;
        let second = child_run(kind, base_seed, seconds, true)?;
        let mut same = 0;
        for layer in PER_LAYER.iter().filter(|l| l.exact) {
            let value = |run: &[(String, f64)]| {
                run.iter()
                    .find(|(n, _)| n == layer.name)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| format!("traced run did not report {}", layer.name))
            };
            let (x, y) = (value(&first)?, value(&second)?);
            if x.to_bits() == y.to_bits() {
                same += 1;
            } else {
                all_pass = false;
                println!(
                    "exact count {} differs on {}: {x} vs {y}",
                    layer.name,
                    kind.name()
                );
            }
        }
        println!(
            "exact counts {}: {same} identical across two traced runs",
            kind.name()
        );
    }
    println!("agree: {}", if all_pass { "PASS" } else { "FAIL" });
    Ok(all_pass)
}
