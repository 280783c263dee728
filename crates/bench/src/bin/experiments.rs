//! Experiment driver: regenerates every table and figure of the paper's
//! evaluation on the synthetic datasets, and runs the CI gates.
//!
//! `--exp all` (the default) runs the whole table in paper order; `--exp
//! NAME` runs one row; `--exp gates` runs the three wall-clock experiments
//! at their fixed CI scales (the scale flags do not apply), prints
//! PASS/FAIL per gate, writes `<out>/gates.json`, appends a markdown table
//! to `$GITHUB_STEP_SUMMARY` when that is set, and exits nonzero if a gate
//! failed. Rows are printed to stdout and written to
//! `<out>/<experiment>.jsonl` (default `results/`).

use rknnt_bench::experiments::{self, Experiment, EXPERIMENTS};
use rknnt_bench::gate::{self, GateOutcome};
use rknnt_bench::{ExperimentContext, Output, ScaleConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    experiment: String,
    scale: ScaleConfig,
    out_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: experiments [--exp NAME] [--city-scale F] [--transitions N] \
         [--synthetic-transitions N] [--queries N] [--seed N] [--out DIR] [--tiny]\n\
         experiments: {}, all, gates",
        names.join(", ")
    )
}

fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// `Ok(None)` when `--help` was asked for.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        experiment: "all".to_string(),
        scale: ScaleConfig::default(),
        out_dir: PathBuf::from("results"),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--exp" => args.experiment = value("--exp")?,
            "--city-scale" => args.scale.city_scale = number(&flag, value(&flag)?)?,
            "--transitions" => args.scale.transitions = number(&flag, value(&flag)?)?,
            "--synthetic-transitions" => {
                args.scale.synthetic_transitions = number(&flag, value(&flag)?)?
            }
            "--queries" => args.scale.queries_per_point = number(&flag, value(&flag)?)?,
            "--seed" => args.scale.seed = number(&flag, value(&flag)?)?,
            "--out" => args.out_dir = PathBuf::from(value("--out")?),
            "--tiny" => args.scale = ScaleConfig::tiny(),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other}; try --help")),
        }
    }
    Ok(Some(args))
}

/// Prints one finished experiment — heading, rows, gate verdicts — and
/// writes its `.jsonl` file.
fn emit(experiment: &Experiment, output: &Output, out_dir: &Path) -> Result<(), String> {
    println!("\n=== {} · {} ===", experiment.name, experiment.title);
    for record in &output.records {
        println!("{record}");
    }
    for outcome in &output.gates {
        println!("{outcome}");
    }
    output
        .write_jsonl(out_dir)
        .map_err(|e| format!("cannot write {}'s rows: {e}", experiment.name))
}

/// Appends markdown to `$GITHUB_STEP_SUMMARY` when running under Actions;
/// a no-op anywhere else.
fn append_step_summary(markdown: &str) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, markdown.as_bytes()));
    if let Err(e) = result {
        eprintln!("warning: cannot append to {path}: {e}");
    }
}

/// `--exp gates`: the three gated experiments, then the verdict in all
/// three renderings. A failure to write an artifact is loud on stderr but
/// never masks the verdict itself.
fn run_gates(out_dir: &Path) -> ExitCode {
    let mut outcomes: Vec<GateOutcome> = Vec::new();
    experiments::run_gates(|experiment, output| {
        if let Err(message) = emit(experiment, &output, out_dir) {
            eprintln!("warning: {message}");
        }
        outcomes.extend(output.gates);
    });
    let path = out_dir.join("gates.json");
    if let Err(e) = std::fs::write(&path, gate::render_json(&outcomes)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    append_step_summary(&gate::render_markdown(&outcomes));
    let failed: Vec<&GateOutcome> = outcomes.iter().filter(|o| !o.passed()).collect();
    if failed.is_empty() {
        println!("\nbench gates passed ({} checks)", outcomes.len());
        ExitCode::SUCCESS
    } else {
        for outcome in failed {
            eprintln!("{outcome}");
        }
        eprintln!("bench gates FAILED: a same-run wall-clock ratio regressed");
        ExitCode::FAILURE
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("{message}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(message) => return fail(&message),
    };
    // Resolve the name before anything is created or generated; `None` is
    // the gate run, which brings its own scales.
    let selected: Option<Vec<&Experiment>> = match args.experiment.as_str() {
        "gates" => None,
        "all" => Some(EXPERIMENTS.iter().collect()),
        name => match experiments::find(name) {
            Some(experiment) => Some(vec![experiment]),
            None => return fail(&format!("unknown experiment {name:?}\n{}", usage())),
        },
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        return fail(&format!("cannot create {}: {e}", args.out_dir.display()));
    }
    let Some(selected) = selected else {
        return run_gates(&args.out_dir);
    };

    let ctx = ExperimentContext::new(args.scale);
    println!(
        "Scale: city {}, {} transitions, {} queries per point, seed {}",
        args.scale.city_scale,
        args.scale.transitions,
        args.scale.queries_per_point,
        args.scale.seed
    );
    for experiment in &selected {
        if let Err(message) = emit(experiment, &experiment.run(&ctx), &args.out_dir) {
            return fail(&message);
        }
    }
    println!(
        "\nWrote {} file(s) to {}",
        selected.len(),
        args.out_dir.display()
    );
    ExitCode::SUCCESS
}
