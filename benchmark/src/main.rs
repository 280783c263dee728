//! The repository benchmark. See `README.md` in this directory.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --smoke
//! benchmark --agree [N] [--seconds S]
//! ```

mod agree;
mod catalogue;
mod engines;
mod inputs;
mod json;
mod live;
mod model;
mod oracle;
mod profile;
mod run;
mod served;
mod spans;
mod stats;
mod sys;

use inputs::{WorkloadKind, DEFAULT_SEED};
use run::{RunArgs, RunResult};
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

/// A run that has not finished by now is failed rather than left to hang
/// whatever is waiting for it.
const WATCHDOG: Duration = Duration::from_secs(90);
/// `--seconds` when not given; `BENCHMARK.json` passes the same value.
const DEFAULT_SECONDS: f64 = 16.0;

enum Mode {
    Run { trace: bool },
    Smoke,
    Agree { runs: usize },
}

struct Cli {
    mode: Mode,
    workload: Option<WorkloadKind>,
    seed: u64,
    seconds: f64,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::Run { trace: false },
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload = Some(WorkloadKind::parse(&name).ok_or_else(|| {
                    let known: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
                    format!(
                        "unknown workload {name:?}; expected one of {}",
                        known.join(", ")
                    )
                })?);
            }
            "--seed" => {
                cli.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.mode = Mode::Run {
                    trace: match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    },
                };
            }
            "--smoke" => cli.mode = Mode::Smoke,
            "--agree" => {
                let runs = match args.peek().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => {
                        args.next();
                        n
                    }
                    None => 5,
                };
                if runs < 2 {
                    return Err("--agree needs at least 2 runs per set".into());
                }
                cli.mode = Mode::Agree { runs };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Runs `work` under the watchdog: if it has not returned in time the
/// process exits non-zero without printing a result.
fn watched<T: Send + 'static>(limit: Duration, work: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::Builder::new()
        .name("benchmark-run".into())
        .stack_size(64 << 20)
        .spawn(move || {
            let out = work();
            let _ = done.send(());
            out
        })
        .expect("spawn the run thread");
    match finished.recv_timeout(limit) {
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            Ok(out) => out,
            Err(_) => {
                eprintln!("benchmark: the run panicked");
                std::process::exit(2);
            }
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            eprintln!("benchmark: watchdog: run exceeded {} s", limit.as_secs());
            std::process::exit(3);
        }
    }
}

fn finish(result: Result<RunResult, String>) -> ExitCode {
    match result {
        Ok(result) => {
            println!("{}", result.to_json().write());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "benchmark: {} of {} operations failed",
                    result.failed, result.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("benchmark: {error}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(error) => {
            eprintln!("benchmark: {error}");
            return ExitCode::from(2);
        }
    };
    // Measured runs are pinned to one CPU (see `pin_to_one_cpu`); `--smoke`
    // is not measured and `--agree` only spawns and waits.
    let pinned = match cli.mode {
        Mode::Run { .. } => sys::pin_to_one_cpu(),
        _ => None,
    };
    let header = sys::run_header(cli.seed, pinned.map(|(_, cpu)| cpu));
    let unpinned = pinned.map(|(mask, _)| mask);
    match cli.mode {
        Mode::Run { trace } => {
            let Some(kind) = cli.workload else {
                eprintln!("benchmark: --workload is required (or --smoke / --agree)");
                return ExitCode::from(2);
            };
            println!("{header}");
            let args = RunArgs {
                kind,
                seed: cli.seed,
                seconds: cli.seconds,
                smoke: false,
                unpinned,
            };
            finish(watched(WATCHDOG, move || {
                if trace {
                    profile::traced_run(args)
                } else {
                    run::run(args)
                }
            }))
        }
        Mode::Smoke => {
            println!("{header}");
            let seed = cli.seed;
            let ok = watched(WATCHDOG, move || {
                let mut ok = true;
                for kind in WorkloadKind::ALL {
                    let result = run::run(RunArgs {
                        kind,
                        seed,
                        seconds: 0.0,
                        smoke: true,
                        unpinned,
                    });
                    match result {
                        Ok(r) => {
                            println!(
                                "smoke {}: {} ({} attempted, {} failed)",
                                kind.name(),
                                if r.correct { "ok" } else { "WRONG" },
                                r.attempted,
                                r.failed
                            );
                            ok &= r.correct;
                        }
                        Err(error) => {
                            println!("smoke {}: ERROR {error}", kind.name());
                            ok = false;
                        }
                    }
                }
                ok
            });
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Mode::Agree { runs } => match agree::agree(runs, cli.seed, cli.seconds, cli.workload) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(error) => {
                eprintln!("benchmark: {error}");
                ExitCode::FAILURE
            }
        },
    }
}
