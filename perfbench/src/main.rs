//! The repository benchmark: loopback serving of three traffic mixes plus
//! a traced per-layer replay.
//!
//! ```bash
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload infer-tiny --seed 1 --seconds 30 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload all
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- summarize --record
//! ```
//!
//! Each workload runs its server in a child process (this executable's
//! `serve` subcommand) and drives it over loopback HTTP from this process:
//! set-up timed over several spawns, a correctness gate against a direct
//! in-process session, then alternating blocks of a closed loop with one
//! keep-alive client per core and an open loop at the workload's fixed
//! rate. The time metrics are medians over the blocks the hypervisor stole
//! the least from. `--trace 1` adds a
//! lone-client pass and an in-process replay of the same requests through
//! each layer's public functions, and reports per-layer numbers instead of
//! end-to-end ones. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod load;
mod metrics;
mod proc;
mod replay;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use sne_serve::Json;

use crate::metrics::RunOutcome;
use crate::workload::Workload;

/// Run length below which a run is a smoke run: its results never count
/// as the committed baseline.
pub const FULL_SECONDS: u64 = 30;

/// Parsed command line of a benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workloads to run, in order.
    pub workloads: Vec<Workload>,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per workload (closed plus open loop).
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

impl Args {
    /// `"full"` or `"smoke"`.
    #[must_use]
    pub fn mode(&self) -> &'static str {
        if self.seconds < FULL_SECONDS {
            "smoke"
        } else {
            "full"
        }
    }
}

fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_workloads(name: Option<&str>) -> Result<Vec<Workload>, String> {
    match name {
        None | Some("all") => Ok(Workload::ALL.to_vec()),
        Some(name) => Workload::from_name(name)
            .map(|w| vec![w])
            .ok_or_else(|| format!("unknown workload {name:?}")),
    }
}

fn parse_run(args: &[String]) -> Result<Args, String> {
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value_of(args, flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} takes a whole number, got {v:?}"))
        })
    };
    let seconds = number("--seconds", FULL_SECONDS)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workloads: parse_workloads(value_of(args, "--workload"))?,
        seed: number("--seed", 1)?,
        seconds,
        trace: number("--trace", 0)? != 0,
    })
}

fn run(args: &Args) -> ExitCode {
    let _ = std::fs::create_dir_all(proc::out_dir());
    let fingerprint = proc::Fingerprint::of_host(&proc::out_dir());
    println!(
        "sne benchmark · mode {} · seed {} · {} s per workload · trace {}",
        args.mode(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc {} · {} · kernel {} · {} · store fs {}",
        fingerprint.nproc,
        fingerprint.cpu,
        fingerprint.kernel,
        fingerprint.rustc,
        fingerprint.store_fs
    );
    let mut outcomes: Vec<(Workload, RunOutcome)> = Vec::new();
    for &workload in &args.workloads {
        match metrics::run_workload(workload, args, &fingerprint) {
            Ok(outcome) => outcomes.push((workload, outcome)),
            Err(e) => {
                eprintln!("{}: run failed: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    let single = outcomes.len() == 1;
    let mut metrics = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for (workload, outcome) in &outcomes {
        correct &= outcome.correct;
        attempted += outcome.attempted;
        failed += outcome.failed;
        for m in &outcome.metrics {
            let name = if single {
                m.name.clone()
            } else {
                format!("{}/{}", workload.name(), m.name)
            };
            metrics.push((
                name,
                Json::obj(vec![
                    ("value", Json::from(m.value)),
                    ("unit", Json::from(m.unit)),
                ]),
            ));
        }
    }
    let line = Json::obj(vec![
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => {
            let Some(workload) = value_of(&args, "--workload").and_then(Workload::from_name) else {
                eprintln!("serve needs --workload <name>");
                return ExitCode::FAILURE;
            };
            let store_dir =
                PathBuf::from(value_of(&args, "--store-dir").unwrap_or(".bench_out/store"));
            match proc::serve(workload, &store_dir) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("serve failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("summarize") => match parse_workloads(value_of(&args, "--workload")) {
            Ok(workloads) => {
                metrics::summarize(&workloads, args.iter().any(|a| a == "--record"));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        _ => match parse_run(&args) {
            Ok(parsed) => run(&parsed),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn short_runs_are_smoke_runs() {
        let full = parse_run(&strings(&["--workload", "infer-tiny", "--seconds", "30"])).unwrap();
        assert_eq!(full.mode(), "full");
        assert_eq!(full.workloads, vec![Workload::InferTiny]);
        let short = parse_run(&strings(&["--seconds", "29"])).unwrap();
        assert_eq!(short.mode(), "smoke");
        assert_eq!(short.workloads.len(), 3);
        assert!(parse_run(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_run(&strings(&["--seconds", "0"])).is_err());
    }
}
