//! The repository's benchmark: one command runs a named workload under a
//! seed, checks every answer, and prints its metrics.
//!
//! ```text
//! perfbench --workload <solve-cold|serve-durable|edit-stream> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench record-solve-cold                    # rewrite data/solve_cold.tsv
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object holding every
//! end-to-end metric; with `--trace 1` it holds every per-layer metric,
//! measured by a separate replay of the same inputs. A readable table
//! with sample counts and the input digest goes to stderr. Any verdict
//! mismatch exits 1; a run that is invalid (open-loop backlog or generator
//! lag) exits 3 without a result.

mod calib;
mod client;
mod edit_stream;
mod layers;
mod serve_durable;
mod solve_cold;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Workload parameters and documentation, shared with readers.
const LAYERS_JSON: &str = include_str!("../layers.json");

/// A numeric parameter of a workload from `layers.json`.
pub fn param(workload: &str, key: &str) -> f64 {
    let doc = cr_trace::json::parse(LAYERS_JSON).expect("layers.json is valid JSON");
    match doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(key))
    {
        Some(cr_trace::json::Value::Num(n)) => *n,
        _ => panic!("layers.json lacks workloads.{workload}.{key}"),
    }
}

/// What a run gives back to `main`.
pub struct Outcome {
    /// Answers the run asked for.
    pub attempted: u64,
    /// Errors, sheds and verdict mismatches among them.
    pub failed: u64,
    /// Verdict mismatches alone (these make the command exit 1).
    pub mismatches: u64,
    /// `(name, value, unit, samples)`.
    pub metrics: Vec<(&'static str, f64, &'static str, usize)>,
    /// Extra lines for the stderr report (cross-checks, shares).
    pub notes: Vec<String>,
}

/// A run that must not be reported.
pub struct Invalid(pub String);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    /// Where a run may write: inside the build directory.
    pub fn work_dir(&self, tag: &str) -> PathBuf {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("perfbench/target"));
        target.join("perfbench-work").join(format!(
            "{}-{}-{tag}-{}",
            self.workload,
            self.seed,
            std::process::id()
        ))
    }
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_args(argv: &[String]) -> Result<(Option<String>, BTreeMap<String, String>), String> {
    let mut command = None;
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if let Some(flag) = a.strip_prefix("--") {
            let v = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
            flags.insert(flag.to_string(), v.clone());
        } else if command.is_none() {
            command = Some(a.clone());
        } else {
            return Err(format!("unexpected argument {a:?}"));
        }
    }
    Ok((command, flags))
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let (command, flags) = parse_args(argv)?;
    if command.as_deref() == Some("record-solve-cold") {
        solve_cold::record()?;
        return Ok(ExitCode::SUCCESS);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} needs a whole number"))
    };
    if let Some(c) = command {
        return Err(format!("unknown command {c:?}"));
    }
    let args = Args {
        workload: get("workload")?.clone(),
        seed: num("seed")?,
        seconds: Duration::from_secs(num("seconds")?.max(1)),
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
        },
    };
    let outcome = match args.workload.as_str() {
        "solve-cold" => solve_cold::run(&args),
        "serve-durable" => serve_durable::run(&args),
        "edit-stream" => edit_stream::run(&args),
        w => return Err(format!("unknown workload {w:?}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(Invalid(why)) => {
            eprintln!("perfbench: run invalid, not reported: {why}");
            return Ok(ExitCode::from(3));
        }
    };
    report(&args, &outcome);
    Ok(if outcome.mismatches > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn report(args: &Args, o: &Outcome) {
    eprintln!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    for line in &o.notes {
        eprintln!("  {line}");
    }
    eprintln!(
        "  {:<32} {:>14} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for (name, value, unit, samples) in &o.metrics {
        eprintln!("  {name:<32} {value:>14.6} {unit:<6} {samples:>8}");
    }
    eprintln!(
        "  attempted={} failed={} mismatches={}",
        o.attempted, o.failed, o.mismatches
    );
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit, _)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.mismatches == 0,
        o.attempted.max(1),
        o.failed,
        metrics.join(",")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
