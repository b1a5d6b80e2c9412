//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ishare-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick] [--out F]
//! ishare-benchmark [--workload W] [--seed N] [--seconds S] [--quick] [--out F]
//! ishare-benchmark compare A.json B.json
//! ```
//!
//! With `--trace` it is one run of one workload: the timed phase (`0`) or
//! the traced phase (`1`), ending in the one-line JSON result. Without, it
//! runs both phases of every workload (or of `W`), each in its own child
//! process, and writes the set of results to `--out`.

mod api;
mod compare;
mod metrics;
mod run;
mod shadow;
mod stats;
mod timed;
mod trace;
mod traced;
mod workloads;

use metrics::Report;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Where traces and intermediate results go, relative to the repository
/// root (`run.sh` changes into it).
const RESULTS_DIR: &str = "benchmark/results";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: metrics::declared().run_seconds as f64,
        trace: None,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|_| "--seed expects a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if parsed.seconds.is_nan() || parsed.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                })
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if workloads::spec_by_name(w).is_none() {
            let known: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
            return Err(format!("unknown workload {w}; known: {}", known.join(", ")));
        }
    }
    Ok(parsed)
}

fn write_json(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

/// One phase of one workload in this process.
fn single_run(args: &Args, workload: &str, trace: bool) -> Result<Report, String> {
    let mut spec = workloads::spec_by_name(workload).expect("validated by parse_args");
    if args.quick {
        spec = spec.quick();
    }
    let report = if trace {
        let path = Path::new(RESULTS_DIR).join(format!("{workload}.trace.json"));
        traced::traced_phase(&spec, args.seed, &path)
    } else {
        timed::timed_phase(&spec, args.seed, args.seconds)
    }
    .map_err(|e| format!("{workload}: {e}"))?;
    let missing = report.missing();
    if !missing.is_empty() {
        return Err(format!("{workload}: no value for {}", missing.join(", ")));
    }
    if let Some(out) = &args.out {
        write_json(out, &report.detailed())?;
    }
    Ok(report)
}

/// Both phases of the chosen workloads, each in a child process of its own
/// so that one workload's heap never shapes another's numbers.
fn suite(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::SPECS.iter().map(|s| s.name).collect(),
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for name in names {
        for trace in ["0", "1"] {
            let part = Path::new(RESULTS_DIR).join(format!(".{name}.{trace}.json"));
            let mut child = Command::new(&exe);
            child.args(["--workload", name, "--trace", trace, "--out"]).arg(&part);
            child.args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()]);
            if args.quick {
                child.arg("--quick");
            }
            let status = child.status().map_err(|e| format!("spawn {name}: {e}"))?;
            if !status.success() {
                return Err(format!("{name} (trace {trace}) exited with {status}"));
            }
            let text = std::fs::read_to_string(&part).map_err(|e| format!("{part:?}: {e}"))?;
            let _ = std::fs::remove_file(&part);
            let run = serde_json::from_str(&text).map_err(|e| format!("{part:?}: {e}"))?;
            all_correct &= run["correct"].as_bool() == Some(true);
            runs.push(run);
        }
    }
    let set =
        json!({ "seed": args.seed, "seconds": args.seconds, "quick": args.quick, "runs": runs });
    if let Some(out) = &args.out {
        write_json(out, &set)?;
        println!("[saved {}]", out.display());
    }
    Ok(all_correct)
}

fn compare_files(a: &str, b: &str) -> Result<usize, String> {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    compare::compare(&load(a)?, &load(b)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match args.as_slice() {
            [_, a, b] => compare_files(a, b).map(|regressed| regressed == 0),
            _ => Err("usage: ishare-benchmark compare A.json B.json".into()),
        }
    } else {
        parse_args(&args).and_then(|parsed| match (parsed.trace, &parsed.workload) {
            (Some(trace), Some(workload)) => {
                let report = single_run(&parsed, workload, trace)?;
                print!("{}", report.table());
                // The driver reads the last line of standard output.
                println!("{}", report.result_line());
                Ok(true)
            }
            (Some(_), None) => Err("--trace needs --workload".into()),
            (None, _) => suite(&parsed),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("ishare-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_flags_parse() {
        let a =
            parse(&["--workload", "live_churn", "--seed", "7", "--seconds", "3", "--trace", "1"])
                .unwrap();
        assert_eq!(a.workload.as_deref(), Some("live_churn"));
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (7, 3.0, Some(true), false));
        assert_eq!(parse(&[]).unwrap().seed, 42);
    }

    #[test]
    fn bad_flags_are_rejected() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    /// All four workloads at a tenth of their size, both phases: every
    /// declared metric gets a value, every result matches the oracle, and the
    /// shadow loop reproduces the charged work bit for bit (the traced phase
    /// errors otherwise).
    #[test]
    fn quick_smoke_runs_every_workload() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("results/smoke-{}", std::process::id()));
        for spec in workloads::SPECS {
            let spec = spec.quick();
            let timed = timed::timed_phase(&spec, 42, 0.1).unwrap();
            assert!(timed.correct && timed.failed == 0 && timed.attempted > 0, "{}", spec.name);
            assert!(timed.missing().is_empty(), "{}: {:?}", spec.name, timed.missing());
            let trace_file = dir.join(format!("{}.trace.json", spec.name));
            let traced = traced::traced_phase(&spec, 42, &trace_file).unwrap();
            assert!(traced.correct && traced.failed == 0, "{}", spec.name);
            assert!(traced.missing().is_empty(), "{}: {:?}", spec.name, traced.missing());
            let doc = serde_json::from_str(&std::fs::read_to_string(&trace_file).unwrap()).unwrap();
            assert!(doc["spans"].as_array().is_some_and(|s| !s.is_empty()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
