//! The Quartz benchmark: one command that runs a workload, checks that
//! the simulated output is correct, and prints every end-to-end metric
//! (untraced) or every per-layer metric (traced) by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload mesh_poisson --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only if every
//! correctness check passed. See `benchmark/README.md`.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod checks;
mod gate;
mod host;
mod outcome;
mod spans;
mod timed;
mod traced;
mod workloads;

use std::process::ExitCode;
use workloads::{Size, Workload};

const USAGE: &str = "usage: quartz-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  NAME: mesh_poisson | websearch_dctcp | composite_scale";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        let bad = || format!("{flag}: cannot parse '{value}'");
        match flag.as_str() {
            "--workload" => {
                let w =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?;
                workload = Some(w);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=120.0).contains(&seconds) {
                    return Err(format!("--seconds {value} is outside 0..=120"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        let (outcome, spans) = traced::run(args.workload, args.seed, args.seconds, Size::Full);
        let dir = std::path::Path::new("benchmark/out");
        let path = dir.join(format!(
            "spans-{}-seed{}.ndjson",
            args.workload.name(),
            args.seed
        ));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_ndjson())) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        outcome
    } else {
        timed::run(args.workload, args.seed, args.seconds, Size::Full)
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    let gate = &outcome.gate;
    if gate.passed() {
        println!("checks: all {} passed", gate.checks());
    } else {
        for f in gate.failures() {
            println!("CHECK FAILED: {f}");
        }
    }
    println!("{}", outcome.json());
    if gate.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{unit_of, Outcome, END_TO_END, PER_LAYER};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "composite_scale",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::CompositeScale,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "mesh_poisson", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "mesh_poisson", "--bogus", "1"])).is_err());
    }

    /// Every metric of `table` appears once in the result line, with its
    /// unit, and every check passed.
    fn assert_prints(outcome: &Outcome, table: &[(&str, &str)]) {
        let json = outcome.json();
        for (name, unit) in table {
            let entry = format!("\"{name}\": {{\"value\": ");
            assert_eq!(json.matches(&entry).count(), 1, "{name} in {json}");
            assert_eq!(unit_of(name), Some(*unit));
            let after = &json[json.find(&entry).unwrap()..];
            let field = &after[..after.find('}').unwrap() + 1];
            assert!(field.contains(&format!("\"unit\": \"{unit}\"")), "{field}");
        }
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        assert!(outcome.gate.passed(), "{:?}", outcome.gate.failures());
    }

    #[test]
    fn smoke_run_of_each_workload_prints_every_end_to_end_metric() {
        for w in workloads::ALL {
            let o = timed::run(w, 3, 0.0, Size::Smoke);
            assert_prints(&o, &END_TO_END);
            assert!(o.attempted >= 1);
            assert!(o.lines.iter().any(|l| l.contains("fail_ratio")));
        }
    }

    #[test]
    fn smoke_traced_run_of_each_workload_prints_every_per_layer_metric() {
        for w in workloads::ALL {
            let (o, spans) = traced::run(w, 3, 0.0, Size::Smoke);
            assert_prints(&o, &PER_LAYER);
            assert!(spans.len() > 0);
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in workloads::ALL {
            let a = format!("{:?}", workloads::generate(w, 5, Size::Smoke).flows);
            let b = format!("{:?}", workloads::generate(w, 5, Size::Smoke).flows);
            let c = format!("{:?}", workloads::generate(w, 6, Size::Smoke).flows);
            assert_eq!(a, b);
            assert_ne!(a, c, "{}", w.name());
        }
    }
}
