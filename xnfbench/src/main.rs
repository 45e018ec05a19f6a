//! Command-line entry point.
//!
//! ```text
//! xnfbench --workload <ycsb|tpcc_durable|co_extract|all> --seed <n>
//!          --seconds <s> --trace <0|1> [--scale full|tiny] [--inject model|co]
//! ```
//!
//! Prints a report, then as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//! untraced, per-layer metrics traced). Exits non-zero when a check failed.
//! `--workload all` runs each workload in a child process of its own.

use std::process::ExitCode;

use xnfbench::{report, Inject, Options, WORKLOADS};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::new("", 1, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => opts.workload = value.to_string(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--scale" => {
                opts = match value {
                    "full" => opts,
                    "tiny" => opts.tiny(),
                    _ => return Err(bad("scale")),
                }
            }
            "--inject" => {
                opts.inject = match value {
                    "model" => Some(Inject::Model),
                    "co" => Some(Inject::Co),
                    _ => return Err(bad("inject")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(opts)
}

/// Run every workload in turn, each in a child process of its own.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("xnfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed --workload");
        child_args[at + 1] = w.to_string();
        let status = std::process::Command::new(&exe).args(&child_args).status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("xnfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.workload == "all" {
        return run_all(&args);
    }
    let outcome = match xnfbench::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xnfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = if opts.trace {
        report::per_layer(&outcome)
    } else {
        report::end_to_end(&outcome)
    };
    for line in report::report_lines(&outcome, &opts, &metrics) {
        println!("{line}");
    }
    if opts.trace {
        match report::write_spans(&outcome, &opts) {
            Ok(path) => println!("# spans   {}", path.display()),
            Err(e) => eprintln!("xnfbench: writing spans: {e}"),
        }
    }
    println!("{}", report::result_line(&outcome, &metrics));
    if report::correct(&outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
