//! `perfbench --workload <nmf-cuboid|gnmf-loop|dense-gemm|all> [--seed N]
//! [--seconds S] [--trace 0|1]`
//!
//! Prints a table per workload with every metric by name and unit, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`. `--workload all` runs each workload in a child process
//! of its own, so it prints one table and one JSON line per workload. Exits
//! 1 when an operation failed or an accounting check broke, 2 on a usage
//! error.

use std::process::{Command, ExitCode};

use perfbench::bench::{self, Metric, Options, Report};
use perfbench::workload::{Kind, Spec};

const USAGE: &str = "usage: perfbench --workload <nmf-cuboid|gnmf-loop|dense-gemm|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn main() -> ExitCode {
    let (kinds, opts) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match kinds.as_slice() {
        [kind] => run_one(*kind, &opts),
        _ => run_each(&kinds, &opts),
    }
}

fn run_one(kind: Kind, opts: &Options) -> ExitCode {
    let report = match bench::run(&Spec::full(kind), opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {}: set-up failed: {e}", kind.name());
            return ExitCode::FAILURE;
        }
    };
    print_report(kind, opts, &report);
    let metrics = if opts.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{}",
        json(report.correct(), report.attempted, report.failed, metrics)
    );
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs each workload in a child process of its own, one after another.
/// `VmHWM` never falls, and the allocator keeps its state from one workload
/// to the next, so in one process a workload would report the peak resident
/// set of those run before it.
fn run_each(kinds: &[Kind], opts: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find its own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = true;
    for kind in kinds {
        let status = Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(status) => correct &= status.success(),
            Err(e) => {
                eprintln!("perfbench: {}: cannot start: {e}", kind.name());
                correct = false;
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<(Vec<Kind>, Options), String> {
    let mut kinds = None;
    let mut opts = Options {
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => kinds = Some(Kind::ALL.to_vec()),
            "--workload" => {
                let kind =
                    Kind::from_name(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                kinds = Some(vec![kind]);
            }
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, not {value:?}"))?;
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds takes a positive number, not {value:?}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let kinds = kinds.ok_or("--workload is required")?;
    Ok((kinds, opts))
}

fn print_report(kind: Kind, opts: &Options, report: &Report) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "== {}  seed {}  trace {}  workers {workers}",
        kind.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    println!(
        "operations: attempted {}, failed {}; {} timed untraced, {} traced",
        report.attempted, report.failed, report.timed_ops, report.traced_ops
    );
    for (j, digest) in report.digests.iter().enumerate() {
        println!("digest of operation {j}: {digest:016x}");
    }
    let error_rate = Metric {
        name: "error_rate",
        value: report.error_rate(),
        unit: "ratio",
    };
    let rows = report.end_to_end.iter().chain([&error_rate]);
    for m in rows.chain(&report.per_layer) {
        println!("  {:<24} {:>24} {}", m.name, m.value, m.unit);
    }
    for problem in &report.problems {
        println!("problem: {problem}");
    }
}

/// The result line. Non-finite values, already reported as problems,
/// become `null`.
fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
