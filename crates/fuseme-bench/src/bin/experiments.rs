//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§6) at a configurable scale.
//!
//! ```text
//! experiments [all|table1|table3|fig12|fig13|fig14|fig15|ablation|chaos|memstress|cachesweep|sparsesweep
//!              |fig12a|fig12b|fig12c|fig12d|fig13d]...
//!             [--scale S]    element-dimension divisor (divides 1000; default 250)
//!             [--iters N]    GNMF iterations for fig14, at least 1 (default 10)
//!             [--out DIR]    JSON output directory (default results/)
//!             [--smoke]      shrink cachesweep/sparsesweep to CI-sized fixtures
//!             [--trace]      record a structured trace of every measured
//!                            run under DIR/traces/ (chrome trace + summary
//!                            + predicted-vs-actual report)
//! ```
//!
//! The whole command line is checked before the first experiment starts:
//! an unknown flag or experiment name, or `--iters 0`, exits 2 at once.

use std::path::PathBuf;

use fuseme_bench::experiments::{
    ablation, cachesweep, chaos, fig12, fig13, fig14, fig15, memstress, sparsesweep, table1, table3,
};
use fuseme_bench::Scale;

/// What `all` runs, in order.
const ALL: [&str; 11] = [
    "table1",
    "table3",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "ablation",
    "chaos",
    "memstress",
    "cachesweep",
    "sparsesweep",
];

/// Single panels, run only when named.
const PARTS: [&str; 5] = ["fig12a", "fig12b", "fig12c", "fig12d", "fig13d"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut scale = Scale::default_scale();
    let mut iters = 10usize;
    let mut out = PathBuf::from("results");
    let mut trace = false;
    let mut smoke = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => trace = true,
            "--smoke" => smoke = true,
            "--scale" => {
                i += 1;
                let v: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
                scale = Scale::new(v).unwrap_or_else(|e| die(&e));
            }
            "--iters" => {
                i += 1;
                iters = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--iters needs a positive number"));
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(args.get(i).unwrap_or_else(|| die("--out needs a path")));
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [all|{}|{}]... \
                     [--scale S] [--iters N] [--out DIR] [--smoke] [--trace]",
                    ALL.join("|"),
                    PARTS.join("|")
                );
                return;
            }
            name if name == "all" || ALL.contains(&name) || PARTS.contains(&name) => {
                which.push(name.to_string())
            }
            other if !other.starts_with('-') => die(&format!("unknown experiment '{other}'")),
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    let which: Vec<String> = which
        .into_iter()
        .flat_map(|name| match name.as_str() {
            "all" => ALL.iter().map(|n| n.to_string()).collect(),
            _ => vec![name],
        })
        .collect();
    if trace {
        let dir = out.join("traces");
        println!("tracing every measured run → {}", dir.display());
        std::env::set_var("FUSEME_TRACE_DIR", &dir);
    }

    println!(
        "FuseME experiment harness — scale 1/{} (block edge {}), cluster 8×12 tasks, \
         θ_t = {:.2} MB, results → {}",
        scale.divisor,
        scale.block_size(),
        scale.paper_cluster().mem_per_task as f64 / 1e6,
        out.display()
    );

    for name in which {
        let started = std::time::Instant::now();
        // Each experiment prints its tables and writes its own JSON.
        let _measurements = match name.as_str() {
            "table1" => table1::run(scale, &out),
            "table3" => table3::run(scale, &out),
            "fig12" => fig12::run(scale, &out, fig12::Part::All),
            "fig12a" => fig12::run(scale, &out, fig12::Part::TwoLargeDims),
            "fig12b" => fig12::run(scale, &out, fig12::Part::CommonDim),
            "fig12c" => fig12::run(scale, &out, fig12::Part::Density),
            "fig12d" => fig12::run(scale, &out, fig12::Part::Nodes),
            "fig13" => fig13::run(scale, &out, fig13::Part::All),
            "fig13d" => fig13::run(scale, &out, fig13::Part::Pruning),
            "fig14" => fig14::run(scale, &out, iters),
            "fig15" => fig15::run(scale, &out),
            "ablation" => ablation::run(scale, &out),
            "chaos" => chaos::run(scale, &out),
            "memstress" => memstress::run(scale, &out),
            "cachesweep" => cachesweep::run(scale, &out, smoke),
            "sparsesweep" => sparsesweep::run(scale, &out, smoke),
            other => unreachable!("experiment '{other}' passed validation"),
        };
        eprintln!(
            "[{name} done in {:.1}s wall]",
            started.elapsed().as_secs_f64()
        );
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
