//! The experiment harness checks its whole command line before it runs
//! anything: a bad argument exits 2 and writes no results.

use std::path::PathBuf;
use std::process::Command;

fn experiments(args: &[&str], out: &PathBuf) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .unwrap()
}

fn temp_out(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fuseme-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn bad_arguments_exit_before_any_experiment_runs() {
    for (name, args) in [
        ("iters", &["fig14", "--iters", "0"][..]),
        ("name", &["table3", "bogus"][..]),
        ("flag", &["table3", "--bogus"][..]),
    ] {
        let out = temp_out(name);
        let run = experiments(args, &out);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed before failing");
        assert!(!out.exists(), "{args:?} wrote {}", out.display());
    }
}

#[test]
fn help_lists_every_experiment() {
    let run = experiments(&["--help"], &temp_out("help"));
    assert!(run.status.success());
    let usage = String::from_utf8(run.stdout).unwrap();
    for name in [
        "all",
        "table1",
        "table3",
        "fig12",
        "fig12a",
        "fig12b",
        "fig12c",
        "fig12d",
        "fig13",
        "fig13d",
        "fig14",
        "fig15",
        "ablation",
        "chaos",
        "memstress",
        "cachesweep",
        "sparsesweep",
    ] {
        assert!(
            usage.split(['[', '|', ']']).any(|n| n == name),
            "{name} missing: {usage}"
        );
    }
}
