//! The `repro_all` command line, checked without a simulation: every
//! flag a command does not honour exits 2 at parse time and writes
//! nothing, each command's `--help` lists exactly the flags it honours,
//! and the parsed options carry each command's defaults.

use std::path::{Path, PathBuf};
use tiersim_bench::{repro_all, Cli, Command};
use tiersim_core::journal::{KillMode, KillSpec};
use tiersim_core::tune::GridSpec;
use tiersim_core::{Dataset, ExperimentConfig, Kernel, TraceConfig};

/// The subcommand tokens; `""` is the suite.
const COMMANDS: [&str; 4] = ["", "dump", "ablate", "tune"];

/// Every flag, a value for it (`None` for a switch; `"PATH"` stands for
/// a fresh scratch path) and the commands that honour it.
const HONOURED: &[(&str, Option<&str>, &[&str])] = &[
    ("--scale", Some("4"), &["", "dump", "ablate", "tune"]),
    ("--degree", Some("4"), &["", "dump", "ablate", "tune"]),
    ("--trials", Some("1"), &["", "dump", "ablate", "tune"]),
    ("--jobs", Some("2"), &["", "dump", "ablate", "tune"]),
    ("--tick-budget", Some("5"), &["", "dump", "ablate"]),
    ("--thp", None, &["", "dump", "ablate"]),
    ("--out", Some("PATH"), &["", "ablate"]),
    ("--trace", Some("PATH"), &["", "tune"]),
    ("--inject-failure", None, &[""]),
    ("--resume", Some("PATH"), &["", "tune"]),
    ("--kill-at", Some("2"), &["", "tune"]),
    ("--max-attempts", Some("2"), &[""]),
    ("--workload", Some("bfs_urand"), &["tune"]),
    ("--grid", Some("paper"), &["tune"]),
    ("--rung-budget", Some("500"), &["tune"]),
    ("--finalists", Some("2"), &["tune"]),
    ("--seed", Some("7"), &["tune"]),
    ("--out-json", Some("PATH"), &["tune"]),
    ("--out-csv", Some("PATH"), &["tune"]),
];

fn parse(args: &[&str]) -> Result<Cli, String> {
    Cli::parse(args.iter().map(|s| s.to_string()))
}

/// A scratch path unique to this process and `tag`, absent on return.
fn scratch(tag: &str) -> PathBuf {
    let tag = tag.replace(|c: char| !c.is_ascii_alphanumeric(), "_");
    let path = std::env::temp_dir().join(format!("tiersim-front-end-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// `repro_all` at a tiny testbed plus `extra`, for `command`.
fn exit_code(command: &str, extra: &[String]) -> i32 {
    let mut args: Vec<String> = Vec::new();
    if !command.is_empty() {
        args.push(command.to_string());
    }
    args.extend(["--scale", "4", "--degree", "4", "--trials", "1"].map(String::from));
    args.extend(extra.iter().cloned());
    repro_all(args)
}

#[test]
fn every_flag_a_command_does_not_honour_exits_2_and_writes_nothing() {
    for command in COMMANDS {
        for &(flag, value, honoured_by) in HONOURED {
            if honoured_by.contains(&command) {
                continue;
            }
            let path = scratch(&format!("{command}{flag}"));
            let mut args = vec![flag.to_string()];
            match value {
                Some("PATH") => args.push(path.display().to_string()),
                Some(v) => args.push(v.to_string()),
                None => {}
            }
            assert_eq!(exit_code(command, &args), 2, "repro_all {command} {flag}");
            assert!(!path.exists(), "repro_all {command} {flag} wrote {}", path.display());
        }
    }
}

#[test]
fn dump_with_every_flag_it_ignored_before_exits_2_and_writes_nothing() {
    let [out, journal, trace] = ["o.txt", "j.journal", "t.jsonl"].map(scratch);
    let show = |p: &Path| p.display().to_string();
    let args = [
        "--scale".to_string(),
        "6".to_string(),
        "--out".to_string(),
        show(&out),
        "--resume".to_string(),
        show(&journal),
        "--trace".to_string(),
        show(&trace),
        "--inject-failure".to_string(),
        "--max-attempts".to_string(),
        "2".to_string(),
    ];
    assert_eq!(exit_code("dump", &args), 2);
    for path in [out, journal, trace] {
        assert!(!path.exists(), "dump wrote {}", path.display());
    }
    assert_eq!(exit_code("ablate", &["--max-attempts".to_string(), "2".to_string()]), 2);
}

#[test]
fn help_lists_exactly_the_flags_each_command_honours() {
    for (command, token) in
        [Command::Suite, Command::Dump, Command::Ablate, Command::Tune].into_iter().zip(COMMANDS)
    {
        let args: Vec<&str> = [token, "--help"].into_iter().filter(|a| !a.is_empty()).collect();
        let help = parse(&args).expect_err("--help is an error: it exits 2");
        let mut listed: Vec<&str> = help
            .lines()
            .filter_map(|line| line.strip_prefix("  "))
            .filter_map(|line| line.split_whitespace().next())
            .collect();
        let mut expected: Vec<&str> = HONOURED
            .iter()
            .filter(|(_, _, by)| by.contains(&token))
            .map(|&(flag, _, _)| flag)
            .collect();
        listed.sort_unstable();
        expected.sort_unstable();
        assert_eq!(listed, expected, "{command:?} --help");
    }
}

#[test]
fn every_honoured_flag_parses_for_every_command_that_honours_it() {
    for &(flag, value, honoured_by) in HONOURED {
        for &command in honoured_by {
            let mut args: Vec<&str> = vec![command, flag];
            args.extend(value.map(|v| if v == "PATH" { "x.out" } else { v }));
            if flag == "--kill-at" {
                args.extend(["--resume", "j.journal"]);
            }
            args.retain(|a| !a.is_empty());
            assert!(parse(&args).is_ok(), "{args:?}: {:?}", parse(&args).err());
        }
    }
}

#[test]
fn defaults_when_no_args() {
    let cli = parse(&[]).unwrap();
    assert_eq!(cli.command, Command::Suite);
    assert_eq!(cli.experiment, ExperimentConfig::default());
    assert!(cli.out.is_none());
    assert!(cli.resume.is_none());
    assert!(cli.kill_at.is_none());
    assert_eq!(cli.max_attempts, 3);
}

#[test]
fn parses_all_flags() {
    let cli =
        parse(&["--scale", "14", "--degree", "8", "--trials", "2", "--out", "/tmp/x.txt"]).unwrap();
    assert_eq!(cli.experiment.scale, 14);
    assert_eq!(cli.experiment.degree, 8);
    assert_eq!(cli.experiment.trials, 2);
    assert_eq!(cli.out.as_deref(), Some(Path::new("/tmp/x.txt")));
}

#[test]
fn rejects_unknown_and_invalid() {
    assert!(parse(&["--bogus"]).is_err());
    assert!(parse(&["--scale", "abc"]).is_err());
    assert!(parse(&["--scale"]).is_err());
    assert!(parse(&["--scale", "40"]).is_err());
    assert!(parse(&["--help"]).is_err());
}

#[test]
fn parses_inject_failure_flag() {
    assert!(!parse(&[]).unwrap().inject_failure);
    assert!(parse(&["--inject-failure"]).unwrap().inject_failure);
}

#[test]
fn parses_thp_flag() {
    assert!(!parse(&[]).unwrap().experiment.thp);
    assert!(parse(&["--thp"]).unwrap().experiment.thp);
}

#[test]
fn trace_flag_sets_path_and_enables_tracing() {
    let off = parse(&[]).unwrap();
    assert!(off.trace_out.is_none());
    assert_eq!(off.experiment.trace, TraceConfig::off());

    let on = parse(&["--trace", "/tmp/t.jsonl"]).unwrap();
    assert_eq!(on.trace_out.as_deref(), Some(Path::new("/tmp/t.jsonl")));
    assert_eq!(on.experiment.trace, TraceConfig::on());
    assert!(parse(&["--trace"]).is_err());

    // The tuner's trace is its lifecycle log: its runs stay untraced.
    let tune = parse(&["tune", "--trace", "/tmp/t.jsonl"]).unwrap();
    assert_eq!(tune.trace_out.as_deref(), Some(Path::new("/tmp/t.jsonl")));
    assert_eq!(tune.experiment.trace, TraceConfig::off());
}

#[test]
fn parses_and_validates_jobs() {
    assert_eq!(parse(&["--jobs", "4"]).unwrap().experiment.jobs, 4);
    assert_eq!(parse(&[]).unwrap().experiment.jobs, tiersim_core::sweep::default_jobs());
    assert!(parse(&["--jobs", "0"]).is_err());
    assert!(parse(&["--jobs", "many"]).is_err());
    assert!(parse(&["--jobs"]).is_err());
}

#[test]
fn parses_and_validates_journal_flags() {
    let cli =
        parse(&["--resume", "/tmp/j.jsonl", "--kill-at", "3", "--max-attempts", "2"]).unwrap();
    assert_eq!(cli.resume.as_deref(), Some(Path::new("/tmp/j.jsonl")));
    assert_eq!(cli.kill_at, Some(3));
    assert_eq!(cli.max_attempts, 2);
    let opts = cli.runner_options();
    assert_eq!(opts.jobs, 1);
    assert_eq!(opts.max_attempts, 2);
    assert_eq!(opts.kill, Some(KillSpec { at_append: 3, torn: false, mode: KillMode::Exit }));

    assert!(parse(&["--kill-at", "3"]).is_err(), "--kill-at requires --resume");
    assert!(parse(&["--resume", "/tmp/j", "--kill-at", "0"]).is_err());
    assert!(parse(&["--max-attempts", "0"]).is_err());
    assert!(parse(&["--tick-budget", "many"]).is_err());
    assert_eq!(parse(&["--tick-budget", "5000"]).unwrap().experiment.tick_budget, 5000);
}

#[test]
fn defaults_use_the_calibrated_testbed() {
    let cli = parse(&["tune"]).unwrap();
    assert_eq!(cli.command, Command::Tune);
    assert_eq!(cli.tune.kernel, Kernel::Bc);
    assert_eq!(cli.tune.dataset, Dataset::Kron);
    assert_eq!(cli.tune.grid, GridSpec::Tiny);
    // The suite-standard scale: smaller testbeds finish inside one
    // dilated scan period and score every knob point identically.
    assert_eq!(cli.experiment.scale, ExperimentConfig::default().scale);
    assert_eq!(cli.experiment.trials, ExperimentConfig::default().trials);
    assert_eq!(cli.experiment.jobs, 1);
    assert_eq!(cli.tune.experiment, cli.experiment);
    assert_eq!(cli.tune.rung_budget, 2000);
    // Like the suite, the tuner journals only under `--resume`.
    assert!(cli.resume.is_none());
}

#[test]
fn parses_workloads_including_two_part_kernels() {
    let cli = parse(&["tune", "--workload", "cc_aff_urand"]).unwrap();
    assert_eq!(cli.tune.kernel, Kernel::CcAff);
    assert_eq!(cli.tune.dataset, Dataset::Urand);
    let cli = parse(&["tune", "--workload", "bfs_road"]).unwrap();
    assert_eq!(cli.tune.kernel, Kernel::Bfs);
    assert_eq!(cli.tune.dataset, Dataset::Road);
    assert!(parse(&["tune", "--workload", "nope_kron"]).is_err());
    assert!(parse(&["tune", "--workload", "bc_mars"]).is_err());
    assert!(parse(&["tune", "--workload", "bc"]).is_err());
}

#[test]
fn parses_search_flags_and_rejects_degenerate_values() {
    let cli = parse(&[
        "tune",
        "--grid",
        "paper",
        "--rung-budget",
        "5000",
        "--finalists",
        "8",
        "--seed",
        "7",
        "--resume",
        "t.journal",
        "--kill-at",
        "3",
    ])
    .unwrap();
    assert_eq!(cli.tune.grid, GridSpec::Paper);
    assert_eq!(cli.tune.rung_budget, 5000);
    assert_eq!(cli.tune.finalists, 8);
    assert_eq!(cli.tune.seed, 7);
    assert_eq!(cli.kill_at, Some(3));
    assert!(parse(&["tune", "--rung-budget", "0"]).is_err());
    assert!(parse(&["tune", "--finalists", "0"]).is_err());
    assert!(parse(&["tune", "--resume", "t.journal", "--kill-at", "0"]).is_err());
    assert!(parse(&["tune", "--grid", "huge"]).is_err());
    assert!(parse(&["tune", "--bogus"]).is_err());
}

#[test]
fn runner_options_arm_exit_kills() {
    let cli = parse(&["tune", "--resume", "t.journal", "--kill-at", "5", "--jobs", "4"]).unwrap();
    let opts = cli.runner_options();
    assert_eq!(opts.jobs, 4);
    assert_eq!(opts.max_attempts, 1);
    assert_eq!(opts.kill, Some(KillSpec { at_append: 5, torn: false, mode: KillMode::Exit }));
    // A kill point needs a journal to append to, for every command.
    assert_eq!(exit_code("tune", &["--kill-at".to_string(), "5".to_string()]), 2);
}

#[test]
fn tune_config_fingerprint_tracks_search_inputs() {
    let a = parse(&["tune"]).unwrap().tune;
    let b = parse(&["tune", "--seed", "9"]).unwrap().tune;
    let c = parse(&["tune", "--jobs", "4"]).unwrap().tune;
    assert_ne!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.fingerprint(), c.fingerprint(), "jobs must not change the fingerprint");
}
