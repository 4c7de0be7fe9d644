//! Runs every reproduction experiment and prints all tables/figures,
//! simulating each distinct AutoNUMA run once for the whole suite
//! (DESIGN.md §13, run sharing).
//!
//! Experiments are isolated: a failing (or panicking) experiment is
//! recorded and the rest still run. A failure summary is printed at the
//! end and the process exits nonzero if anything failed.
//!
//! `--jobs N` runs independent experiment cells on N worker threads; the
//! printed tables and `--out` bytes are identical for every value (see
//! DESIGN.md §10).
//!
//! `--resume PATH` runs the suite against a durable write-ahead journal
//! (DESIGN.md §13): killed runs — including `--kill-at N` injected kills
//! and real SIGKILL — resume where they left off, never re-executing a
//! completed experiment, and produce byte-identical reports to an
//! uninterrupted run.
//!
//! Three subcommands run instead of the suite: `repro_all dump ...`
//! writes the paper artifact's per-workload trace CSVs (see
//! `tiersim_bench::run_dump_cli`), `repro_all tune ...` runs the
//! AutoNUMA knob auto-tuner service (DESIGN.md §16; see
//! `tiersim_bench::tune_cli`), and `repro_all ablate ...` prints the
//! DESIGN.md §5 ablations and the extension experiments (see
//! `tiersim_bench::run_ablate`).

use tiersim_bench::{
    banner, run_ablate_cli, run_dump_cli, run_repro_suite, run_suite_journaled, run_tune_cli, Cli,
};

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("dump") => std::process::exit(run_dump_cli(args.skip(1))),
        Some("tune") => std::process::exit(run_tune_cli(args.skip(1))),
        Some("ablate") => std::process::exit(run_ablate_cli(args.skip(1))),
        _ => {}
    }
    let cli = Cli::from_env();
    banner("full paper reproduction", &cli);
    // Stderr only: stdout stays byte-identical across --jobs values and
    // kill/resume splits.
    eprintln!("jobs: {}", cli.experiment.jobs);
    let suite = if let Some(journal) = &cli.resume {
        match run_suite_journaled(
            &cli.experiment,
            journal,
            cli.runner_options(),
            cli.inject_failure,
        ) {
            Ok(suite) => suite,
            Err(e) => {
                eprintln!("journal error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        run_repro_suite(&cli.experiment, cli.inject_failure)
    };
    print!("{}", suite.summary());
    if let Some(stats) = suite.cell_stats() {
        // Session-relative counters are stderr-only for the same reason;
        // the recovery tests read them to prove completed cells never
        // re-run.
        eprintln!("journal: {} cells executed, {} replayed", stats.executed, stats.replayed);
    }
    cli.maybe_write_out(suite.output());
    cli.maybe_write_trace(suite.trace_exports());
    std::process::exit(suite.exit_code());
}
