//! The `repro_all` command line: one flag table (`FLAGS`), each flag
//! declared once with the commands that honour it, parsed into one
//! [`Cli`]. A flag the chosen command does not honour is an error, and
//! each command's usage text is generated from the same table.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use tiersim_core::journal::{KillMode, KillSpec, RunnerOptions};
use tiersim_core::tune::{GridSpec, TuneConfig};
use tiersim_core::{Dataset, ExperimentConfig, Kernel, TraceConfig};

use Command::{Ablate, Dump, Suite, Tune};

/// What one `repro_all` invocation runs; the first argument picks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Every paper table and figure (no subcommand token).
    Suite,
    /// `dump`: the paper artifact's per-workload trace CSVs.
    Dump,
    /// `ablate`: the DESIGN.md §5 ablations and the extensions.
    Ablate,
    /// `tune`: the AutoNUMA knob auto-tuner (DESIGN.md §16).
    Tune,
}

impl Command {
    /// The command as typed: `repro_all` plus its subcommand token.
    fn invocation(self) -> &'static str {
        match self {
            Suite => "repro_all",
            Dump => "repro_all dump",
            Ablate => "repro_all ablate",
            Tune => "repro_all tune",
        }
    }
}

/// Updates the options from one flag's value (`""` for a switch).
type Setter = fn(&mut Cli, &str) -> Result<(), String>;

/// One command-line flag: its name, its value placeholder (empty for a
/// switch), the commands that honour it (every other command rejects
/// it), its usage line and how it updates the options.
struct Flag(&'static str, &'static str, &'static [Command], &'static str, Setter);

const ALL: &[Command] = &[Suite, Dump, Ablate, Tune];
const SIMULATING: &[Command] = &[Suite, Dump, Ablate];
const JOURNALED: &[Command] = &[Suite, Tune];

/// Parses a flag value with its type's `FromStr`.
fn parsed<T: FromStr>(value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e: T::Err| e.to_string())
}

/// Every flag of every command.
const FLAGS: &[Flag] = &[
    Flag("--scale", "N", ALL, "graph scale, 4..=28 (default 16)", |c, v| {
        parsed(v).map(|n| c.experiment.scale = n)
    }),
    Flag("--degree", "N", ALL, "average degree (default 16)", |c, v| {
        parsed(v).map(|n| c.experiment.degree = n)
    }),
    Flag("--trials", "N", ALL, "kernel trials (default 4)", |c, v| {
        parsed(v).map(|n| c.experiment.trials = n)
    }),
    Flag("--jobs", "N", ALL, "worker threads (default: all cores; tune: 1)", |c, v| {
        parsed(v).map(|n| c.experiment.jobs = n)
    }),
    Flag("--tick-budget", "N", SIMULATING, "quarantine runs over N OS ticks (0 = off)", |c, v| {
        parsed(v).map(|n| c.experiment.tick_budget = n)
    }),
    Flag("--thp", "", SIMULATING, "transparent huge pages (DESIGN.md §15)", |c, _| {
        c.experiment.thp = true;
        Ok(())
    }),
    Flag("--out", "PATH", &[Suite, Ablate], "also write the printed sections to PATH", |c, v| {
        parsed(v).map(|path| c.out = Some(path))
    }),
    Flag("--trace", "PATH", JOURNALED, "JSONL trace (tune: lifecycle)", |c, v| {
        parsed(v).map(|path| c.trace_out = Some(path))
    }),
    Flag("--inject-failure", "", &[Suite], "add a deliberately failing cell", |c, _| {
        c.inject_failure = true;
        Ok(())
    }),
    Flag("--resume", "PATH", JOURNALED, "journal to create/replay", |c, v| {
        parsed(v).map(|path| c.resume = Some(path))
    }),
    Flag("--kill-at", "N", JOURNALED, "exit 137 instead of the Nth journal append", |c, v| {
        parsed(v).map(|n| c.kill_at = Some(n))
    }),
    Flag("--max-attempts", "N", &[Suite], "cell attempts before quarantine (default 3)", |c, v| {
        parsed(v).map(|n| c.max_attempts = n)
    }),
    Flag("--workload", "NAME", &[Tune], "<kernel>_<dataset> to tune (default bc_kron)", |c, v| {
        use Kernel::{Bc, Bfs, Cc, CcAff, Pr, Sssp, Tc};
        let (kernel, dataset) = v.rsplit_once('_').ok_or("expected <kernel>_<dataset>")?;
        let kernels = [Bc, Bfs, Cc, CcAff, Pr, Sssp, Tc];
        c.tune.kernel = kernels
            .into_iter()
            .find(|k| k.name() == kernel)
            .ok_or_else(|| format!("unknown kernel {kernel}"))?;
        c.tune.dataset = [Dataset::Kron, Dataset::Urand, Dataset::Road]
            .into_iter()
            .find(|d| d.name() == dataset)
            .ok_or_else(|| format!("unknown dataset {dataset}"))?;
        Ok(())
    }),
    Flag("--grid", "tiny|paper", &[Tune], "knob grid of 8 or 216 cells (default tiny)", |c, v| {
        c.tune.grid = match v {
            "tiny" => GridSpec::Tiny,
            "paper" => GridSpec::Paper,
            _ => return Err("expected tiny or paper".to_string()),
        };
        Ok(())
    }),
    Flag("--rung-budget", "N", &[Tune], "rung-0 OS tick budget (default 2000)", |c, v| {
        parsed(v).map(|n| c.tune.rung_budget = n)
    }),
    Flag("--finalists", "N", &[Tune], "survivors that stop the halving (default 4)", |c, v| {
        parsed(v).map(|n| c.tune.finalists = n)
    }),
    Flag("--seed", "N", &[Tune], "tie-break and fault-plan seed (default 42)", |c, v| {
        parsed(v).map(|n| c.tune.seed = n)
    }),
    Flag("--out-json", "PATH", &[Tune], "write the Pareto report as JSON to PATH", |c, v| {
        parsed(v).map(|path| c.out_json = Some(path))
    }),
    Flag("--out-csv", "PATH", &[Tune], "write the finalist table as CSV to PATH", |c, v| {
        parsed(v).map(|path| c.out_csv = Some(path))
    }),
];

/// The usage text of `command`: every flag it honours, one per line.
fn usage(command: Command) -> String {
    let mut text = format!("usage: {} [FLAG ...]", command.invocation());
    for Flag(name, value, commands, help, _) in FLAGS {
        if commands.contains(&command) {
            text.push_str(&format!("\n  {:<20}{help}", format!("{name} {value}")));
        }
    }
    text
}

/// Parsed `repro_all` options: the command and every flag's value, at
/// the command's defaults where a flag is absent.
#[derive(Debug, Clone)]
pub struct Cli {
    /// The command the first argument picked.
    pub command: Command,
    /// The testbed parameters.
    pub experiment: ExperimentConfig,
    /// The tuner search (`tune`); its `experiment` is [`Cli::experiment`].
    pub tune: TuneConfig,
    /// `--out`: where to also write the printed sections.
    pub out: Option<PathBuf>,
    /// `--trace`: where to write the trace (the suite's also traces runs).
    pub trace_out: Option<PathBuf>,
    /// `--inject-failure`: add a deliberately failing suite cell.
    pub inject_failure: bool,
    /// `--resume`: the journal path; without it no command journals.
    pub resume: Option<PathBuf>,
    /// `--kill-at`: exit 137 instead of this session's Nth journal append.
    pub kill_at: Option<u64>,
    /// `--max-attempts`: attempts per cell per session before quarantine
    /// (`tune` keeps 1: a stuck verdict is a score, not a failure).
    pub max_attempts: u64,
    /// `--out-json`: where to write the Pareto report as JSON.
    pub out_json: Option<PathBuf>,
    /// `--out-csv`: where to write the finalist table as CSV.
    pub out_csv: Option<PathBuf>,
}

impl Cli {
    /// Parses `args` (without the program name): an optional `dump`,
    /// `ablate` or `tune` token, then flags.
    ///
    /// # Errors
    ///
    /// A message naming the offending argument on an unknown flag, a flag
    /// the command does not honour, a missing or malformed value or a
    /// degenerate setting; the command's usage text on `--help`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut args = args.into_iter().peekable();
        let command = match args.peek().map(String::as_str) {
            Some("dump") => Dump,
            Some("ablate") => Ablate,
            Some("tune") => Tune,
            _ => Suite,
        };
        if command != Suite {
            args.next();
        }
        let mut cli = Cli::defaults(command);
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(usage(command));
            }
            let Some(Flag(_, placeholder, commands, _, set)) = FLAGS.iter().find(|f| f.0 == arg)
            else {
                return Err(format!("unknown argument: {arg}\n{}", usage(command)));
            };
            if !commands.contains(&command) {
                let cmd = command.invocation();
                return Err(format!("{cmd} does not honour {arg}\n{}", usage(command)));
            }
            let value = match *placeholder {
                "" => String::new(),
                _ => args.next().ok_or_else(|| format!("missing value for {arg}"))?,
            };
            set(&mut cli, &value).map_err(|e| format!("bad {arg} {value}: {e}"))?;
        }
        let invalid = [
            (!(4..=28).contains(&cli.experiment.scale), "--scale must be in 4..=28"),
            (cli.experiment.jobs == 0, "--jobs must be at least 1"),
            (cli.max_attempts == 0, "--max-attempts must be at least 1"),
            (cli.kill_at.is_some() && cli.resume.is_none(), "--kill-at requires --resume"),
            (cli.kill_at == Some(0), "--kill-at must be at least 1"),
            (cli.tune.rung_budget == 0, "--rung-budget must be at least 1"),
            (cli.tune.finalists == 0, "--finalists must be at least 1"),
        ];
        if let Some((_, msg)) = invalid.iter().find(|(bad, _)| *bad) {
            return Err(msg.to_string());
        }
        // `--trace` records the runs' events, but the tuner's trace is its
        // lifecycle log: its runs stay untraced, keeping its fingerprint.
        if cli.trace_out.is_some() && command != Tune {
            cli.experiment.trace = TraceConfig::on();
        }
        cli.tune.experiment = cli.experiment;
        Ok(cli)
    }

    /// `command`'s options with no flags given.
    fn defaults(command: Command) -> Cli {
        let tune = command == Tune;
        // The tuner's testbed defaults to the suite's standard scale:
        // below it (roughly scale < 15) runs finish inside one dilated
        // scan period, every knob point scores identically and the search
        // is uninformative. Its runs are its cells, so one worker unless
        // asked.
        let mut experiment = ExperimentConfig::default();
        if tune {
            experiment.jobs = 1;
        }
        Cli {
            command,
            experiment,
            tune: TuneConfig::new(experiment, Kernel::Bc, Dataset::Kron),
            out: None,
            trace_out: None,
            inject_failure: false,
            resume: None,
            kill_at: None,
            max_attempts: if tune { 1 } else { 3 },
            out_json: None,
            out_csv: None,
        }
    }

    /// The journal runner knobs these options imply: the suite runs its
    /// cells serially (their inner sweeps use `experiment.jobs`), the
    /// tuner runs its cells on `--jobs` workers, and a `--kill-at`
    /// becomes a hard `exit(137)` kill-point, mimicking SIGKILL for the
    /// recovery smoke tests.
    pub fn runner_options(&self) -> RunnerOptions {
        RunnerOptions {
            jobs: if self.command == Tune { self.experiment.jobs } else { 1 },
            max_attempts: self.max_attempts,
            kill: self.kill_at.map(|at_append| KillSpec {
                at_append,
                torn: false,
                mode: KillMode::Exit,
            }),
        }
    }
}
