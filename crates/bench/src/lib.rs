//! # tiersim-bench — reproduction harness
//!
//! One front end, `repro_all`, prints every paper table and figure as a
//! named section, from one shared set of AutoNUMA runs
//! ([`run_repro_suite`]). Its subcommands write the paper artifact's
//! per-workload trace CSVs (`repro_all dump`, [`run_dump_cli`]), run
//! the knob auto-tuner (`repro_all tune`) and print the DESIGN.md §5
//! ablations and the extension experiments as tables of simulated time
//! and counters (`repro_all ablate`, [`run_ablate`]).
//!
//! `repro_all`, `repro_all dump` and `repro_all ablate` accept (`ablate`
//! rejects `--trace`):
//!
//! ```text
//! --scale N         graph scale (default 16; paper used 30/31)
//! --degree N        average degree (default 16)
//! --trials N        kernel trials (default 4)
//! --jobs N          worker threads for independent experiment cells
//!                   (default: available parallelism; output bytes are
//!                   identical for every value)
//! --out PATH        also write the printed output to a file
//! --trace PATH      record the AutoNUMA event trace and write it here as
//!                   JSONL (or CSV when PATH ends in .csv); see DESIGN.md §11
//! --tick-budget N   quarantine any cell whose run exceeds N OS engine
//!                   ticks (0 = off); deterministic, no wall clock
//! --thp             enable transparent huge pages: khugepaged-style 2 MiB
//!                   collapse plus a 16-page fault-around window on every
//!                   machine (DESIGN.md §15)
//! ```
//!
//! The suite additionally accepts the crash-safe sweep flags
//! (DESIGN.md §13):
//!
//! ```text
//! --resume PATH       run the suite against the durable journal at PATH:
//!                     created if absent, replayed if present — completed
//!                     cells are never re-executed
//! --kill-at N         die (exit 137) instead of performing the Nth
//!                     journal append; requires --resume
//! --max-attempts N    attempts per cell per session before quarantine
//!                     (default 3)
//! ```
//!
//! `repro_all tune` runs the AutoNUMA knob auto-tuner service instead
//! of the reproduction suite; see [`tune_cli`] and DESIGN.md §16.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ablate;
pub mod tune_cli;

pub use ablate::{run_ablate, run_ablate_cli};
pub use tune_cli::{run_tune_cli, TuneCli, TUNE_USAGE};

use std::path::{Path, PathBuf};
use std::sync::Arc;
use tiersim_core::experiments::{
    AutonumaRuns, AutonumaTrace, Characterization, Comparison, ObjectAnalysis,
};
use tiersim_core::journal::{
    atomic_write, run_journaled, CellError, CellOutcome, FailureClass, JournalCell, JournalError,
    JournalStats, KillMode, KillSpec, RunnerOptions,
};
use tiersim_core::sweep::{run_cells_fallible, CellFailure};
use tiersim_core::{
    CoreError, Dataset, ExperimentConfig, Kernel, RunError, TraceConfig, TraceLog, WorkloadConfig,
};
use tiersim_mem::Tier;
use tiersim_policy::TieringMode;
use tiersim_profile::export;

/// Parsed command-line options shared by `repro_all` and its `dump` and
/// `ablate` subcommands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Experiment parameters.
    pub experiment: ExperimentConfig,
    /// Optional output-file path.
    pub out: Option<PathBuf>,
    /// Optional event-trace output path; setting it also enables tracing
    /// in [`Cli::experiment`].
    pub trace_out: Option<PathBuf>,
    /// Injects a deliberately failing experiment into `repro_all`, to
    /// exercise the continue-on-failure path end to end.
    pub inject_failure: bool,
    /// Journal path for the crash-safe sweep lane (`--resume`).
    pub resume: Option<PathBuf>,
    /// Deterministic kill-point: die instead of performing the Nth
    /// journal append (`--kill-at`; requires `--resume`).
    pub kill_at: Option<u64>,
    /// Attempts per cell per session before quarantine (`--max-attempts`).
    pub max_attempts: u64,
}

impl Cli {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a usage string on unknown flags or malformed values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            experiment: ExperimentConfig::default(),
            out: None,
            trace_out: None,
            inject_failure: false,
            resume: None,
            kill_at: None,
            max_attempts: 3,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
            match arg.as_str() {
                "--scale" => {
                    cli.experiment.scale =
                        value("--scale")?.parse().map_err(|e| format!("bad --scale: {e}"))?;
                }
                "--degree" => {
                    cli.experiment.degree =
                        value("--degree")?.parse().map_err(|e| format!("bad --degree: {e}"))?;
                }
                "--trials" => {
                    cli.experiment.trials =
                        value("--trials")?.parse().map_err(|e| format!("bad --trials: {e}"))?;
                }
                "--jobs" => {
                    cli.experiment.jobs =
                        value("--jobs")?.parse().map_err(|e| format!("bad --jobs: {e}"))?;
                }
                "--tick-budget" => {
                    cli.experiment.tick_budget = value("--tick-budget")?
                        .parse()
                        .map_err(|e| format!("bad --tick-budget: {e}"))?;
                }
                "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
                "--trace" => {
                    cli.trace_out = Some(PathBuf::from(value("--trace")?));
                    cli.experiment.trace = TraceConfig::on();
                }
                "--thp" => cli.experiment.thp = true,
                "--inject-failure" => cli.inject_failure = true,
                "--resume" => cli.resume = Some(PathBuf::from(value("--resume")?)),
                "--kill-at" => {
                    cli.kill_at = Some(
                        value("--kill-at")?.parse().map_err(|e| format!("bad --kill-at: {e}"))?,
                    );
                }
                "--max-attempts" => {
                    cli.max_attempts = value("--max-attempts")?
                        .parse()
                        .map_err(|e| format!("bad --max-attempts: {e}"))?;
                }
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown argument: {other}\n{USAGE}")),
            }
        }
        if cli.experiment.scale < 4 || cli.experiment.scale > 28 {
            return Err("--scale must be in 4..=28".to_string());
        }
        if cli.experiment.jobs == 0 {
            return Err("--jobs must be at least 1".to_string());
        }
        if cli.max_attempts == 0 {
            return Err("--max-attempts must be at least 1".to_string());
        }
        if cli.kill_at.is_some() && cli.resume.is_none() {
            return Err("--kill-at requires --resume".to_string());
        }
        if cli.kill_at == Some(0) {
            return Err("--kill-at must be at least 1".to_string());
        }
        Ok(cli)
    }

    /// Parses the process arguments, exiting with usage on error.
    pub fn from_env() -> Cli {
        match Cli::parse(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The journal runner knobs these options imply. Suite-level cells
    /// run serially (their inner sweeps use `experiment.jobs`); a
    /// `--kill-at` becomes a hard `exit(137)` kill-point, mimicking
    /// SIGKILL for the recovery smoke tests.
    pub fn runner_options(&self) -> RunnerOptions {
        RunnerOptions {
            jobs: 1,
            max_attempts: self.max_attempts,
            kill: self.kill_at.map(|n| KillSpec {
                at_append: n,
                torn: false,
                mode: KillMode::Exit,
            }),
        }
    }

    /// Writes `text` to the `--out` path if one was given.
    pub fn maybe_write_out(&self, text: &str) {
        if let Some(path) = &self.out {
            if let Err(e) = atomic_write(path, text.as_bytes()) {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("wrote {}", path.display());
        }
    }

    /// Writes the trace exports to the `--trace` path if one was given:
    /// JSONL by default, CSV when the path ends in `.csv`. A `--trace`
    /// flag with no exports to write (the traced experiment failed) is an
    /// error.
    pub fn maybe_write_trace(&self, exports: Option<&TraceExports>) {
        let Some(path) = &self.trace_out else { return };
        let Some(exports) = exports else {
            eprintln!("--trace given but no trace was recorded (traced experiment failed?)");
            std::process::exit(1);
        };
        let text = if path.extension().is_some_and(|e| e == "csv") {
            &exports.csv
        } else {
            &exports.jsonl
        };
        if let Err(e) = atomic_write(path, text.as_bytes()) {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {} ({} bytes)", path.display(), text.len());
    }
}

/// Usage text shared by `repro_all` and its `dump` and `ablate`
/// subcommands.
pub const USAGE: &str = "usage: <bin> [--scale N] [--degree N] [--trials N] [--jobs N] \
     [--out PATH] [--trace PATH] [--tick-budget N] [--thp] [--inject-failure] \
     [--resume PATH] [--kill-at N] [--max-attempts N]";

/// The traced run's rendered exports, precomputed so a resumed suite can
/// reproduce `--trace` output from the journal without re-running the
/// traced experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceExports {
    /// JSONL export (DESIGN.md §11).
    pub jsonl: String,
    /// CSV export.
    pub csv: String,
}

impl TraceExports {
    /// Renders both export formats from a recorded log.
    pub fn from_log(log: &TraceLog) -> TraceExports {
        TraceExports {
            jsonl: tiersim_core::trace_to_jsonl(log),
            csv: tiersim_core::trace_to_csv(log),
        }
    }
}

/// The assembled result of `repro_all`'s experiments, each of which may
/// fail without killing the rest.
///
/// Each experiment is recorded as completed (its sections appended) or
/// failed under its name. At the end, [`summary`](ExperimentSuite::summary)
/// reports what failed and [`exit_code`](ExperimentSuite::exit_code) is
/// nonzero if anything did. A journaled suite additionally carries
/// degraded-mode cell accounting
/// ([`set_cell_stats`](ExperimentSuite::set_cell_stats)).
#[derive(Debug)]
pub struct ExperimentSuite {
    output: String,
    attempted: usize,
    failures: Vec<(String, String)>,
    jobs: usize,
    trace: Option<TraceExports>,
    cell_stats: Option<JournalStats>,
}

impl Default for ExperimentSuite {
    fn default() -> Self {
        ExperimentSuite {
            output: String::new(),
            attempted: 0,
            failures: Vec::new(),
            jobs: tiersim_core::sweep::default_jobs(),
            trace: None,
            cell_stats: None,
        }
    }
}

impl ExperimentSuite {
    /// An empty suite with the default worker count.
    pub fn new() -> ExperimentSuite {
        ExperimentSuite::default()
    }

    /// Returns a copy with `jobs` worker threads for the experiments it
    /// hosts. The suite only carries the knob (experiments read it from
    /// their `ExperimentConfig`); recorded output never depends on it.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Worker threads this suite was configured with.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Records one rendered section and returns the text to display.
    pub fn section(&mut self, title: &str, body: &str) -> String {
        let text = format!("--- {title} ---\n{body}");
        self.output.push_str(&text);
        self.output.push('\n');
        text
    }

    /// Counts one completed experiment.
    pub fn note_completed(&mut self) {
        self.attempted += 1;
    }

    /// Records one failed experiment (a quarantined cell) under `name`.
    pub fn note_quarantined(&mut self, name: &str, error: String) {
        self.attempted += 1;
        self.failures.push((name.to_string(), error));
    }

    /// Accumulated section text (what `--out` writes).
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Records the trace exports of the suite's traced run.
    pub fn set_trace_exports(&mut self, exports: TraceExports) {
        self.trace = Some(exports);
    }

    /// The trace exports recorded by the suite's traced run, if any
    /// (what `--trace` writes).
    pub fn trace_exports(&self) -> Option<&TraceExports> {
        self.trace.as_ref()
    }

    /// Attaches degraded-mode cell accounting from a journaled sweep;
    /// [`summary`](ExperimentSuite::summary) then reports it.
    pub fn set_cell_stats(&mut self, stats: JournalStats) {
        self.cell_stats = Some(stats);
    }

    /// Degraded-mode cell accounting, if this suite ran journaled.
    pub fn cell_stats(&self) -> Option<&JournalStats> {
        self.cell_stats.as_ref()
    }

    /// The recorded `(experiment, error)` pairs.
    pub fn failures(&self) -> &[(String, String)] {
        &self.failures
    }

    /// End-of-run report: which experiments completed and, for each
    /// failure, what went wrong. A journaled suite adds the degraded-mode
    /// cell columns; only final-state counters appear here, so the bytes
    /// are identical between an uninterrupted run and any kill+resume of
    /// it.
    pub fn summary(&self) -> String {
        let ok = self.attempted - self.failures.len();
        let mut s = format!("== {ok}/{} experiments completed ==\n", self.attempted);
        if let Some(c) = &self.cell_stats {
            s.push_str(&format!(
                "cells: {} completed, {} retried, {} quarantined\n",
                c.completed, c.retried, c.quarantined
            ));
        }
        for (name, err) in &self.failures {
            s.push_str(&format!("FAILED {name}: {err}\n"));
        }
        s
    }

    /// `0` if every experiment succeeded, `1` otherwise.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.failures.is_empty())
    }
}

/// Prints the standard experiment banner.
pub fn banner(what: &str, cli: &Cli) {
    println!(
        "== {what} (scale {}, degree {}, trials {}) ==",
        cli.experiment.scale, cli.experiment.degree, cli.experiment.trials
    );
}

/// Rendered `(title, body)` pairs for one experiment's sections.
type Sections = Vec<(String, String)>;

/// Runs the characterization experiment and renders Tables 1–3 and
/// Figures 3–5.
///
/// # Errors
///
/// The first failing AutoNUMA run's error.
pub fn characterization_sections(runs: &AutonumaRuns) -> Result<Sections, CoreError> {
    let c = Characterization::run_with(runs)?;
    Ok(vec![
        ("Figure 3: sample distribution across levels".to_string(), c.render_fig3()),
        ("Figure 4: page touch-count histogram".to_string(), c.render_fig4()),
        ("Figure 5: 2-touch reuse intervals (hottest NVM object)".to_string(), c.render_fig5()),
        ("Table 1: external access location".to_string(), c.render_table1()),
        ("Table 2: external latency cost split".to_string(), c.render_table2()),
        ("Table 3: external access cost by TLB outcome".to_string(), c.render_table3()),
    ])
}

/// Runs the object-level analysis and renders Figures 6–8.
///
/// # Errors
///
/// The `bc_kron` AutoNUMA run's error.
pub fn object_analysis_sections(runs: &AutonumaRuns) -> Result<Sections, CoreError> {
    let a = ObjectAnalysis::run_with(runs)?;
    let mut out = vec![(
        "Figure 6: top objects by external samples (bc_kron)".to_string(),
        a.render_fig6(10),
    )];
    if let Some(secs) = a.hottest_nvm_alloc_secs() {
        let body = format!(
            "peak live {:.2} MB over {} events; hottest NVM object allocated at t={secs:.4}s\n",
            a.fig7().peak_bytes() as f64 / (1 << 20) as f64,
            a.fig7().points.len(),
        );
        out.push(("Figure 7: allocation timeline (bc_kron)".to_string(), body));
    }
    if let Some(p) = a.fig8() {
        let body = format!(
            "{} samples, randomness metric {:.3}\n",
            p.points.len(),
            p.randomness().unwrap_or(0.0)
        );
        out.push(("Figure 8: hottest NVM object access pattern (bc_kron)".to_string(), body));
    }
    Ok(out)
}

/// Runs the traced AutoNUMA experiment and renders Figures 9–10, plus the
/// recorded event log when tracing was enabled.
///
/// # Errors
///
/// The `bc_kron` AutoNUMA run's error.
pub fn autonuma_trace_sections(
    runs: &AutonumaRuns,
) -> Result<(Sections, Option<TraceLog>), CoreError> {
    let tr = AutonumaTrace::run_with(runs)?;
    let sections = vec![
        ("Figure 9: memory usage and counters over time (bc_kron)".to_string(), tr.render_fig9()),
        ("Figure 10: DRAM loads vs promotions (bc_kron)".to_string(), tr.render_fig10()),
    ];
    // The bc_kron run is the suite's traced run: keep its event log so
    // `--trace` can export it (empty unless tracing was enabled).
    let log = (!tr.report.trace.is_empty()).then(|| tr.report.trace.clone());
    Ok((sections, log))
}

/// Runs the Figure 11 comparison.
///
/// # Errors
///
/// The first failing row's error.
pub fn comparison_sections(runs: &AutonumaRuns) -> Result<Sections, CoreError> {
    let cmp = Comparison::run_with(runs)?;
    Ok(vec![("Figure 11: object-level static mapping vs AutoNUMA".to_string(), cmp.render())])
}

/// The deliberate `--inject-failure` error.
fn injected_failure() -> CoreError {
    CoreError::InvalidConfig { what: "injected failure", got: "--inject-failure".to_string() }
}

/// Section separator inside a journal payload (ASCII record separator).
const PAYLOAD_RS: char = '\u{1e}';
/// Title/body separator inside one payload section (ASCII unit
/// separator).
const PAYLOAD_US: char = '\u{1f}';
/// Reserved payload section carrying the traced run's JSONL export. The
/// NUL prefix keeps it disjoint from every printable section title.
const TRACE_JSONL_SECTION: &str = "\u{0}trace_jsonl";
/// Reserved payload section carrying the traced run's CSV export.
const TRACE_CSV_SECTION: &str = "\u{0}trace_csv";

/// Serializes rendered sections into one journal payload string.
fn encode_payload(sections: &[(String, String)]) -> String {
    let parts: Vec<String> =
        sections.iter().map(|(title, body)| format!("{title}{PAYLOAD_US}{body}")).collect();
    parts.join(&PAYLOAD_RS.to_string())
}

/// Splits a journal payload back into `(title, body)` sections.
fn decode_payload(payload: &str) -> Vec<(&str, &str)> {
    if payload.is_empty() {
        return Vec::new();
    }
    payload.split(PAYLOAD_RS).filter_map(|s| s.split_once(PAYLOAD_US)).collect()
}

/// Maps an experiment error to its journal failure class: the stuck-cell
/// watchdog gets its own column, everything else is an ordinary error
/// (panics are classified by the runner itself).
fn cell_error(e: CoreError) -> CellError {
    let class = match &e {
        CoreError::Run(RunError::Stuck { .. }) => FailureClass::Stuck,
        _ => FailureClass::Error,
    };
    CellError { class, message: e.to_string() }
}

/// The suite's cells, in suite order: the `--inject-failure` cell when
/// asked for, then the four reproduction experiments on one shared
/// [`AutonumaRuns`] store, so each distinct AutoNUMA run is simulated
/// once per suite. A cell's payload is its encoded sections; the traced
/// run's exports ride along as reserved sections, so a resumed suite
/// reproduces `--trace` output from the journal alone.
fn suite_cells(experiment: &ExperimentConfig, inject_failure: bool) -> Vec<JournalCell> {
    type Experiment = fn(&AutonumaRuns) -> Result<Sections, CoreError>;
    let experiments: [(&str, Experiment); 4] = [
        ("characterization", characterization_sections),
        ("object analysis", object_analysis_sections),
        ("autonuma trace", |runs| {
            let (mut sections, log) = autonuma_trace_sections(runs)?;
            if let Some(log) = log {
                let exports = TraceExports::from_log(&log);
                sections.push((TRACE_JSONL_SECTION.to_string(), exports.jsonl));
                sections.push((TRACE_CSV_SECTION.to_string(), exports.csv));
            }
            Ok(sections)
        }),
        ("comparison", comparison_sections),
    ];
    let mut cells = Vec::new();
    if inject_failure {
        // Deliberate failure to exercise the continue-on-failure path:
        // every later cell must still run and the exit code must be 1.
        cells.push(JournalCell {
            name: "injected failure".to_string(),
            run: Box::new(|| Err(cell_error(injected_failure()))),
        });
    }
    let runs = Arc::new(AutonumaRuns::new(experiment));
    for (name, sections) in experiments {
        let runs = Arc::clone(&runs);
        cells.push(JournalCell {
            name: name.to_string(),
            run: Box::new(move || sections(&runs).map(|s| encode_payload(&s)).map_err(cell_error)),
        });
    }
    cells
}

/// Runs `cells` once each, in order, isolating failures: the suite
/// without a journal. A failed cell is quarantined at once.
fn run_unjournaled(cells: &[JournalCell]) -> Vec<(String, CellOutcome)> {
    let results = run_cells_fallible(1, cells.iter().map(|cell| || (cell.run)()).collect());
    cells
        .iter()
        .zip(results)
        .map(|(cell, result)| {
            let outcome = match result {
                Ok(payload) => CellOutcome::Completed { payload, attempts: 1, replayed: false },
                Err(
                    CellFailure::Error(CellError { message: error, .. })
                    | CellFailure::Panic(error),
                ) => CellOutcome::Quarantined { error, attempts: 1 },
            };
            (cell.name.clone(), outcome)
        })
        .collect()
}

/// Puts the suite back together from its cells' outcomes, in cell order,
/// printing each section to stdout.
fn assemble(jobs: usize, outcomes: &[(String, CellOutcome)]) -> ExperimentSuite {
    let mut suite = ExperimentSuite::new().with_jobs(jobs);
    let mut jsonl = None;
    let mut csv = None;
    for (name, cell) in outcomes {
        match cell {
            CellOutcome::Completed { payload, .. } => {
                suite.note_completed();
                for (title, body) in decode_payload(payload) {
                    if title == TRACE_JSONL_SECTION {
                        jsonl = Some(body.to_string());
                    } else if title == TRACE_CSV_SECTION {
                        csv = Some(body.to_string());
                    } else {
                        println!("{}", suite.section(title, body));
                    }
                }
            }
            // The attempt count is session-relative, so it stays out of
            // the byte-compared summary; the message itself is a pure
            // function of the cell.
            CellOutcome::Quarantined { error, .. } => {
                suite.note_quarantined(name, format!("quarantined: {error}"));
            }
        }
    }
    if let (Some(jsonl), Some(csv)) = (jsonl, csv) {
        suite.set_trace_exports(TraceExports { jsonl, csv });
    }
    suite
}

/// Runs the full `repro_all` experiment suite without a journal: each
/// suite cell runs once, and one failure never kills the rest.
///
/// Sections print to stdout once the suite finishes and accumulate in the
/// returned suite ([`ExperimentSuite::output`]). The recorded bytes are
/// identical for every `experiment.jobs` value — the byte-identity test
/// in `tests/parallel_sweep.rs` holds this function to that contract.
pub fn run_repro_suite(experiment: &ExperimentConfig, inject_failure: bool) -> ExperimentSuite {
    assemble(experiment.jobs, &run_unjournaled(&suite_cells(experiment, inject_failure)))
}

/// The journaled variant of [`run_repro_suite`]: every experiment is one
/// durable cell in the write-ahead journal at `journal` (DESIGN.md §13).
///
/// The journal is created if absent and replayed if present — completed
/// cells return their recorded payload without re-executing, failed cells
/// retry up to `opts.max_attempts` per session, and cells that exhaust
/// the budget are quarantined in the summary's degraded-mode columns.
/// The assembled output, summary, and trace exports are byte-identical
/// between an uninterrupted run and any kill+resume split of it.
///
/// The cells share one [`AutonumaRuns`] store, so each distinct AutoNUMA
/// run is simulated once per call. A resumed cell that finds a run
/// missing (its producer was replayed from the journal) simulates it
/// itself; determinism makes its payload the same bytes.
///
/// # Errors
///
/// [`JournalError`] on I/O failure, a journal recorded under a different
/// experiment fingerprint, or a corrupt journal.
///
/// # Panics
///
/// Raises [`tiersim_core::sweep::SweepAbort`] when an armed kill-point
/// with [`KillMode::Panic`] fires ([`KillMode::Exit`] terminates the
/// process instead).
pub fn run_suite_journaled(
    experiment: &ExperimentConfig,
    journal: &Path,
    opts: RunnerOptions,
    inject_failure: bool,
) -> Result<ExperimentSuite, JournalError> {
    let cells = suite_cells(experiment, inject_failure);
    let outcome = run_journaled(journal, &experiment.fingerprint(), cells, opts)?;
    let mut suite = assemble(experiment.jobs, &outcome.cells);
    suite.set_cell_stats(outcome.stats);
    Ok(suite)
}

/// `repro_all dump`: writes the paper artifact's trace files for every
/// paper workload's AutoNUMA run into `<workload>/autonuma/` under the
/// working directory — `memory_trace.csv`, `mmap_trace.csv`,
/// `munmap_trace.csv`, `perfmem_trace_mapped_DRAM.csv` and
/// `perfmem_trace_mapped_PMEM.csv`, the outputs of the artifact's
/// `start_post_process.sh` + `start_mapping.sh` pipeline and the inputs
/// of its plotting scripts (Figure 7 reads the mmap/munmap traces,
/// Figure 8 the PMEM trace).
///
/// Takes the suite's flags (everything after the `dump` token) and
/// returns the process exit code: 0 on success, 1 if a run or a file
/// write fails, 2 on bad arguments.
pub fn run_dump_cli(args: impl IntoIterator<Item = String>) -> i32 {
    let cli = match Cli::parse(args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    banner("trace dump (artifact CSV layout)", &cli);
    for kernel in Kernel::PAPER {
        for dataset in Dataset::ALL {
            let w = cli.experiment.workload(kernel, dataset);
            if let Err(e) = dump_workload(&cli.experiment, w) {
                eprintln!("dump {}: {e}", w.name());
                return 1;
            }
        }
    }
    0
}

/// Runs `w` under AutoNUMA and writes its five artifact CSVs.
fn dump_workload(cfg: &ExperimentConfig, w: WorkloadConfig) -> Result<(), String> {
    let r = cfg.run(w, TieringMode::AutoNuma).map_err(|e| e.to_string())?;
    let dir = PathBuf::from(w.name()).join("autonuma");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let write = |name: &str, csv: &dyn Fn(&mut Vec<u8>) -> std::io::Result<()>| {
        let path = dir.join(name);
        let mut bytes = Vec::new();
        csv(&mut bytes)
            .and_then(|()| atomic_write(&path, &bytes))
            .map_err(|e| format!("write {}: {e}", path.display()))
    };
    write("memory_trace.csv", &|b| export::write_memory_trace(b, &r.samples))?;
    write("mmap_trace.csv", &|b| export::write_mmap_trace(b, &r.tracker))?;
    write("munmap_trace.csv", &|b| export::write_munmap_trace(b, &r.tracker))?;
    write("perfmem_trace_mapped_DRAM.csv", &|b| {
        export::write_mapped_trace(b, &r.samples, &r.tracker, Tier::Dram)
    })?;
    write("perfmem_trace_mapped_PMEM.csv", &|b| {
        export::write_mapped_trace(b, &r.samples, &r.tracker, Tier::Nvm)
    })?;
    println!(
        "{}: {} samples, {} allocations -> {}/",
        w.name(),
        r.samples.len(),
        r.tracker.len(),
        dir.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_no_args() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.experiment, ExperimentConfig::default());
        assert!(cli.out.is_none());
        assert!(cli.resume.is_none());
        assert!(cli.kill_at.is_none());
        assert_eq!(cli.max_attempts, 3);
    }

    #[test]
    fn parses_all_flags() {
        let cli =
            parse(&["--scale", "14", "--degree", "8", "--trials", "2", "--out", "/tmp/x.txt"])
                .unwrap();
        assert_eq!(cli.experiment.scale, 14);
        assert_eq!(cli.experiment.degree, 8);
        assert_eq!(cli.experiment.trials, 2);
        assert_eq!(cli.out.as_deref(), Some(std::path::Path::new("/tmp/x.txt")));
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
        assert_eq!(on.trace_out.as_deref(), Some(std::path::Path::new("/tmp/t.jsonl")));
        assert_eq!(on.experiment.trace, TraceConfig::on());
        assert!(parse(&["--trace"]).is_err());
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
        assert_eq!(cli.resume.as_deref(), Some(std::path::Path::new("/tmp/j.jsonl")));
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
    fn suite_carries_jobs_knob() {
        assert_eq!(ExperimentSuite::new().jobs(), tiersim_core::sweep::default_jobs());
        assert_eq!(ExperimentSuite::new().with_jobs(3).jobs(), 3);
        assert_eq!(ExperimentSuite::new().with_jobs(0).jobs(), 1, "clamped to at least one worker");
    }

    fn cell(
        name: &str,
        run: impl Fn() -> Result<String, CellError> + Send + Sync + 'static,
    ) -> JournalCell {
        JournalCell { name: name.to_string(), run: Box::new(run) }
    }

    fn error(message: &str) -> CellError {
        CellError { class: FailureClass::Error, message: message.to_string() }
    }

    #[test]
    fn suite_continues_past_failures_and_reports() {
        let cells = vec![
            cell("first", || Ok(encode_payload(&[("one".to_string(), "1\n".to_string())]))),
            cell("second", || Err(error("boom"))),
            cell("third", || Ok(encode_payload(&[("three".to_string(), "3\n".to_string())]))),
        ];
        let suite = assemble(1, &run_unjournaled(&cells));
        assert_eq!(
            suite.output(),
            "--- one ---\n1\n\n--- three ---\n3\n\n",
            "a failure does not stop later cells"
        );
        assert_eq!(suite.failures().len(), 1);
        assert_eq!(suite.exit_code(), 1);
        let s = suite.summary();
        assert_eq!(s, "== 2/3 experiments completed ==\nFAILED second: quarantined: boom\n");
    }

    #[test]
    fn suite_isolates_panics() {
        let cells = vec![cell("exploding", || panic!("unrecoverable fault at 0xdead"))];
        let suite = assemble(1, &run_unjournaled(&cells));
        assert!(suite
            .summary()
            .contains("FAILED exploding: quarantined: unrecoverable fault at 0xdead"));
        assert_eq!(suite.exit_code(), 1);
    }

    #[test]
    fn clean_suite_exits_zero() {
        let mut suite = ExperimentSuite::new();
        suite.note_completed();
        let text = suite.section("t", "body\n");
        assert!(text.starts_with("--- t ---"));
        assert_eq!(suite.exit_code(), 0);
        assert!(suite.summary().contains("1/1 experiments completed"));
        assert!(suite.output().contains("body"));
    }

    #[test]
    fn summary_reports_degraded_mode_columns_when_journaled() {
        let mut suite = ExperimentSuite::new();
        assert!(!suite.summary().contains("cells:"), "no cell line without journal stats");
        suite.note_completed();
        suite.note_quarantined("stuck one", "quarantined: cell stuck".to_string());
        suite.set_cell_stats(JournalStats {
            completed: 1,
            retried: 0,
            quarantined: 1,
            executed: 4,
            replayed: 0,
        });
        let s = suite.summary();
        assert!(s.contains("1/2 experiments completed"), "{s}");
        assert!(s.contains("cells: 1 completed, 0 retried, 1 quarantined"), "{s}");
        assert!(s.contains("FAILED stuck one: quarantined: cell stuck"), "{s}");
        assert_eq!(suite.exit_code(), 1);
    }

    #[test]
    fn payload_codec_roundtrips_sections() {
        let sections = vec![
            ("Table 1".to_string(), "a,b\n1,2\n".to_string()),
            (TRACE_JSONL_SECTION.to_string(), "{\"t\":1}\n".to_string()),
            ("Figure 3".to_string(), "multi\nline body\n".to_string()),
        ];
        let payload = encode_payload(&sections);
        let decoded = decode_payload(&payload);
        assert_eq!(decoded.len(), 3);
        for ((t, b), (dt, db)) in sections.iter().zip(&decoded) {
            assert_eq!((t.as_str(), b.as_str()), (*dt, *db));
        }
        assert!(decode_payload("").is_empty());
    }

    #[test]
    fn cell_error_classifies_stuck_separately() {
        let stuck = cell_error(CoreError::Run(RunError::Stuck { ticks: 5, budget: 2 }));
        assert_eq!(stuck.class, FailureClass::Stuck);
        assert!(stuck.message.contains("stuck"));
        let plain = cell_error(injected_failure());
        assert_eq!(plain.class, FailureClass::Error);
    }
}
