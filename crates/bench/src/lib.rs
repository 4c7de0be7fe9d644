//! # tiersim-bench — reproduction harness
//!
//! One front end, `repro_all`, prints every paper table and figure as a
//! named section, from one shared store of simulations
//! ([`run_repro_suite`]). Its subcommands write the paper artifact's
//! per-workload trace CSVs (`repro_all dump`), run the knob auto-tuner
//! (`repro_all tune`, DESIGN.md §16) and print the DESIGN.md §5
//! ablations and the extension experiments as tables of simulated time
//! and counters (`repro_all ablate`, [`run_ablate`]). [`repro_all`] is the
//! whole command line: one [`Cli`], parsed from one flag table, and one
//! dispatch.
//!
//! Which command honours which flag (✓). Every other pair exits 2 before
//! any simulation or file write, and `repro_all [COMMAND] --help` lists
//! the flags of one command.
//!
//! | flag | suite | `dump` | `ablate` | `tune` |
//! |---|---|---|---|---|
//! | `--scale` `--degree` `--trials` `--jobs` | ✓ | ✓ | ✓ | ✓ |
//! | `--tick-budget` `--thp` | ✓ | ✓ | ✓ | |
//! | `--out` | ✓ | | ✓ | |
//! | `--trace` `--resume` `--kill-at` | ✓ | | | ✓ |
//! | `--inject-failure` `--max-attempts` | ✓ | | | |
//! | `--workload` `--grid` `--rung-budget` `--finalists` `--seed` `--out-json` `--out-csv` | | | | ✓ |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ablate;
mod cli;

pub use ablate::run_ablate;
pub use cli::{Cli, Command};

use std::path::{Path, PathBuf};
use std::sync::{Arc, Once};
use tiersim_core::experiments::{
    AutonumaTrace, Characterization, Comparison, ObjectAnalysis, Runs,
};
use tiersim_core::journal::{
    atomic_write, run_journaled, CellError, CellOutcome, FailureClass, Journal, JournalCell,
    JournalError, JournalStats, RunnerOptions,
};
use tiersim_core::tune::run_tune;
use tiersim_core::{CoreError, ExperimentConfig, RunError, RunReport, TraceLog, WorkloadConfig};
use tiersim_mem::Tier;
use tiersim_profile::export;

/// Runs `repro_all` on `args` (without the program name) and returns the
/// process exit code: 0 on success, 1 if a run, a cell or a file write
/// failed, 2 on bad arguments (before any simulation or file write), and
/// 137 from an armed `--kill-at`, which exits the process itself.
pub fn repro_all(args: impl IntoIterator<Item = String>) -> i32 {
    let cli = match Cli::parse(args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    quiet_run_errors();
    let finished = match cli.command {
        Command::Suite => suite(&cli),
        Command::Dump => dump(&cli),
        Command::Ablate => ablate(&cli),
        Command::Tune => tune(&cli),
    };
    let written = finished.and_then(|(code, files)| {
        for (path, text) in files {
            let failed = |e| format!("failed to write {}: {e}", path.display());
            atomic_write(&path, text.as_bytes()).map_err(failed)?;
            eprintln!("wrote {}", path.display());
        }
        Ok(code)
    });
    written.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        1
    })
}

/// A command's exit code and the files its flags ask for, as
/// `(path, contents)` in writing order; `Err` is a message and exit 1.
type Finished = Result<(i32, Vec<(PathBuf, String)>), String>;

/// Keeps panics with a [`RunError`] payload off the default panic hook,
/// once per process. The runs raise them on purpose (a budget-exceeded
/// cell panics with `RunError::Stuck`), the sweep lanes catch them and
/// record a typed failure, so the hook's message would only be noise.
/// Every other payload still reaches the default hook untouched.
fn quiet_run_errors() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<RunError>().is_none() {
                default_hook(info);
            }
        }));
    });
}

/// Prints the experiment banner on stdout and the worker count on
/// stderr, which keeps stdout byte-identical across `--jobs` values and
/// kill/resume splits.
fn banner(what: &str, cli: &Cli) {
    let e = &cli.experiment;
    println!("== {what} (scale {}, degree {}, trials {}) ==", e.scale, e.degree, e.trials);
    eprintln!("jobs: {}", e.jobs);
}

/// The `--out` file of a suite-shaped command: its printed sections.
fn out_file(cli: &Cli, suite: &ExperimentSuite) -> Vec<(PathBuf, String)> {
    cli.out.iter().map(|path| (path.clone(), suite.output().to_string())).collect()
}

/// The `--trace` file: JSONL, or CSV when the path ends in `.csv`.
fn trace_file(path: &Path, exports: &TraceExports) -> (PathBuf, String) {
    let csv = path.extension().is_some_and(|e| e == "csv");
    (path.to_path_buf(), if csv { exports.csv.clone() } else { exports.jsonl.clone() })
}

/// The reproduction suite, journaled under `--resume`.
fn suite(cli: &Cli) -> Finished {
    banner("full paper reproduction", cli);
    let opts = cli.runner_options();
    let suite = match &cli.resume {
        Some(journal) => run_suite_journaled(&cli.experiment, journal, opts, cli.inject_failure),
        None => run_repro_suite(&cli.experiment, opts, cli.inject_failure),
    }
    .map_err(|e| format!("journal error: {e}"))?;
    print!("{}", suite.summary());
    if let Some(stats) = suite.cell_stats() {
        // Session-relative counters are stderr-only; the recovery tests
        // read them to prove completed cells never re-run.
        eprintln!("journal: {} cells executed, {} replayed", stats.executed, stats.replayed);
    }
    let mut code = suite.exit_code();
    let mut files = out_file(cli, &suite);
    if let Some(path) = &cli.trace_out {
        match suite.trace_exports() {
            Some(exports) => files.push(trace_file(path, exports)),
            None => {
                eprintln!("--trace given but no trace was recorded (traced experiment failed?)");
                code = 1;
            }
        }
    }
    Ok((code, files))
}

/// `repro_all ablate`: every ablation and extension section.
fn ablate(cli: &Cli) -> Finished {
    banner("ablations and extensions", cli);
    let suite = run_ablate(&cli.experiment).map_err(|e| format!("journal error: {e}"))?;
    print!("{}", suite.summary());
    Ok((suite.exit_code(), out_file(cli, &suite)))
}

/// `repro_all tune`: one crash-safe search against its journal; stdout
/// carries only the deterministic report, session-relative counts go to
/// stderr.
fn tune(cli: &Cli) -> Finished {
    let cfg = &cli.tune;
    let journal = cli.resume.as_deref().ok_or("tune needs a journal")?;
    eprintln!(
        "tune: {} on {} grid, journal {}, jobs {}",
        cfg.experiment.workload(cfg.kernel, cfg.dataset).name(),
        cfg.grid.name(),
        journal.display(),
        cfg.experiment.jobs
    );
    let outcome =
        run_tune(cfg, journal, cli.runner_options()).map_err(|e| format!("tune error: {e}"))?;
    print!("{}", outcome.report.render());
    eprintln!("journal: {} cells executed, {} replayed", outcome.executed, outcome.replayed);
    let report = &outcome.report;
    let json = cli.out_json.iter().map(|path| (path.clone(), report.to_json() + "\n"));
    let csv = cli.out_csv.iter().map(|path| (path.clone(), report.to_csv()));
    let trace =
        cli.trace_out.iter().map(|p| trace_file(p, &TraceExports::from_log(&outcome.trace)));
    Ok((0, json.chain(csv).chain(trace).collect()))
}

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

/// Rendered `(title, body)` pairs for one experiment's sections.
type Sections = Vec<(String, String)>;

/// Runs the characterization experiment and renders Tables 1–3 and
/// Figures 3–5.
///
/// # Errors
///
/// The first failing AutoNUMA run's error.
pub fn characterization_sections(runs: &Runs) -> Result<Sections, CoreError> {
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
pub fn object_analysis_sections(runs: &Runs) -> Result<Sections, CoreError> {
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
pub fn autonuma_trace_sections(runs: &Runs) -> Result<(Sections, Option<TraceLog>), CoreError> {
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
pub fn comparison_sections(runs: &Runs) -> Result<Sections, CoreError> {
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
/// [`Runs`] store, so each distinct simulation is run once per suite. A cell's payload is its encoded sections; the traced
/// run's exports ride along as reserved sections, so a resumed suite
/// reproduces `--trace` output from the journal alone.
fn suite_cells(experiment: &ExperimentConfig, inject_failure: bool) -> Vec<JournalCell> {
    type Experiment = fn(&Runs) -> Result<Sections, CoreError>;
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
    let runs = Arc::new(Runs::new(experiment));
    for (name, sections) in experiments {
        let runs = Arc::clone(&runs);
        cells.push(JournalCell {
            name: name.to_string(),
            run: Box::new(move || sections(&runs).map(|s| encode_payload(&s)).map_err(cell_error)),
        });
    }
    cells
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

/// Runs the full `repro_all` experiment suite without a journal: the
/// suite's cells run on a file-less [`Journal`], under the same attempt
/// rule as [`run_suite_journaled`] — a failed cell retries up to
/// `opts.max_attempts` times, then is quarantined, and one failure never
/// kills the rest. The summary carries no `cells:` line.
///
/// Sections print to stdout once the suite finishes and accumulate in the
/// returned suite ([`ExperimentSuite::output`]). The recorded bytes are
/// identical for every `experiment.jobs` value — the byte-identity test
/// in `tests/parallel_sweep.rs` holds this function to that contract.
///
/// # Errors
///
/// [`JournalError::DuplicateCell`] if two cells shared a name, which the
/// suite's distinct experiment names rule out.
pub fn run_repro_suite(
    experiment: &ExperimentConfig,
    opts: RunnerOptions,
    inject_failure: bool,
) -> Result<ExperimentSuite, JournalError> {
    let outcome = Journal::without_file().run(suite_cells(experiment, inject_failure), opts)?;
    Ok(assemble(experiment.jobs, &outcome.cells))
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
/// The cells share one [`Runs`] store, so each distinct simulation is
/// run once per call. A resumed cell that finds a run missing (its
/// producer was replayed from the journal) simulates it itself;
/// determinism makes its payload the same bytes.
///
/// # Errors
///
/// [`JournalError`] on I/O failure, a journal recorded under a different
/// experiment fingerprint, or a corrupt journal.
///
/// # Panics
///
/// Raises [`tiersim_core::sweep::SweepAbort`] when an armed kill-point
/// with [`KillMode::Panic`](tiersim_core::journal::KillMode::Panic) fires
/// ([`KillMode::Exit`](tiersim_core::journal::KillMode::Exit) terminates the
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
/// Figure 8 the PMEM trace). The runs share the suite's store, on
/// `--jobs` workers; the files are written in workload order, up to the
/// first failed run.
fn dump(cli: &Cli) -> Finished {
    banner("trace dump (artifact CSV layout)", cli);
    let e = &cli.experiment;
    let keys: Vec<_> = e.workloads().into_iter().map(|w| e.autonuma(w)).collect();
    for ((_, w), run) in keys.iter().zip(Runs::new(e).get_all(&keys)) {
        run.map_err(|e| e.to_string())
            .and_then(|r| dump_workload(*w, &r))
            .map_err(|e| format!("dump {}: {e}", w.name()))?;
    }
    Ok((0, Vec::new()))
}

/// Writes `w`'s five artifact CSVs from its AutoNUMA run `r`.
fn dump_workload(w: WorkloadConfig, r: &RunReport) -> Result<(), String> {
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

    /// Runs `cells` as the plain suite does: on a file-less journal.
    fn run_plain(cells: Vec<JournalCell>) -> Vec<(String, CellOutcome)> {
        Journal::without_file().run(cells, RunnerOptions::default()).unwrap().cells
    }

    #[test]
    fn suite_continues_past_failures_and_reports() {
        let cells = vec![
            cell("first", || Ok(encode_payload(&[("one".to_string(), "1\n".to_string())]))),
            cell("second", || Err(error("boom"))),
            cell("third", || Ok(encode_payload(&[("three".to_string(), "3\n".to_string())]))),
        ];
        let suite = assemble(1, &run_plain(cells));
        assert_eq!(
            suite.output(),
            "--- one ---\n1\n\n--- three ---\n3\n\n",
            "a failure does not stop later cells"
        );
        assert_eq!(suite.exit_code(), 1);
        let s = suite.summary();
        assert_eq!(s, "== 2/3 experiments completed ==\nFAILED second: quarantined: boom\n");
    }

    #[test]
    fn suite_isolates_panics() {
        let cells = vec![cell("exploding", || panic!("unrecoverable fault at 0xdead"))];
        let suite = assemble(1, &run_plain(cells));
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
