//! `tiersim-tune`: crash-safe successive-halving search over the three
//! paper knobs (DESIGN.md §16).
//!
//! The search seeds a grid of knob multipliers ([`GridSpec`]), then runs
//! deterministic successive halving: every rung runs the surviving
//! configurations under a *simulated-tick* budget (never wall clock),
//! ranks them on completion ticks and promotion traffic with seeded
//! tie-breaks, keeps the top half, and doubles the budget. The
//! finalists are re-run under the PR 2 fault-injection plan to score
//! robustness, and the report carries the Pareto front over
//! (ticks, promotion bytes, degraded-mode events).
//!
//! Every cell is journaled through one [`crate::journal::Journal`]
//! session: cell names embed the rung and budget, so a `kill -9` at any
//! point resumes without re-running a single completed cell, and the
//! final report bytes are identical to an uninterrupted run's — the same
//! contract the sweep runner proves, over every rung and the robustness
//! phase.

mod grid;
mod pareto;
mod report;
mod score;

pub use grid::{GridSpec, KnobPoint, Mult};
pub use pareto::{front_indices, Objectives};
pub use report::{CellRow, RungSummary, TuneReport};
pub use score::{CellScore, RobustScore};

use crate::experiments::ExperimentConfig;
use crate::journal::codec::fnv1a64;
use crate::journal::{CellOutcome, Journal, JournalCell, JournalError, RunnerOptions};
use crate::workload::{Dataset, Kernel};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use tiersim_mem::{FaultPlan, RATE_ONE};
use tiersim_policy::TieringMode;
use tiersim_trace::{TraceConfig, TraceEvent, TraceLog, TraceState};

/// Everything that shapes one tuner search (and its fingerprint).
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// The testbed: machine sizing, trials, sampling — shared with every
    /// other experiment.
    pub experiment: ExperimentConfig,
    /// Workload kernel under tuning.
    pub kernel: Kernel,
    /// Workload dataset under tuning.
    pub dataset: Dataset,
    /// The seeding grid.
    pub grid: GridSpec,
    /// Rung-0 tick budget; doubles every rung. Must be nonzero.
    pub rung_budget: u64,
    /// Survivor count at which halving stops and the robustness phase
    /// begins (clamped to at least 1).
    pub finalists: usize,
    /// Seed for ranking tie-breaks and the robustness fault plan.
    pub seed: u64,
}

impl TuneConfig {
    /// A search over `kernel`/`dataset` with smoke-test defaults: the
    /// tiny grid, four finalists, seed 42.
    #[must_use]
    pub fn new(experiment: ExperimentConfig, kernel: Kernel, dataset: Dataset) -> TuneConfig {
        TuneConfig {
            experiment,
            kernel,
            dataset,
            grid: GridSpec::Tiny,
            rung_budget: 2000,
            finalists: 4,
            seed: 42,
        }
    }

    /// The journal fingerprint: every input that shapes cell payloads.
    /// Like [`ExperimentConfig::fingerprint`] it excludes `jobs`.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!(
            "tune;{};workload={};grid={};rung_budget={};finalists={};seed={}",
            self.experiment.fingerprint(),
            self.experiment.workload(self.kernel, self.dataset).name(),
            self.grid.name(),
            self.rung_budget,
            self.finalists.max(1),
            self.seed
        )
    }
}

/// Errors from [`run_tune`].
#[derive(Debug)]
pub enum TuneError {
    /// The journal layer failed (I/O, fingerprint mismatch, corruption).
    Journal(JournalError),
    /// A tuner parameter was rejected.
    Invalid {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        got: String,
    },
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Journal(e) => write!(f, "tune journal: {e}"),
            TuneError::Invalid { what, got } => {
                write!(f, "invalid tune parameter: {what} (got {got})")
            }
        }
    }
}

impl std::error::Error for TuneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TuneError::Journal(e) => Some(e),
            TuneError::Invalid { .. } => None,
        }
    }
}

impl From<JournalError> for TuneError {
    fn from(e: JournalError) -> Self {
        TuneError::Journal(e)
    }
}

/// The result of one tuner search.
#[derive(Debug)]
pub struct TuneOutcome {
    /// The deterministic Pareto report.
    pub report: TuneReport,
    /// The driver's lifecycle trace (`rung_start`/`cell_scored`/
    /// `pareto_update`), for `--trace` export.
    pub trace: TraceLog,
    /// Cell executions performed this session (session-relative: smaller
    /// after a resume).
    pub executed: u64,
    /// Cell payloads replayed from the journal this session.
    pub replayed: u64,
}

/// Seeded rank tie-break: stuck ties and exact score ties order by this
/// hash, so reshuffling the seed perturbs survivor selection without
/// touching any score.
fn tie_break(seed: u64, key: &str) -> u64 {
    fnv1a64(format!("{seed}:{key}").as_bytes())
}

/// Rejects a zero rung budget: the first rung would stop every cell at
/// once.
fn check_budget(cfg: &TuneConfig) -> Result<(), TuneError> {
    if cfg.rung_budget == 0 {
        return Err(TuneError::Invalid { what: "rung_budget", got: "0 ticks".to_string() });
    }
    Ok(())
}

/// The robustness phase's fault plan: moderate transient failure rates
/// on all three injection sites, armed for the whole run.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        dram_alloc_fail_per_64k: RATE_ONE / 64,
        migrate_busy_per_64k: RATE_ONE / 64,
        reclaim_stall_per_64k: RATE_ONE / 64,
        reclaim_stall_cycles: 20_000,
        ..FaultPlan::none()
    }
}

/// Runs the full search against the journal at `journal`: create it if
/// absent, resume it if present (same fingerprint required). The journal
/// is opened once, and every rung and the robustness phase run in that
/// one session ([`run_tune_in`]).
///
/// `opts.kill` arms the session's writer (`--kill-at N` dies at the
/// session's Nth append).
///
/// # Errors
///
/// [`TuneError::Invalid`] on a zero `rung_budget`, before the journal is
/// opened; [`TuneError::Journal`] on journal I/O, fingerprint mismatch or
/// corruption.
///
/// # Panics
///
/// Raises [`crate::sweep::SweepAbort`] when an armed
/// [`KillMode::Panic`](crate::journal::KillMode) kill-point fires, like
/// the journal runner it wraps.
pub fn run_tune(
    cfg: &TuneConfig,
    journal: &Path,
    opts: RunnerOptions,
) -> Result<TuneOutcome, TuneError> {
    check_budget(cfg)?;
    let session = Journal::open(journal, &cfg.fingerprint(), opts.kill)?;
    run_tune_in(cfg, &session, opts)
}

/// Runs the full search in `session`: every rung and the robustness
/// phase. A [`Journal::without_file`] session runs every cell; a
/// journal's session replays the cells it completed before.
///
/// `opts.jobs` is honored; `max_attempts` is pinned to 1 because every
/// cell is deterministic — a failure would repeat identically, and a
/// stuck verdict is a score, not a failure.
///
/// # Errors
///
/// [`TuneError::Invalid`] on a zero `rung_budget`;
/// [`TuneError::Journal`] on a journal append that fails.
///
/// # Panics
///
/// As [`run_tune`], when the session's writer was armed with a
/// [`KillMode::Panic`](crate::journal::KillMode) kill-point.
pub fn run_tune_in(
    cfg: &TuneConfig,
    session: &Journal,
    opts: RunnerOptions,
) -> Result<TuneOutcome, TuneError> {
    check_budget(cfg)?;
    let finalist_target = cfg.finalists.max(1);
    let workload = cfg.experiment.workload(cfg.kernel, cfg.dataset);
    let base = cfg.experiment.machine(TieringMode::AutoNuma);
    let points = cfg.grid.points();
    let mut trace = TraceState::new(TraceConfig::on());
    let opts = RunnerOptions { max_attempts: 1, ..opts };
    let (mut executed, mut replayed) = (0u64, 0u64);

    let mut active: Vec<usize> = (0..points.len()).collect();
    let mut budget = cfg.rung_budget;
    let mut rung: u64 = 0;
    let mut rungs: Vec<RungSummary> = Vec::new();
    let mut default_score: Option<(u64, u64)> = None;
    // Points that finished the previous rung. Only the watchdog reads the
    // tick budget, so a larger budget cannot change a finished score (see
    // `CellScore::Finished`): those cells carry the score over instead of
    // simulating again, and still journal it under their own name.
    let mut carried: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    let final_active: Vec<usize>;
    let final_scores: BTreeMap<usize, (u64, u64)>;

    loop {
        trace.set_now(rung);
        trace.record(TraceEvent::RungStart {
            rung,
            cells: active.len() as u64,
            budget_ticks: budget,
        });
        let mut cells: Vec<JournalCell> = Vec::with_capacity(active.len());
        let mut cell_points: Vec<usize> = Vec::with_capacity(active.len());
        for &idx in &active {
            let Some(point) = points.get(idx).copied() else { continue };
            let mut machine = point.apply(&base);
            machine.tick_budget = budget;
            let w = workload;
            let finished = carried
                .get(&idx)
                .map(|&(ticks, promo_bytes)| CellScore::Finished { ticks, promo_bytes }.encode());
            cells.push(JournalCell {
                name: format!("r{rung}:b{budget}:{}", point.key()),
                run: Box::new(move || match &finished {
                    Some(payload) => Ok(payload.clone()),
                    None => score::run_score_cell(&machine, &w),
                }),
            });
            cell_points.push(idx);
        }
        let out = session.run(cells, opts)?;
        executed += out.stats.executed;
        replayed += out.stats.replayed;

        let mut finished: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        let mut stuck: Vec<usize> = Vec::new();
        let mut quarantined = 0u64;
        for (&idx, (_name, outcome)) in cell_points.iter().zip(out.cells.iter()) {
            match outcome {
                CellOutcome::Completed { payload, .. } => match CellScore::decode(payload) {
                    Some(CellScore::Finished { ticks, promo_bytes }) => {
                        trace.record(TraceEvent::CellScored {
                            cell: idx as u64,
                            ticks,
                            promo_bytes,
                        });
                        finished.insert(idx, (ticks, promo_bytes));
                        if points.get(idx).is_some_and(|p| p.is_default()) {
                            default_score = Some((ticks, promo_bytes));
                        }
                    }
                    Some(CellScore::Stuck { .. }) => stuck.push(idx),
                    // A payload this codec never wrote: a foreign or
                    // corrupt journal entry. Count it with the losses.
                    None => quarantined += 1,
                },
                CellOutcome::Quarantined { .. } => quarantined += 1,
            }
        }
        rungs.push(RungSummary {
            rung,
            cells: cell_points.len() as u64,
            budget_ticks: budget,
            finished: finished.len() as u64,
            stuck: stuck.len() as u64,
            quarantined,
        });

        // Rank: finished by (ticks, promotion bytes), then stuck; exact
        // ties break on the seeded hash, then the point index.
        let mut ranked: Vec<(u64, u64, u64, u64, usize)> = Vec::with_capacity(cell_points.len());
        for &idx in &cell_points {
            let key = points.get(idx).map(|p| p.key()).unwrap_or_default();
            let tie = tie_break(cfg.seed, &key);
            if let Some(&(ticks, promo)) = finished.get(&idx) {
                ranked.push((0, ticks, promo, tie, idx));
            } else if stuck.contains(&idx) {
                ranked.push((1, 0, 0, tie, idx));
            }
        }
        ranked.sort_unstable();

        if active.len() <= finalist_target {
            // Final rung: only finished configurations graduate.
            final_active = ranked.iter().filter(|r| r.0 == 0).map(|r| r.4).collect();
            final_scores = finished;
            break;
        }
        let keep = active.len().div_ceil(2).min(ranked.len());
        if keep == 0 {
            final_active = Vec::new();
            final_scores = finished;
            break;
        }
        let mut survivors: Vec<usize> = ranked.iter().take(keep).map(|r| r.4).collect();
        survivors.sort_unstable();
        active = survivors;
        carried = finished;
        budget = budget.saturating_mul(2);
        rung += 1;
    }

    // Robustness phase: finalists re-run under the seeded fault plan,
    // with single-attempt migrations so EBUSY injections surface as
    // pgmigrate_fail, and doubled budget headroom for the fault costs.
    trace.set_now(rung.saturating_add(1));
    let robust_budget = budget.saturating_mul(2);
    let fault = fault_plan(cfg.seed);
    let mut robust_cells: Vec<JournalCell> = Vec::with_capacity(final_active.len());
    let mut robust_points: Vec<usize> = Vec::with_capacity(final_active.len());
    for &idx in &final_active {
        let Some(point) = points.get(idx).copied() else { continue };
        let mut machine = point.apply(&base);
        machine.tick_budget = robust_budget;
        machine.mem.fault = fault;
        machine.os.migrate_max_retries = 1;
        let w = workload;
        robust_cells.push(JournalCell {
            name: format!("robust:{}", point.key()),
            run: Box::new(move || score::run_robust_cell(&machine, &w)),
        });
        robust_points.push(idx);
    }
    let mut robust: BTreeMap<usize, u64> = BTreeMap::new();
    if !robust_cells.is_empty() {
        let out = session.run(robust_cells, opts)?;
        executed += out.stats.executed;
        replayed += out.stats.replayed;
        for (&idx, (_name, outcome)) in robust_points.iter().zip(out.cells.iter()) {
            if let CellOutcome::Completed { payload, .. } = outcome {
                if let Some(RobustScore::Finished { degraded, .. }) = RobustScore::decode(payload) {
                    robust.insert(idx, degraded);
                }
            }
        }
    }

    // Assemble finalist rows (ranked order) and the Pareto front over
    // everything with a full objective vector.
    let mut rows: Vec<CellRow> = Vec::with_capacity(final_active.len());
    let mut row_points: Vec<usize> = Vec::with_capacity(final_active.len());
    for &idx in &final_active {
        let Some(point) = points.get(idx).copied() else { continue };
        let Some(&(ticks, promo_bytes)) = final_scores.get(&idx) else { continue };
        let applied = point.apply(&base);
        let beats_default = default_score.is_some_and(|(dt, dp)| {
            ticks <= dt && promo_bytes <= dp && (ticks < dt || promo_bytes < dp)
        });
        rows.push(CellRow {
            key: point.key(),
            hot_threshold_cycles: applied.os.hot_threshold_cycles,
            scan_period_cycles: applied.os.scan_period_cycles,
            promo_rate_bytes_per_sec: applied.os.promo_rate_limit_bytes_per_sec,
            ticks,
            promo_bytes,
            degraded: robust.get(&idx).copied(),
            on_front: false,
            beats_default,
        });
        row_points.push(idx);
    }
    let eligible: Vec<usize> =
        rows.iter().enumerate().filter(|(_, r)| r.degraded.is_some()).map(|(i, _)| i).collect();
    let objs: Vec<Objectives> = eligible
        .iter()
        .filter_map(|&i| rows.get(i))
        .map(|r| Objectives {
            ticks: r.ticks,
            promo_bytes: r.promo_bytes,
            degraded: r.degraded.unwrap_or(0),
        })
        .collect();
    let mut front_size = 0u64;
    for &oi in &front_indices(&objs) {
        let Some(&row_i) = eligible.get(oi) else { continue };
        let Some(row) = rows.get_mut(row_i) else { continue };
        row.on_front = true;
        front_size += 1;
        let cell = row_points.get(row_i).copied().unwrap_or(0) as u64;
        trace.record(TraceEvent::ParetoUpdate { cell, front: front_size });
    }

    let report = TuneReport {
        workload: workload.name(),
        grid: cfg.grid.name().to_string(),
        seed: cfg.seed,
        rung_budget: cfg.rung_budget,
        rungs,
        default_score,
        finalists: rows,
    };
    Ok(TuneOutcome { report, trace: trace.log(), executed, replayed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_finished_point_is_simulated_once_across_rungs() {
        let experiment =
            ExperimentConfig { scale: 10, degree: 8, trials: 1, jobs: 1, ..Default::default() };
        let cfg =
            TuneConfig { finalists: 2, ..TuneConfig::new(experiment, Kernel::Bc, Dataset::Kron) };
        let path =
            std::env::temp_dir().join(format!("tiersim-tune-carry-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // Jobs 1 runs every cell on this thread, where the counter lives.
        score::SCORE_RUNS.with(|n| n.set(0));
        let out = run_tune(&cfg, &path, RunnerOptions::default()).unwrap();
        let simulated = score::SCORE_RUNS.with(std::cell::Cell::get);
        std::fs::remove_file(&path).unwrap();

        let rungs = &out.report.rungs;
        let cells: u64 = rungs.iter().map(|r| r.cells).sum();
        // Survivors rank finished-first, so a later rung re-simulates only
        // the survivors that were stuck in the rung before it.
        let stuck_survivors: u64 =
            rungs.windows(2).map(|p| p[1].cells - p[0].finished.min(p[1].cells)).sum();
        assert_eq!(simulated, rungs[0].cells + stuck_survivors);
        assert!(simulated < cells, "{simulated} simulations for {cells} score cells");
        // Every cell still goes through the journal.
        assert_eq!(out.executed, cells + out.report.finalists.len() as u64);
    }
}
