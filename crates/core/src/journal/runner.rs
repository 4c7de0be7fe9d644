//! The journal session and its sweep runner: waves of fallible cells,
//! over a durable write-ahead journal or over none.
//!
//! With a file, each cell appends `start` before executing and `done` right after
//! producing its payload — from the worker thread, so a result is durable
//! the moment it exists. Failures are classified and appended post-wave
//! in cell-index order; cells with remaining attempt budget go into the
//! next wave (bounded, deterministic backoff — a wave *is* the backoff
//! unit), and cells that exhaust it are quarantined. On resume, completed
//! cells come back from the journal without re-executing; everything else
//! runs again.

use super::{replay, CellId, CellState, JournalError, JournalWriter, KillSpec, Record};
use crate::sweep::{run_cells_fallible, CellFailure};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// How a cell failed, as recorded in the journal's `class` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// The cell returned an error.
    Error,
    /// The cell panicked (foreign panic caught by the fallible lane).
    Panic,
    /// The stuck-cell watchdog fired ([`crate::RunError::Stuck`]).
    Stuck,
}

impl FailureClass {
    /// The journal's string encoding of the class.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureClass::Error => "error",
            FailureClass::Panic => "panic",
            FailureClass::Stuck => "stuck",
        }
    }
}

/// A classified cell failure, as the journal records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// Failure class for the journal's `class` field.
    pub class: FailureClass,
    /// Rendered message for the journal's `error` field.
    pub message: String,
}

/// One journaled sweep cell: a unique name plus a *re-callable* body
/// (retries and resume both need to run it again), returning the cell's
/// serialized payload.
pub struct JournalCell {
    /// Unique cell name (hashed with the sweep fingerprint into the
    /// [`CellId`]).
    pub name: String,
    /// The cell body. Must be deterministic: same configuration, same
    /// payload bytes, on every host and attempt.
    pub run: Box<dyn Fn() -> Result<String, CellError> + Send + Sync>,
}

impl std::fmt::Debug for JournalCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalCell").field("name", &self.name).finish_non_exhaustive()
    }
}

/// Knobs for [`Journal::run`] and [`run_journaled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerOptions {
    /// Worker threads for each wave (see [`crate::sweep::run_cells`]).
    pub jobs: usize,
    /// Attempts per cell per session before quarantine (minimum 1).
    pub max_attempts: u64,
    /// Deterministic kill-point injector, for crash-recovery tests and
    /// `repro_all --kill-at`; [`run_journaled`] arms the session's
    /// writer with it.
    pub kill: Option<KillSpec>,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        RunnerOptions { jobs: 1, max_attempts: 3, kill: None }
    }
}

/// Final state of one cell after a journaled sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// The cell has a payload — produced this session or replayed from
    /// the journal.
    Completed {
        /// The cell's serialized result.
        payload: String,
        /// Attempt number that produced the payload.
        attempts: u64,
        /// `true` if the payload came from the journal (the cell was
        /// *not* re-executed this session).
        replayed: bool,
    },
    /// The cell exhausted its attempt budget.
    Quarantined {
        /// The final failure message.
        error: String,
        /// Attempts consumed this session.
        attempts: u64,
    },
}

/// Degraded-mode accounting for a journaled sweep.
///
/// `completed`/`retried`/`quarantined` describe the *final state* and are
/// identical between an uninterrupted run and any kill+resume of it;
/// `executed`/`replayed` describe *this session's work* and are exactly
/// what the recovery tests use to prove completed cells never re-run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Cells with a payload (replayed or executed).
    pub completed: u64,
    /// Completed cells that needed more than one attempt.
    pub retried: u64,
    /// Cells quarantined after exhausting their budget.
    pub quarantined: u64,
    /// Cell executions performed this session (attempts, not cells).
    pub executed: u64,
    /// Cells whose payload was reused from the journal this session.
    pub replayed: u64,
}

/// The result of a journaled sweep.
#[derive(Debug)]
pub struct JournalOutcome {
    /// Per-cell outcomes, in the sweep's input order.
    pub cells: Vec<(String, CellOutcome)>,
    /// Degraded-mode accounting.
    pub stats: JournalStats,
}

/// One command's journal session: the writer (none without a file), the
/// sweep fingerprint, and the cell state replayed once when the session
/// opened. [`Journal::run`] is the one place that decides replay,
/// attempts, waves and quarantine, for every batch the command runs.
///
/// A `--kill-at` kill point counts the writer's appends from the start
/// of the session, across every [`Journal::run`] on it.
#[derive(Debug)]
pub struct Journal {
    fingerprint: String,
    writer: Option<JournalWriter>,
    prior: BTreeMap<CellId, CellState>,
}

impl Journal {
    /// Opens the journal at `path` for one session: creates it (writing
    /// the meta record) if it holds no complete line, else replays it
    /// once, checks its fingerprint and truncates a torn tail before the
    /// session's first append. `kill` arms the session's writer.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on I/O failure, a journal recorded under another
    /// fingerprint, or a corrupt journal.
    ///
    /// # Panics
    ///
    /// Raises [`crate::sweep::SweepAbort`] when `kill` fires at the meta
    /// append of a new journal.
    pub fn open(
        path: &Path,
        fingerprint: &str,
        kill: Option<KillSpec>,
    ) -> Result<Journal, JournalError> {
        // A journal with no complete line (absent, empty, or killed mid-meta)
        // is indistinguishable from "never started": begin fresh.
        let existing = if path.exists() { std::fs::read_to_string(path)? } else { String::new() };
        let (writer, prior) = if existing.contains('\n') {
            let rep = replay(&existing)?;
            if rep.fingerprint != fingerprint {
                return Err(JournalError::FingerprintMismatch {
                    expected: fingerprint.to_string(),
                    found: rep.fingerprint,
                });
            }
            (JournalWriter::resume(path, &rep, kill)?, rep.cells)
        } else {
            (JournalWriter::create(path, fingerprint, kill)?, BTreeMap::new())
        };
        Ok(Journal { fingerprint: fingerprint.to_string(), writer: Some(writer), prior })
    }

    /// A session without a file: it appends nothing and replays nothing,
    /// so every cell runs, under the same attempt and quarantine rules.
    pub fn without_file() -> Journal {
        Journal { fingerprint: String::new(), writer: None, prior: BTreeMap::new() }
    }

    /// Appends `record` when the session has a file.
    fn append(&self, record: impl FnOnce() -> Record) {
        if let Some(writer) = &self.writer {
            writer.append(&record());
        }
    }

    /// Runs `cells` in this session. Cells the journal completed before
    /// the session opened return their payload without re-executing.
    /// Everything else runs in waves on `opts.jobs` workers; a failing
    /// cell retries in the next wave until `opts.max_attempts`, then is
    /// quarantined. The payload bytes are a pure function of the cells —
    /// identical for every `jobs` value and across any kill/resume
    /// split. (`opts.kill` is the writer's, armed at [`Journal::open`].)
    ///
    /// # Errors
    ///
    /// [`JournalError::DuplicateCell`] when two cells share a name,
    /// before any append.
    ///
    /// # Panics
    ///
    /// Raises [`crate::sweep::SweepAbort`] when an armed kill-point fires.
    pub fn run(
        &self,
        cells: Vec<JournalCell>,
        opts: RunnerOptions,
    ) -> Result<JournalOutcome, JournalError> {
        let ids: Vec<CellId> =
            cells.iter().map(|c| CellId::derive(&c.name, &self.fingerprint)).collect();
        let mut seen = BTreeSet::new();
        if let Some(dup) = ids.iter().find(|id| !seen.insert(*id)) {
            return Err(JournalError::DuplicateCell(dup.0.clone()));
        }

        let n = cells.len();
        let max_attempts = opts.max_attempts.max(1);
        let mut outcomes: Vec<Option<CellOutcome>> = (0..n).map(|_| None).collect();
        let mut stats = JournalStats::default();
        // Attempt numbers already consumed, per cell, for journal numbering.
        // A quarantined cell's episode is closed: it re-runs with a fresh
        // budget, its journal attempts simply continuing upward.
        let mut base_attempts = vec![0u64; n];
        let mut pending: Vec<usize> = Vec::new();
        for i in 0..n {
            match self.prior.get(&ids[i]) {
                Some(CellState { payload: Some(payload), done_attempt, .. }) => {
                    stats.replayed += 1;
                    outcomes[i] = Some(CellOutcome::Completed {
                        payload: payload.clone(),
                        attempts: (*done_attempt).max(1),
                        replayed: true,
                    });
                }
                Some(state) => {
                    // Journal attempt numbers continue upward across
                    // sessions, even past a quarantine (the episode closes,
                    // numbering does not reset — every record stays
                    // unambiguous).
                    base_attempts[i] = state.fails;
                    pending.push(i);
                }
                None => pending.push(i),
            }
        }

        let mut wave = 1u64;
        let mut active = pending;
        while !active.is_empty() {
            let wave_cells: Vec<_> = active
                .iter()
                .map(|&i| {
                    let id = &ids[i];
                    let cell = &cells[i];
                    let attempt = base_attempts[i] + wave;
                    move || -> Result<String, CellError> {
                        self.append(|| Record::Start {
                            cell: id.clone(),
                            name: cell.name.clone(),
                            attempt,
                        });
                        let payload = (cell.run)()?;
                        // Durable before the result is even collected: a
                        // crash after this append replays the payload, not
                        // the run.
                        self.append(|| Record::Done {
                            cell: id.clone(),
                            attempt,
                            payload: payload.clone(),
                        });
                        Ok(payload)
                    }
                })
                .collect();
            let results = run_cells_fallible(opts.jobs, wave_cells);
            let mut next = Vec::new();
            for (&i, result) in active.iter().zip(results) {
                let attempt = base_attempts[i] + wave;
                stats.executed += 1;
                let (class, message) = match result {
                    Ok(payload) => {
                        outcomes[i] = Some(CellOutcome::Completed {
                            payload,
                            attempts: attempt,
                            replayed: false,
                        });
                        continue;
                    }
                    Err(CellFailure::Error(e)) => (e.class, e.message),
                    Err(CellFailure::Panic(msg)) => (FailureClass::Panic, msg),
                };
                self.append(|| Record::Fail {
                    cell: ids[i].clone(),
                    attempt,
                    class: class.as_str().to_string(),
                    error: message.clone(),
                });
                if wave < max_attempts {
                    next.push(i);
                } else {
                    self.append(|| Record::Quarantine {
                        cell: ids[i].clone(),
                        attempts: attempt,
                        error: message.clone(),
                    });
                    outcomes[i] =
                        Some(CellOutcome::Quarantined { error: message, attempts: attempt });
                }
            }
            active = next;
            wave += 1;
        }

        let cells_out: Vec<(String, CellOutcome)> = cells
            .iter()
            .zip(outcomes)
            .map(|(cell, outcome)| {
                // Every index is either replayed or assigned by the wave
                // loop above. tiersim-lint: allow(unwrap)
                (cell.name.clone(), outcome.expect("cell has an outcome"))
            })
            .collect();
        for (_, outcome) in &cells_out {
            match outcome {
                CellOutcome::Completed { attempts, .. } => {
                    stats.completed += 1;
                    stats.retried += u64::from(*attempts > 1);
                }
                CellOutcome::Quarantined { .. } => stats.quarantined += 1,
            }
        }
        Ok(JournalOutcome { cells: cells_out, stats })
    }
}

/// Runs `cells` against the journal at `path` in a session of their own:
/// [`Journal::open`] with `opts.kill`, then [`Journal::run`].
///
/// # Errors
///
/// [`JournalError`] on I/O failure, fingerprint mismatch, duplicate cell
/// names, or a corrupt journal.
///
/// # Panics
///
/// Raises [`crate::sweep::SweepAbort`] when an armed kill-point fires.
pub fn run_journaled(
    path: &Path,
    fingerprint: &str,
    cells: Vec<JournalCell>,
    opts: RunnerOptions,
) -> Result<JournalOutcome, JournalError> {
    Journal::open(path, fingerprint, opts.kill)?.run(cells, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::KillMode;
    use crate::sweep::SweepAbort;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    static TEST_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch(tag: &str) -> PathBuf {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("tiersim-jrunner-{}-{tag}-{n}", std::process::id()))
    }

    fn ok_cell(name: &str, payload: &str, counter: &Arc<AtomicU64>) -> JournalCell {
        let payload = payload.to_string();
        let counter = Arc::clone(counter);
        JournalCell {
            name: name.to_string(),
            run: Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                Ok(payload.clone())
            }),
        }
    }

    fn failing_cell(name: &str, class: FailureClass) -> JournalCell {
        JournalCell {
            name: name.to_string(),
            run: Box::new(move || {
                Err(CellError { class, message: format!("always fails ({})", class.as_str()) })
            }),
        }
    }

    /// Fails `fail_times` times, then succeeds.
    fn flaky_cell(name: &str, fail_times: u64, counter: &Arc<AtomicU64>) -> JournalCell {
        let counter = Arc::clone(counter);
        let name_owned = name.to_string();
        JournalCell {
            name: name.to_string(),
            run: Box::new(move || {
                let attempt = counter.fetch_add(1, Ordering::Relaxed) + 1;
                if attempt <= fail_times {
                    Err(CellError {
                        class: FailureClass::Error,
                        message: format!("{name_owned} flake {attempt}"),
                    })
                } else {
                    Ok(format!("{name_owned} payload"))
                }
            }),
        }
    }

    #[test]
    fn clean_sweep_completes_and_is_resumable_as_a_noop() {
        let path = scratch("clean");
        let counters: Vec<Arc<AtomicU64>> = (0..3).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let make = |counters: &[Arc<AtomicU64>]| {
            vec![
                ok_cell("a", "payload-a", &counters[0]),
                ok_cell("b", "payload-b", &counters[1]),
                ok_cell("c", "payload-c", &counters[2]),
            ]
        };
        let out = run_journaled(&path, "fp", make(&counters), RunnerOptions::default()).unwrap();
        assert_eq!(out.stats.completed, 3);
        assert_eq!(out.stats.executed, 3);
        assert_eq!(out.stats.replayed, 0);
        assert_eq!(out.stats.quarantined, 0);
        // Resume over a complete journal: everything replays, nothing runs.
        let again = run_journaled(&path, "fp", make(&counters), RunnerOptions::default()).unwrap();
        assert_eq!(again.stats.replayed, 3);
        assert_eq!(again.stats.executed, 0);
        for c in &counters {
            assert_eq!(c.load(Ordering::Relaxed), 1, "each cell executed exactly once ever");
        }
        let payloads: Vec<&str> = again
            .cells
            .iter()
            .map(|(_, o)| match o {
                CellOutcome::Completed { payload, .. } => payload.as_str(),
                CellOutcome::Quarantined { .. } => "",
            })
            .collect();
        assert_eq!(payloads, ["payload-a", "payload-b", "payload-c"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn panicking_and_failing_cells_are_quarantined_while_others_complete() {
        for jobs in [1, 4] {
            let path = scratch("quarantine");
            let counter = Arc::new(AtomicU64::new(0));
            let cells = vec![
                ok_cell("good-1", "one", &counter),
                failing_cell("always-err", FailureClass::Error),
                JournalCell {
                    name: "panics".to_string(),
                    run: Box::new(|| panic!("cell exploded")),
                },
                failing_cell("stuck-cell", FailureClass::Stuck),
                ok_cell("good-2", "two", &counter),
            ];
            let opts = RunnerOptions { jobs, max_attempts: 2, kill: None };
            let out = run_journaled(&path, "fp", cells, opts).unwrap();
            assert_eq!(out.stats.completed, 2, "jobs={jobs}");
            assert_eq!(out.stats.quarantined, 3);
            // 2 goods × 1 attempt + 3 bads × 2 attempts.
            assert_eq!(out.stats.executed, 8);
            assert!(matches!(out.cells[2].1, CellOutcome::Quarantined { .. }));
            match &out.cells[3].1 {
                CellOutcome::Quarantined { error, attempts } => {
                    assert!(error.contains("stuck"));
                    assert_eq!(*attempts, 2);
                }
                other => panic!("expected quarantine, got {other:?}"),
            }
            // The journal recorded the classes faithfully.
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.contains("\"class\":\"panic\""));
            assert!(text.contains("\"class\":\"error\""));
            assert!(text.contains("\"class\":\"stuck\""));
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn flaky_cell_retries_and_counts_as_retried() {
        let path = scratch("flaky");
        let counter = Arc::new(AtomicU64::new(0));
        let ok = Arc::new(AtomicU64::new(0));
        let cells = vec![flaky_cell("flaky", 1, &counter), ok_cell("solid", "s", &ok)];
        let out = run_journaled(&path, "fp", cells, RunnerOptions::default()).unwrap();
        assert_eq!(out.stats.completed, 2);
        assert_eq!(out.stats.retried, 1);
        assert_eq!(out.stats.quarantined, 0);
        assert_eq!(counter.load(Ordering::Relaxed), 2);
        match &out.cells[0].1 {
            CellOutcome::Completed { attempts, .. } => assert_eq!(*attempts, 2),
            other => panic!("expected completion, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kill_and_resume_never_reexecutes_completed_cells() {
        // Serial execution appends deterministically: meta, then per cell
        // start+done. Kill at every append index and check the invariant.
        let total_appends = 1 + 2 * 4; // meta + 4 cells × (start, done)
        for kill_at in 1..=total_appends {
            let path = scratch(&format!("killsweep-{kill_at}"));
            let counters: Vec<Arc<AtomicU64>> =
                (0..4).map(|_| Arc::new(AtomicU64::new(0))).collect();
            let make = |counters: &[Arc<AtomicU64>]| {
                (0..4)
                    .map(|i| ok_cell(&format!("cell-{i}"), &format!("p{i}"), &counters[i]))
                    .collect::<Vec<_>>()
            };
            let kill = KillSpec {
                at_append: kill_at as u64,
                torn: kill_at % 2 == 0, // alternate torn and clean kills
                mode: KillMode::Panic,
            };
            let opts = RunnerOptions { jobs: 1, max_attempts: 3, kill: Some(kill) };
            let died = catch_unwind(AssertUnwindSafe(|| {
                run_journaled(&path, "fp", make(&counters), opts)
            }));
            assert!(died.is_err(), "kill_at={kill_at} must abort the run");
            assert!(
                died.unwrap_err().is::<SweepAbort>(),
                "kill_at={kill_at} aborts via SweepAbort"
            );
            // Resume without a kill: the sweep completes.
            let out =
                run_journaled(&path, "fp", make(&counters), RunnerOptions::default()).unwrap();
            assert_eq!(out.stats.completed, 4, "kill_at={kill_at}");
            assert_eq!(out.stats.quarantined, 0);
            assert_eq!(
                out.stats.replayed + out.stats.executed,
                4,
                "kill_at={kill_at}: every cell replayed xor executed"
            );
            let payloads: Vec<String> = out
                .cells
                .iter()
                .map(|(_, o)| match o {
                    CellOutcome::Completed { payload, .. } => payload.clone(),
                    CellOutcome::Quarantined { .. } => String::new(),
                })
                .collect();
            assert_eq!(payloads, ["p0", "p1", "p2", "p3"], "kill_at={kill_at}");
            // The core invariant: a cell whose `done` record landed before
            // the kill is never executed again.
            for (i, c) in counters.iter().enumerate() {
                let execs = c.load(Ordering::Relaxed);
                assert!(
                    (1..=2).contains(&execs),
                    "kill_at={kill_at} cell {i}: executed {execs} times"
                );
            }
            let total_execs: u64 = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
            // At most one cell (the one in flight at the kill) re-executes.
            assert!(total_execs <= 5, "kill_at={kill_at}: {total_execs} executions");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn resume_refuses_a_different_fingerprint() {
        let path = scratch("fp-mismatch");
        let c = Arc::new(AtomicU64::new(0));
        run_journaled(&path, "fp-a", vec![ok_cell("x", "p", &c)], RunnerOptions::default())
            .unwrap();
        let err =
            run_journaled(&path, "fp-b", vec![ok_cell("x", "p", &c)], RunnerOptions::default())
                .unwrap_err();
        assert!(matches!(err, JournalError::FingerprintMismatch { .. }));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_cell_names_are_rejected() {
        let path = scratch("dup");
        let c = Arc::new(AtomicU64::new(0));
        let cells = vec![ok_cell("same", "1", &c), ok_cell("same", "2", &c)];
        let err = run_journaled(&path, "fp", cells, RunnerOptions::default()).unwrap_err();
        assert!(matches!(err, JournalError::DuplicateCell(_)));
        let r = replay(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(r.records, 1, "rejected before any cell record");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn quarantined_cells_rerun_on_resume() {
        let path = scratch("requarantine");
        // First session: the cell always fails -> quarantined.
        let out = run_journaled(
            &path,
            "fp",
            vec![failing_cell("heals", FailureClass::Error)],
            RunnerOptions { jobs: 1, max_attempts: 2, kill: None },
        )
        .unwrap();
        assert_eq!(out.stats.quarantined, 1);
        // Second session: the cell heals (e.g. a config fix re-ran it).
        let c = Arc::new(AtomicU64::new(0));
        let out2 = run_journaled(
            &path,
            "fp",
            vec![ok_cell("heals", "recovered", &c)],
            RunnerOptions::default(),
        )
        .unwrap();
        assert_eq!(out2.stats.completed, 1);
        assert_eq!(out2.stats.executed, 1, "quarantined cells re-run on resume");
        assert_eq!(c.load(Ordering::Relaxed), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
