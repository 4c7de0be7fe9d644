//! Cell execution and the journaled score payload codec.
//!
//! Every tuner cell runs one full workload and serializes its score
//! into the journal payload, so a resumed search re-reads scores
//! instead of re-running workloads. Payloads are tiny `k=v`
//! semicolon-joined strings: trivially stable, greppable in the
//! journal, and free of any JSON-escaping concerns.
//!
//! A *stuck* run (the tick-budget watchdog fired) is encoded as a
//! successful payload, not a cell failure: the watchdog is
//! deterministic, so retrying the cell would burn the whole budget
//! again and produce the same verdict. Only genuine configuration or
//! run errors become [`CellError`]s (and therefore quarantine).

use crate::config::MachineConfig;
use crate::error::{CoreError, RunError};
use crate::journal::{CellError, FailureClass};
use crate::runner::run_workload;
use crate::workload::WorkloadConfig;
use tiersim_mem::PAGE_SIZE;

/// A throughput score from one search cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellScore {
    /// The run completed within its rung budget. `ticks` is the true
    /// completion count — a pure function of the configuration,
    /// independent of the budget that bounded it — so finished scores
    /// are comparable across rungs.
    Finished {
        /// OS engine ticks to completion (lower is better).
        ticks: u64,
        /// Promotion traffic: `pgpromote_success * PAGE_SIZE` (lower is
        /// better).
        promo_bytes: u64,
    },
    /// The watchdog fired: the run needs more than `budget` ticks.
    Stuck {
        /// The rung budget that was exceeded.
        budget: u64,
    },
}

/// A robustness score: the finalist re-run under the fault-injection
/// plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobustScore {
    /// The faulted run completed.
    Finished {
        /// Degraded-mode events: failed migrations + DRAM allocation
        /// fallbacks + injected reclaim stalls (lower is better).
        degraded: u64,
        /// OS engine ticks to completion under faults.
        ticks: u64,
    },
    /// The faulted run blew its (doubled) budget.
    Stuck {
        /// The budget that was exceeded.
        budget: u64,
    },
}

impl CellScore {
    /// Serializes for the journal payload.
    #[must_use]
    pub fn encode(self) -> String {
        match self {
            CellScore::Finished { ticks, promo_bytes } => {
                format!("finished;ticks={ticks};promo_bytes={promo_bytes}")
            }
            CellScore::Stuck { budget } => format!("stuck;budget={budget}"),
        }
    }

    /// Parses a journal payload back; `None` on anything this codec
    /// never wrote (a corrupt or foreign journal).
    #[must_use]
    pub fn decode(payload: &str) -> Option<CellScore> {
        let (tag, rest) = payload.split_once(';')?;
        match tag {
            "finished" => Some(CellScore::Finished {
                ticks: field(rest, "ticks")?,
                promo_bytes: field(rest, "promo_bytes")?,
            }),
            "stuck" => Some(CellScore::Stuck { budget: field(rest, "budget")? }),
            _ => None,
        }
    }
}

impl RobustScore {
    /// Serializes for the journal payload.
    #[must_use]
    pub fn encode(self) -> String {
        match self {
            RobustScore::Finished { degraded, ticks } => {
                format!("robust;degraded={degraded};ticks={ticks}")
            }
            RobustScore::Stuck { budget } => format!("robust_stuck;budget={budget}"),
        }
    }

    /// Parses a journal payload back; `None` on unknown layouts.
    #[must_use]
    pub fn decode(payload: &str) -> Option<RobustScore> {
        let (tag, rest) = payload.split_once(';')?;
        match tag {
            "robust" => Some(RobustScore::Finished {
                degraded: field(rest, "degraded")?,
                ticks: field(rest, "ticks")?,
            }),
            "robust_stuck" => Some(RobustScore::Stuck { budget: field(rest, "budget")? }),
            _ => None,
        }
    }
}

/// Finds `key=value` in a semicolon-joined list and parses the value.
fn field(kvs: &str, key: &str) -> Option<u64> {
    kvs.split(';').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        if k == key {
            v.parse().ok()
        } else {
            None
        }
    })
}

/// Classifies a run failure for the journal: the deterministic watchdog
/// is handled by the callers (it is a score, not a failure), everything
/// else is a plain error.
fn cell_error(e: &CoreError) -> CellError {
    CellError { class: FailureClass::Error, message: e.to_string() }
}

#[cfg(test)]
thread_local! {
    /// Throughput-cell simulations started on this thread.
    pub(super) static SCORE_RUNS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Runs one throughput cell: the workload under `cfg`, scored on
/// completion ticks and promotion traffic.
///
/// # Errors
///
/// [`CellError`] on configuration or run errors; a stuck run is an
/// `Ok` payload (see the module docs).
pub fn run_score_cell(cfg: &MachineConfig, w: &WorkloadConfig) -> Result<String, CellError> {
    #[cfg(test)]
    SCORE_RUNS.with(|n| n.set(n.get() + 1));
    match run_workload(cfg.clone(), *w) {
        Ok(r) => Ok(CellScore::Finished {
            ticks: r.os_ticks,
            promo_bytes: r.counters.pgpromote_success.saturating_mul(PAGE_SIZE),
        }
        .encode()),
        Err(CoreError::Run(RunError::Stuck { budget, .. })) => {
            Ok(CellScore::Stuck { budget }.encode())
        }
        Err(e) => Err(cell_error(&e)),
    }
}

/// Runs one robustness cell: the workload under `cfg` (which carries
/// the fault plan), scored on degraded-mode events.
///
/// # Errors
///
/// [`CellError`] on configuration or run errors.
pub fn run_robust_cell(cfg: &MachineConfig, w: &WorkloadConfig) -> Result<String, CellError> {
    match run_workload(cfg.clone(), *w) {
        Ok(r) => {
            let degraded = r
                .counters
                .pgmigrate_fail
                .saturating_add(r.fault_stats.dram_alloc_failures)
                .saturating_add(r.fault_stats.reclaim_stalls);
            Ok(RobustScore::Finished { degraded, ticks: r.os_ticks }.encode())
        }
        Err(CoreError::Run(RunError::Stuck { budget, .. })) => {
            Ok(RobustScore::Stuck { budget }.encode())
        }
        Err(e) => Err(cell_error(&e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_codec_roundtrips() {
        for score in [
            CellScore::Finished { ticks: 0, promo_bytes: 0 },
            CellScore::Finished { ticks: u64::MAX, promo_bytes: 4096 },
            CellScore::Stuck { budget: 12345 },
        ] {
            assert_eq!(CellScore::decode(&score.encode()), Some(score));
        }
        for score in
            [RobustScore::Finished { degraded: 7, ticks: 99 }, RobustScore::Stuck { budget: 1 }]
        {
            assert_eq!(RobustScore::decode(&score.encode()), Some(score));
        }
    }

    #[test]
    fn codecs_reject_foreign_payloads() {
        for bad in ["", "garbage", "finished", "finished;ticks=x;promo_bytes=1", "stuck;b=1"] {
            assert_eq!(CellScore::decode(bad), None, "{bad:?}");
        }
        assert_eq!(RobustScore::decode("finished;ticks=1;promo_bytes=1"), None);
        assert_eq!(CellScore::decode("robust;degraded=1;ticks=1"), None);
    }

    proptest::proptest! {
        #[test]
        fn codec_roundtrip_holds_for_all_values(t in 0u64..u64::MAX, p in 0u64..u64::MAX) {
            let s = CellScore::Finished { ticks: t, promo_bytes: p };
            proptest::prop_assert_eq!(CellScore::decode(&s.encode()), Some(s));
            let r = RobustScore::Finished { degraded: p, ticks: t };
            proptest::prop_assert_eq!(RobustScore::decode(&r.encode()), Some(r));
        }
    }
}
