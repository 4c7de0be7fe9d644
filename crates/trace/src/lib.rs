//! # tiersim-trace — deterministic event tracing and metrics
//!
//! The observability layer the paper's methodology implies: where the
//! authors read `vmstat` deltas and PEBS streams to explain AutoNUMA's
//! behaviour, tiersim records every control-loop decision — hint faults,
//! promotion accept/reject (with the reason), demotions, migration
//! retries, threshold adjustments with before/after values, rate-limiter
//! grants/denials, injected faults — into a bounded, deterministic ring.
//!
//! Design rules (DESIGN.md §11):
//!
//! - **Cheap when off.** [`TraceState`] caches its `enabled` flag; every
//!   hook is one branch and zero allocations when tracing is disabled,
//!   the same pattern as `tiersim-mem`'s fault injector.
//! - **Bounded, never silent.** The ring drops oldest on overflow and
//!   counts every eviction; the exporter always emits a `trace_summary`
//!   carrying `recorded`/`dropped`.
//! - **Deterministic.** Events are stamped with simulated cycles fed by
//!   the callers, never wall time; per-run recording is single-threaded
//!   inside one `Machine`, so traces are byte-identical across `--jobs`.
//! - **One schema.** [`TraceEvent::fields`] is each event's name and
//!   `(key, value)` fields in one exhaustive match: [`to_jsonl`] writes
//!   it, and [`check_jsonl`], the only JSONL reader (`cargo xtask
//!   trace-check` calls it), reads each event's keys and value types off
//!   one exemplar per variant.
//!
//! ```
//! use tiersim_trace::{to_jsonl, TraceConfig, TraceEvent, TraceState};
//!
//! let mut trace = TraceState::new(TraceConfig::on());
//! trace.set_now(100);
//! trace.record(TraceEvent::HintFault { page: 42 });
//! let jsonl = to_jsonl(&trace.log());
//! assert!(jsonl.contains("\"event\":\"hint_fault\""));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod export;
pub mod json;
mod state;

pub use event::{FaultSite, Field, RejectReason, TraceEvent, TraceRecord};
pub use export::{check_jsonl, to_jsonl, JsonlError};
pub use state::{MetricsSnapshot, TraceConfig, TraceLog, TraceState, DEFAULT_TRACE_CAPACITY};
