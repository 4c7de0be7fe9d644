//! tiersim-audit property tests and the double-run determinism check.
//!
//! The property tests drive random small workloads through the full
//! machine (TLB/cache pipeline, AutoNUMA engine, page cache) with audit
//! checkpoints armed on every OS tick, then assert the final audit report
//! is clean. The determinism test runs one seeded experiment twice and
//! requires the serialized reports to be byte-identical — the guarantee
//! the `xtask lint` rules exist to protect.

use proptest::prelude::*;
use tiersim::core::{run_workload, Dataset, ExperimentConfig, Kernel, Machine, MachineConfig};
use tiersim::mem::{MemBackend, PAGE_SIZE};
use tiersim::policy::TieringMode;

/// Operations the fuzzer drives against the machine.
#[derive(Debug, Clone)]
enum Op {
    /// Load from page `p` of the working region.
    Load(u8),
    /// Store to page `p` of the working region.
    Store(u8),
    /// Unmap the scratch region and map a fresh one.
    Remap,
    /// Read `n` pages through the page cache.
    FileRead(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Load),
        any::<u8>().prop_map(Op::Store),
        any::<u8>().prop_map(|_| Op::Remap),
        any::<u8>().prop_map(Op::FileRead),
    ]
}

/// A small machine with audit checkpoints on every OS tick, so the
/// engine's own `debug_assert!` fires mid-run in addition to the final
/// explicit check below.
fn audited_machine(mode: TieringMode) -> Machine {
    let mut cfg = MachineConfig::scaled_default(1 << 20, mode);
    cfg.os.audit_every_ticks = 1;
    Machine::new(cfg).expect("machine")
}

fn drive(mode: TieringMode, ops: &[Op]) -> Machine {
    let mut m = audited_machine(mode);
    let base = m.mmap(128 * PAGE_SIZE, "fuzz.work");
    let mut scratch = m.mmap(16 * PAGE_SIZE, "fuzz.scratch");
    for op in ops {
        match *op {
            Op::Load(p) => m.load(base + u64::from(p % 128) * PAGE_SIZE, 8),
            Op::Store(p) => m.store(base + u64::from(p % 128) * PAGE_SIZE, 8),
            Op::Remap => {
                m.munmap(scratch);
                scratch = m.mmap(16 * PAGE_SIZE, "fuzz.scratch");
                m.store(scratch, 8);
            }
            Op::FileRead(n) => {
                let _ = m.file_read(u64::from(n % 8 + 1) * PAGE_SIZE);
            }
        }
    }
    m
}

proptest! {
    /// Random workloads under AutoNUMA (faults, hint faults, promotions,
    /// demotions, page-cache churn) leave every audited invariant intact.
    #[test]
    fn random_autonuma_workloads_audit_clean(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let m = drive(TieringMode::AutoNuma, &ops);
        let report = m.audit();
        prop_assert!(
            report.is_clean(),
            "audit found {} violation(s): {:?}",
            report.violations.len(),
            report.violations
        );
        prop_assert!(report.checks > 0);
    }

    /// The same holds with tiering disabled entirely (first-touch): the
    /// invariants are properties of the accounting, not of any policy.
    #[test]
    fn random_first_touch_workloads_audit_clean(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let m = drive(TieringMode::FirstTouch, &ops);
        let report = m.audit();
        prop_assert!(report.is_clean(), "violations: {:?}", report.violations);
    }
}

/// An audit interval assigned on `MachineConfig::os` reaches the OS engine
/// of the built machine; the default interval is 0 (checkpoints off).
#[test]
fn with_audit_sets_interval() {
    let mut cfg = MachineConfig::scaled_default(1 << 20, TieringMode::AutoNuma);
    assert_eq!(cfg.os.audit_every_ticks, 0);
    cfg.os.audit_every_ticks = 32;
    let m = Machine::new(cfg).expect("machine");
    assert_eq!(m.os().config().audit_every_ticks, 32);
}

/// An explicit audit on a fresh machine is clean and walks zero pages.
#[test]
fn fresh_machine_audits_clean() {
    let m = audited_machine(TieringMode::AutoNuma);
    let report = m.audit();
    assert!(report.is_clean());
    assert_eq!(report.pages_walked, 0);
}

fn serialized(report: &tiersim::core::RunReport) -> Vec<u8> {
    let mut bytes = Vec::new();
    report.write_summary_csv(&mut bytes).expect("summary csv");
    report.write_timeline_csv(&mut bytes).expect("timeline csv");
    bytes
}

/// The acceptance determinism check: the same seeded config run twice
/// yields byte-identical serialized reports (summary + timeline CSVs).
#[test]
fn double_run_reports_are_byte_identical() {
    let cfg = ExperimentConfig {
        scale: 12,
        degree: 8,
        trials: 2,
        sample_period: 101,
        jobs: 1,
        ..ExperimentConfig::default()
    };
    let w = cfg.workload(Kernel::Bfs, Dataset::Kron);
    let a = run_workload(cfg.machine(TieringMode::AutoNuma), w).expect("run a");
    let b = run_workload(cfg.machine(TieringMode::AutoNuma), w).expect("run b");
    let (bytes_a, bytes_b) = (serialized(&a), serialized(&b));
    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a, bytes_b, "serialized RunReports diverged between identical runs");
}
