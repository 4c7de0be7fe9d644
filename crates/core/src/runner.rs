//! The workload runner: generate → load → build → run trials → report.

use crate::config::MachineConfig;
use crate::error::CoreError;
use crate::machine::Machine;
use crate::report::RunReport;
use crate::workload::{Dataset, Kernel, WorkloadConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use tiersim_graph::{
    bc, bfs, build_sim_weights, cc_afforest, cc_sv, load_sim_csr_moved, pr, sssp, tc, BfsParams,
    CsrGraph, EdgeList, GridGenerator, KroneckerGenerator, PrParams, SimCsrGraph, SourcePicker,
    UniformGenerator,
};
use tiersim_policy::{aggregate_by_label, plan_static, StaticPlan};

/// Generates a workload's edge list (host-side; in the paper this is the
/// offline GAPBS `converter` step that produces the `.sg` file).
pub fn generate(workload: &WorkloadConfig) -> EdgeList {
    match workload.dataset {
        Dataset::Kron => kron(workload).generate(),
        Dataset::Urand => urand(workload).generate(),
        Dataset::Road => road(workload).generate(),
    }
}

/// The symmetrized host CSR of [`generate`]'s edge list, built from the
/// generator's edge stream without holding the list: what the converter
/// writes to the `.sg` file.
fn generate_csr(workload: &WorkloadConfig) -> CsrGraph {
    match workload.dataset {
        Dataset::Kron => {
            let g = kron(workload);
            CsrGraph::from_edge_stream(g.num_nodes(), true, || g.edges())
        }
        Dataset::Urand => {
            let g = urand(workload);
            CsrGraph::from_edge_stream(g.num_nodes(), true, || g.edges())
        }
        Dataset::Road => {
            let g = road(workload);
            CsrGraph::from_edge_stream(g.num_nodes(), true, || g.edges())
        }
    }
}

fn kron(workload: &WorkloadConfig) -> KroneckerGenerator {
    KroneckerGenerator::new(workload.scale, workload.degree).seed(workload.seed)
}

fn urand(workload: &WorkloadConfig) -> UniformGenerator {
    UniformGenerator::new(workload.scale, workload.degree).seed(workload.seed)
}

fn road(workload: &WorkloadConfig) -> GridGenerator {
    // Lattices need an even scale; round up.
    GridGenerator::new(workload.scale + workload.scale % 2)
}

fn run_trials(
    m: &mut Machine,
    g: &SimCsrGraph,
    workload: &WorkloadConfig,
    threads: usize,
) -> Vec<f64> {
    let mut picker = SourcePicker::new(workload.seed ^ 0x5eed);
    let mut trial_secs = Vec::with_capacity(workload.trials);
    let mut timed = |m: &mut Machine, f: &mut dyn FnMut(&mut Machine)| {
        let t0 = m.now_secs();
        f(m);
        trial_secs.push(m.now_secs() - t0);
    };
    match workload.kernel {
        Kernel::Bfs => {
            for _ in 0..workload.trials {
                let source = picker.pick(g);
                timed(m, &mut |m| {
                    let r = bfs(m, g, source, threads, BfsParams::default());
                    r.dist.into_host(m);
                });
            }
        }
        Kernel::Bc => {
            // GAPBS BC runs `trials` timed executions, each allocating
            // fresh per-vertex arrays — the allocation churn behind the
            // paper's Figure 7.
            for _ in 0..workload.trials {
                let source = picker.pick(g);
                timed(m, &mut |m| {
                    let scores = bc(m, g, &[source], threads);
                    scores.into_host(m);
                });
            }
        }
        Kernel::Cc => {
            for _ in 0..workload.trials {
                timed(m, &mut |m| {
                    let comp = cc_sv(m, g, threads);
                    comp.into_host(m);
                });
            }
        }
        Kernel::CcAff => {
            for _ in 0..workload.trials {
                timed(m, &mut |m| {
                    let comp = cc_afforest(m, g, 2, threads);
                    comp.into_host(m);
                });
            }
        }
        Kernel::Pr => {
            for _ in 0..workload.trials {
                timed(m, &mut |m| {
                    let scores = pr(m, g, PrParams::default(), threads);
                    scores.into_host(m);
                });
            }
        }
        Kernel::Sssp => {
            let weights = build_sim_weights(m, g, threads);
            for _ in 0..workload.trials {
                let source = picker.pick(g);
                timed(m, &mut |m| {
                    let dist = sssp(m, g, &weights, source, 32, threads);
                    dist.into_host(m);
                });
            }
            weights.into_host(m);
        }
        Kernel::Tc => {
            for _ in 0..workload.trials {
                timed(m, &mut |m| {
                    tc(m, g, threads);
                });
            }
        }
    }
    trial_secs
}

static RUNS_STARTED: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// [`runs_started`] for the calling thread only, so a unit test can
    /// count its own simulations while other tests simulate beside it.
    pub(crate) static THREAD_RUNS_STARTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many workload simulations ([`run_workload`] calls) this process
/// has started: a deterministic work count, so a speedup from doing less
/// work can be told apart from doing the same work faster.
pub fn runs_started() -> u64 {
    RUNS_STARTED.load(Ordering::Relaxed)
}

/// Runs one workload on one machine configuration, producing a full
/// [`RunReport`].
///
/// Phases mirror the paper's runs: the serialized CSR streams through
/// the page cache into the CSR arrays (I/O-bound, low CPU), then the
/// kernel trials run. The host CSR is built from the generator's edge
/// stream and moved into simulated memory, so the run holds its edges
/// once.
///
/// # Errors
///
/// Returns [`CoreError`] on invalid configuration; a run that dies
/// mid-flight (unrecoverable OOM, segfault, or the stuck-cell watchdog)
/// comes back as [`CoreError::Run`] instead of unwinding — the machine's
/// access path raises a typed [`crate::RunError`] panic payload and this
/// boundary catches it, so a poisoned sweep cell is a recordable failure,
/// not a process abort. Foreign panics (plain `panic!`, assertion
/// failures) still unwind unchanged.
pub fn run_workload(
    machine_cfg: MachineConfig,
    workload: WorkloadConfig,
) -> Result<RunReport, CoreError> {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    RUNS_STARTED.fetch_add(1, Ordering::Relaxed);
    #[cfg(test)]
    THREAD_RUNS_STARTED.with(|c| c.set(c.get() + 1));
    match catch_unwind(AssertUnwindSafe(|| run_workload_inner(machine_cfg, workload))) {
        Ok(result) => result,
        Err(payload) => match payload.downcast::<crate::error::RunError>() {
            Ok(run_err) => Err(CoreError::Run(*run_err)),
            Err(other) => resume_unwind(other),
        },
    }
}

fn run_workload_inner(
    machine_cfg: MachineConfig,
    workload: WorkloadConfig,
) -> Result<RunReport, CoreError> {
    let threads = machine_cfg.threads;
    let mode_name = machine_cfg.mode.name().to_string();
    let mut m = Machine::new(machine_cfg)?;

    // Phases 1+2: get the graph into simulated memory. The paper's
    // artifact flow: the converter built the `.sg` offline; the run
    // streams it through the page cache into the CSR arrays.
    let mut host = generate_csr(&workload);
    if workload.kernel == Kernel::Tc {
        // GAPBS preprocesses TC inputs: sorted, deduplicated lists.
        host.sort_neighbors();
        host.dedup_neighbors();
    }
    // The read() loop interleaves 1 MiB file reads with the stores into
    // the CSR arrays, so page cache and CSR growth compete for DRAM
    // concurrently, as in the paper's long load phase. The host graph
    // moves into the simulated arrays rather than being copied, so the
    // run holds its edges once.
    let g = load_sim_csr_moved(&mut m, host, threads, 1 << 20, |m, bytes| m.file_read(bytes))?;
    let load_end_secs = m.now_secs();
    m.snapshot_now();
    // The `.sg` load has no separate build phase: it ends where the load
    // ends, with its own timeline mark.
    let build_end_secs = m.now_secs();
    m.snapshot_now();

    // Phase 3: kernel trials.
    let trial_secs = run_trials(&mut m, &g, &workload, threads);
    g.unmap(&mut m);
    m.snapshot_now();

    let total_secs = m.now_secs();
    let counters = m.os().counters();
    let mem_stats = *m.mem().stats();
    let fault_stats = m.mem().fault_stats();
    let nvm_write_amplification = m.mem().nvm_write_amplification();
    let os_ticks = m.os_ticks();
    let (samples, tracker, timeline, trace) = m.into_artifacts();
    Ok(RunReport {
        workload,
        mode_name,
        load_end_secs,
        build_end_secs,
        trial_secs,
        total_secs,
        samples,
        tracker,
        counters,
        timeline,
        mem_stats,
        fault_stats,
        nvm_write_amplification,
        os_ticks,
        trace,
    })
}

/// Builds the paper's §7 static object plan from a profiling run: fold the
/// run's samples by label, rank by density, and pack into
/// `plan_dram_headroom × DRAM`.
pub fn plan_from_report(
    report: &RunReport,
    machine_cfg: &MachineConfig,
    spill: bool,
) -> StaticPlan {
    let mapped = report.mapped();
    let stats = aggregate_by_label(&mapped);
    let budget = (machine_cfg.mem.dram_capacity as f64 * machine_cfg.plan_dram_headroom) as u64;
    plan_static(&stats, budget, spill)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiersim_graph::{build_sim_csr, reference};
    use tiersim_policy::TieringMode;

    fn tiny(kernel: Kernel, dataset: Dataset) -> WorkloadConfig {
        WorkloadConfig::new(kernel, dataset).scale(10).trials(2)
    }

    fn cfg(workload: &WorkloadConfig, mode: TieringMode) -> MachineConfig {
        MachineConfig::scaled_default(workload.steady_app_bytes(), mode)
    }

    #[test]
    fn bfs_run_produces_report() {
        let w = tiny(Kernel::Bfs, Dataset::Kron);
        let r = run_workload(cfg(&w, TieringMode::AutoNuma), w).unwrap();
        assert_eq!(r.trial_secs.len(), 2);
        assert!(r.exec_secs() > 0.0);
        assert!(r.load_end_secs > 0.0);
        // With the streamed .sg loader, load and deserialize are one
        // phase.
        assert!(r.build_end_secs >= r.load_end_secs);
        assert!(r.total_secs >= r.build_end_secs);
        assert!(!r.samples.is_empty());
        assert!(r.tracker.len() >= 5, "build + kernel objects tracked");
        assert!(r.mem_stats.total() > 0);
    }

    #[test]
    fn bc_runs_one_timed_pass_per_trial() {
        let w = tiny(Kernel::Bc, Dataset::Urand);
        let r = run_workload(cfg(&w, TieringMode::AutoNuma), w).unwrap();
        // GAPBS BC re-allocates its arrays every trial, so each trial is a
        // separate timed execution and leaves its own tracked objects.
        assert_eq!(r.trial_secs.len(), 2);
        let sigma_count = r.tracker.records().iter().filter(|rec| &*rec.site == "bc.sigma").count();
        assert_eq!(sigma_count, 2);
    }

    #[test]
    fn all_kernels_run_under_autonuma() {
        for kernel in [Kernel::Cc, Kernel::CcAff, Kernel::Pr, Kernel::Sssp, Kernel::Tc] {
            let w = tiny(kernel, Dataset::Kron).trials(1);
            let r = run_workload(cfg(&w, TieringMode::AutoNuma), w).unwrap();
            assert!(r.exec_secs() > 0.0, "{kernel}");
        }
    }

    #[test]
    fn first_touch_has_zero_migrations() {
        let w = tiny(Kernel::Bfs, Dataset::Urand);
        let r = run_workload(cfg(&w, TieringMode::FirstTouch), w).unwrap();
        assert!(r.counters.no_migrations());
    }

    #[test]
    fn deterministic_given_same_config() {
        let w = tiny(Kernel::Cc, Dataset::Kron).trials(1);
        let a = run_workload(cfg(&w, TieringMode::AutoNuma), w).unwrap();
        let b = run_workload(cfg(&w, TieringMode::AutoNuma), w).unwrap();
        assert_eq!(a.total_secs, b.total_secs);
        assert_eq!(a.samples.len(), b.samples.len());
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn sim_results_match_reference_through_runner_graph() {
        // The runner's generated graph produces verified BFS distances.
        let w = tiny(Kernel::Bfs, Dataset::Kron);
        let el = generate(&w);
        let mut null = tiersim_mem::NullBackend::new();
        let g = build_sim_csr(&mut null, &el, true, 2);
        let host = g.to_host_csr();
        let r = tiersim_graph::bfs(&mut null, &g, 1, 2, BfsParams::default());
        assert_eq!(r.dist.host(), reference::bfs_ref(&host, 1).as_slice());
    }

    #[test]
    fn dram_squeeze_completes_via_demotion_fallback() {
        // DRAM well below the workload footprint: the run must complete by
        // demoting to NVM and falling back on allocation, never panicking.
        let w = tiny(Kernel::Bfs, Dataset::Kron).trials(1);
        let mut c = cfg(&w, TieringMode::AutoNuma);
        let page = tiersim_mem::PAGE_SIZE;
        c.mem.dram_capacity = (c.mem.dram_capacity / 8 / page).max(64) * page;
        let r = run_workload(c, w).unwrap();
        assert!(r.exec_secs() > 0.0);
        assert!(r.counters.pgdemote_total() > 0, "squeeze forces demotions");
        assert!(r.counters.pgalloc_nvm > 0, "overflow lands on NVM");
    }

    #[test]
    fn seeded_fault_plan_is_deterministic_and_survivable() {
        use crate::config::FaultConfig;
        use tiersim_mem::RATE_ONE;
        let w = tiny(Kernel::Bfs, Dataset::Kron).trials(1);
        let plan = FaultConfig {
            seed: 0xfau64 << 32 | 0x17,
            dram_alloc_fail_per_64k: RATE_ONE / 16,
            migrate_busy_per_64k: RATE_ONE / 2,
            reclaim_stall_per_64k: RATE_ONE / 8,
            reclaim_stall_cycles: 10_000,
            ..FaultConfig::none()
        };
        let mut c = cfg(&w, TieringMode::AutoNuma).with_fault(plan);
        c.os.migrate_max_retries = 1;
        let a = run_workload(c.clone(), w).unwrap();
        let b = run_workload(c, w).unwrap();
        // Faults fired and the run degraded gracefully instead of dying.
        assert!(a.counters.pgmigrate_fail > 0, "some migrations gave up");
        assert!(a.counters.pgmigrate_retry > 0, "some migrations retried");
        assert!(a.fault_stats.migrate_busy_failures > 0);
        assert!(a.ran_degraded());
        assert!(a.exec_secs() > 0.0);
        // Same seed, same config: bit-for-bit identical reports.
        assert_eq!(a.total_secs, b.total_secs);
        assert_eq!(a.trial_secs, b.trial_secs);
        assert_eq!(a.samples.len(), b.samples.len());
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.fault_stats, b.fault_stats);
        assert_eq!(a.mem_stats, b.mem_stats);
        let (mut ca, mut cb) = (Vec::new(), Vec::new());
        a.write_summary_csv(&mut ca).unwrap();
        b.write_summary_csv(&mut cb).unwrap();
        assert_eq!(ca, cb, "summary CSV is byte-identical");
    }

    #[test]
    fn empty_fault_plan_leaves_reports_unchanged() {
        use crate::config::FaultConfig;
        let w = tiny(Kernel::Cc, Dataset::Kron).trials(1);
        let plain = run_workload(cfg(&w, TieringMode::AutoNuma), w).unwrap();
        let with_none =
            run_workload(cfg(&w, TieringMode::AutoNuma).with_fault(FaultConfig::none()), w)
                .unwrap();
        assert_eq!(plain.total_secs, with_none.total_secs);
        assert_eq!(plain.counters, with_none.counters);
        assert_eq!(plain.mem_stats, with_none.mem_stats);
        assert_eq!(plain.fault_stats, with_none.fault_stats);
        assert_eq!(plain.fault_stats, Default::default());
    }

    #[test]
    fn tracing_does_not_change_simulation() {
        use tiersim_mem::TraceConfig;
        let w = tiny(Kernel::Cc, Dataset::Kron).trials(1);
        let plain = run_workload(cfg(&w, TieringMode::AutoNuma), w).unwrap();
        let traced =
            run_workload(cfg(&w, TieringMode::AutoNuma).with_trace(TraceConfig::on()), w).unwrap();
        // Observer effect must be zero: tracing records, never perturbs.
        assert_eq!(plain.total_secs, traced.total_secs);
        assert_eq!(plain.counters, traced.counters);
        assert_eq!(plain.mem_stats, traced.mem_stats);
        assert!(plain.trace.is_empty(), "tracing off records nothing");
        assert!(!traced.trace.is_empty(), "tracing on records the run");
        assert!(traced.trace.recorded > 0);
        // Every counter the trace covers is conserved (nothing dropped at
        // this scale: the default ring outlives the tiny run).
        assert_eq!(traced.trace.dropped, 0);
        assert!(
            tiersim_os::replay_matches(&traced.trace.records, &traced.counters),
            "trace replay must reproduce the counters"
        );
    }

    #[test]
    fn stuck_watchdog_returns_typed_error_instead_of_hanging() {
        use crate::error::RunError;
        let w = tiny(Kernel::Bfs, Dataset::Kron).trials(1);
        // A fast kswapd cadence makes the engine tick constantly, so a
        // budget of one tick is far below what the run needs and the
        // watchdog fires early and deterministically.
        let mut c = cfg(&w, TieringMode::AutoNuma).with_tick_budget(1);
        c.os.kswapd_period_cycles = 1_000;
        let got = run_workload(c.clone(), w);
        match got {
            Err(CoreError::Run(RunError::Stuck { ticks, budget })) => {
                assert_eq!(budget, 1);
                assert!(ticks > budget);
            }
            other => panic!("expected a stuck-cell error, got {other:?}"),
        }
        // Same config, same typed failure: even aborts are deterministic.
        assert_eq!(run_workload(c.clone(), w).unwrap_err(), run_workload(c, w).unwrap_err());
    }

    #[test]
    fn zero_tick_budget_disables_the_watchdog() {
        let w = tiny(Kernel::Bfs, Dataset::Kron).trials(1);
        let plain = run_workload(cfg(&w, TieringMode::AutoNuma), w).unwrap();
        let armed_high =
            run_workload(cfg(&w, TieringMode::AutoNuma).with_tick_budget(u64::MAX), w).unwrap();
        // A budget the run never reaches must not perturb the simulation.
        assert_eq!(plain.total_secs, armed_high.total_secs);
        assert_eq!(plain.counters, armed_high.counters);
    }
}
