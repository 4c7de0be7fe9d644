//! The four workloads and what one child process measures for one of
//! them: the untraced entry call, or the traced breakdown of the same
//! call, followed in both cases by repeated setups.
//!
//! Every span is taken from here, around calls into public library
//! functions; nothing inside the simulator is instrumented.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::LAYERS;
use crate::stats::median;
use tiersim_bench::{run_suite_journaled, ExperimentSuite};
use tiersim_core::experiments::{AutonumaTrace, Characterization, Comparison, ObjectAnalysis};
use tiersim_core::journal::codec::{fnv1a64, hex16};
use tiersim_core::journal::{run_journaled, CellOutcome, JournalCell, RunnerOptions};
use tiersim_core::tune::{run_tune, TuneConfig};
use tiersim_core::{
    generate, plan_from_report, run_workload, CoreError, Dataset, ExperimentConfig, Kernel,
    Machine, MachineConfig, RunReport, WorkloadConfig,
};
use tiersim_graph::{
    bc, load_sim_csr, load_sim_csr_streamed, pr, verify, CsrGraph, NodeId, PrParams, SimCsrGraph,
    SourcePicker,
};
use tiersim_mem::{MemBackend, NullBackend, ThreadId, VirtAddr};
use tiersim_policy::TieringMode;

/// Setups per child: at least [`MIN_SETUPS`], and more while they total
/// under [`SETUP_BUDGET_S`], up to [`MAX_SETUPS`], so that short setups
/// are sampled often enough for a steady median. `setup_s` is the median
/// over every setup of every child in a run.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 10;
const SETUP_BUDGET_S: f64 = 0.5;

/// Chunk size of the streamed graph load, as `run_workload` reads the
/// `.sg` file.
const LOAD_CHUNK_BYTES: u64 = 1 << 20;

/// Accepted range of `trace.coverage`: the spans must account for the
/// traced wall time to within 5%.
const COVERAGE_RANGE: (f64, f64) = (0.95, 1.05);

/// One benchmark workload. Each stresses a different part of the
/// simulator; README.md says why each is in the set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// BC on Kronecker, scale 16: the paper's hero run, irregular
    /// per-element neighbour gathers.
    BcKron,
    /// PageRank on uniform random, scale 17, with transparent huge pages:
    /// full-edge sweeps and the most OS work.
    PrUrandThp,
    /// The journaled reproduction suite at scale 14.
    SuiteS14,
    /// The auto-tuner's tiny grid at scale 14.
    TuneS14,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::BcKron, Workload::PrUrandThp, Workload::SuiteS14, Workload::TuneS14];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BcKron => "bc_kron",
            Workload::PrUrandThp => "pr_urand_thp",
            Workload::SuiteS14 => "suite_s14",
            Workload::TuneS14 => "tune_s14",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether `--seed` reaches this workload's inputs. The suite and the
    /// tuner take no graph seed, so they always run the program's own.
    pub fn seeded(self) -> bool {
        self.single_run(0).is_some()
    }

    /// Single-threaded experiment parameters (`jobs = 1`): one child is
    /// one thread, so the numbers measure the program, not the scheduler.
    fn experiment(self) -> ExperimentConfig {
        let mut exp = ExperimentConfig { jobs: 1, ..ExperimentConfig::default() };
        match self {
            Workload::BcKron => {}
            Workload::PrUrandThp => {
                exp.thp = true;
                exp.trials = 2;
            }
            Workload::SuiteS14 | Workload::TuneS14 => exp.scale = 14,
        }
        exp
    }

    /// The one `run_workload` call behind a single-run workload.
    fn single_run(self, seed: u64) -> Option<(MachineConfig, WorkloadConfig)> {
        let (kernel, dataset) = match self {
            Workload::BcKron => (Kernel::Bc, Dataset::Kron),
            Workload::PrUrandThp => (Kernel::Pr, Dataset::Urand),
            Workload::SuiteS14 | Workload::TuneS14 => return None,
        };
        let exp = self.experiment();
        Some((exp.machine(TieringMode::AutoNuma), exp.workload(kernel, dataset).seed(seed)))
    }

    /// Each distinct input graph the workload loads, with its machine.
    fn inputs(self, seed: u64) -> Vec<(MachineConfig, WorkloadConfig)> {
        if let Some(run) = self.single_run(seed) {
            return vec![run];
        }
        let exp = self.experiment();
        let runs = match self {
            Workload::SuiteS14 => exp.workloads(),
            _ => vec![exp.workload(Kernel::Bc, Dataset::Kron)],
        };
        let mut distinct: Vec<WorkloadConfig> = Vec::new();
        for w in runs {
            let same = |d: &WorkloadConfig| {
                (d.dataset, d.scale, d.degree, d.seed) == (w.dataset, w.scale, w.degree, w.seed)
            };
            if !distinct.iter().any(same) {
                distinct.push(w);
            }
        }
        distinct.into_iter().map(|w| (exp.machine(TieringMode::AutoNuma), w)).collect()
    }
}

/// Host-time spans, accumulated by layer name.
#[derive(Debug, Default)]
struct Spans(BTreeMap<&'static str, f64>);

impl Spans {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        *self.0.entry(name).or_default() += t.elapsed().as_secs_f64();
        out
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn total(&self) -> f64 {
        self.0.values().sum()
    }
}

/// A [`MemBackend`] that forwards every call to the machine unchanged and
/// counts how the caller reached it: element by element, or in batched
/// runs.
struct Counted<'a> {
    m: &'a mut Machine,
    elem_calls: u64,
    run_calls: u64,
    run_elems: u64,
}

impl<'a> Counted<'a> {
    fn new(m: &'a mut Machine) -> Self {
        Counted { m, elem_calls: 0, run_calls: 0, run_elems: 0 }
    }

    fn counts(&self) -> [u64; 3] {
        [self.elem_calls, self.run_calls, self.run_elems]
    }
}

impl MemBackend for Counted<'_> {
    fn mmap(&mut self, len: u64, label: &str) -> VirtAddr {
        self.m.mmap(len, label)
    }

    fn munmap(&mut self, addr: VirtAddr) {
        self.m.munmap(addr);
    }

    fn load(&mut self, addr: VirtAddr, bytes: u32) {
        self.elem_calls += 1;
        self.m.load(addr, bytes);
    }

    fn store(&mut self, addr: VirtAddr, bytes: u32) {
        self.elem_calls += 1;
        self.m.store(addr, bytes);
    }

    fn load_run(&mut self, addr: VirtAddr, stride: u32, count: u64) {
        self.run_calls += 1;
        self.run_elems += count;
        self.m.load_run(addr, stride, count);
    }

    fn store_run(&mut self, addr: VirtAddr, stride: u32, count: u64) {
        self.run_calls += 1;
        self.run_elems += count;
        self.m.store_run(addr, stride, count);
    }

    fn set_thread(&mut self, tid: ThreadId) {
        self.m.set_thread(tid);
    }

    fn cpu_work(&mut self, cycles: u64) {
        self.m.cpu_work(cycles);
    }

    fn now_cycles(&self) -> u64 {
        MemBackend::now_cycles(&*self.m)
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Streams the serialized CSR through the page cache into the machine,
/// as `run_workload` does.
fn load_graph(c: &mut Counted<'_>, host: &CsrGraph, threads: usize) -> Result<SimCsrGraph, String> {
    load_sim_csr_streamed(c, host, threads, LOAD_CHUNK_BYTES, |c, bytes| c.m.file_read(bytes))
        .map_err(err)
}

/// One setup: the public calls `run_workload` makes before its first
/// kernel trial, each timed into `spans`. Returns the elements the load
/// wrote into simulated memory.
fn setup(mc: &MachineConfig, w: &WorkloadConfig, spans: &mut Spans) -> Result<u64, String> {
    let mut m = spans.time("machine.new_s", || Machine::new(mc.clone())).map_err(err)?;
    let el = spans.time("graph.generate_s", || generate(w));
    let host = spans.time("graph.csr_s", || CsrGraph::from_edges(&el, true));
    drop(el);
    let mut c = Counted::new(&mut m);
    let g = spans.time("machine.load_s", || load_graph(&mut c, &host, mc.threads))?;
    if (g.num_nodes(), g.num_edges()) != (host.num_nodes(), host.num_edges()) {
        return Err(format!("{}: loaded graph has the wrong shape", w.name()));
    }
    let [elems, _, run_elems] = c.counts();
    Ok(elems + run_elems)
}

/// FNV-1a64 of a single run's byte-compared outputs: its summary and
/// timeline CSVs.
fn report_digest(r: &RunReport) -> String {
    let mut bytes = Vec::new();
    // Writing into a Vec cannot fail.
    let _ = r.write_summary_csv(&mut bytes);
    let _ = r.write_timeline_csv(&mut bytes);
    hex16(fnv1a64(&bytes))
}

fn suite_digest(suite: &ExperimentSuite) -> String {
    hex16(fnv1a64(format!("{}{}", suite.output(), suite.summary()).as_bytes()))
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// What one child measured.
#[derive(Debug, Default)]
struct Measured {
    wall_s: f64,
    peak_rss_mb: f64,
    digest: String,
    errors: Vec<String>,
    layers: BTreeMap<&'static str, f64>,
}

/// Runs one rep of `workload` in this process and returns the child
/// report the driving process aggregates: the entry call (traced or
/// not), then repeated setups.
pub fn run_child(workload: Workload, seed: u64, traced: bool, scratch: &Path) -> Json {
    let mut m = match (traced, workload.single_run(seed)) {
        (false, _) => entry_call(workload, seed, scratch),
        (true, Some((mc, w))) => traced_single(mc, w),
        (true, None) if workload == Workload::SuiteS14 => traced_suite(workload, scratch),
        (true, None) => traced_tune(workload, scratch),
    }
    .unwrap_or_else(|e| Measured { errors: vec![e], ..Measured::default() });

    let mut setup_s: Vec<f64> = Vec::new();
    let mut steps: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let mut spans = Spans::default();
        let mut elems = 0;
        for (mc, w) in workload.inputs(seed) {
            match setup(&mc, &w, &mut spans) {
                Ok(n) => elems += n,
                Err(e) => m.errors.push(format!("setup: {e}")),
            }
        }
        setup_s.push(spans.total());
        for (name, secs) in spans.0 {
            steps.entry(name).or_default().push(secs);
        }
        steps.entry("machine.load_elems").or_default().push(elems as f64);
    }
    if traced {
        for (name, samples) in steps {
            m.layers.insert(name, median(&samples));
        }
    }

    let layers =
        LAYERS.iter().map(|l| (l.name, Json::from(m.layers.get(l.name).copied().unwrap_or(0.0))));
    Json::obj([
        ("errors", Json::Arr(m.errors.iter().map(|e| Json::from(e.as_str())).collect())),
        ("digest", Json::from(m.digest.as_str())),
        ("wall_s", Json::from(m.wall_s)),
        ("peak_rss_mb", Json::from(m.peak_rss_mb)),
        ("setup_s", Json::Arr(setup_s.into_iter().map(Json::from).collect())),
        ("layers", Json::obj(if traced { layers.collect() } else { Vec::new() })),
    ])
}

/// The untraced entry call: what a user of the workload waits on.
fn entry_call(workload: Workload, seed: u64, scratch: &Path) -> Result<Measured, String> {
    let mut m = Measured::default();
    let t = Instant::now();
    match workload.single_run(seed) {
        Some((mc, w)) => {
            let report = run_workload(mc, w).map_err(err)?;
            m.wall_s = t.elapsed().as_secs_f64();
            if report.trial_secs.len() != w.trials || report.mem_stats.total() == 0 {
                m.errors.push(format!("{}: run report is missing trials or accesses", w.name()));
            }
            m.digest = report_digest(&report);
        }
        None if workload == Workload::SuiteS14 => {
            let journal = scratch.join("suite.journal");
            let exp = workload.experiment();
            let suite = run_suite_journaled(&exp, &journal, RunnerOptions::default(), false)
                .map_err(err)?;
            m.wall_s = t.elapsed().as_secs_f64();
            if suite.exit_code() != 0 {
                m.errors.push(format!("suite failed: {}", suite.summary().trim()));
            }
            m.digest = suite_digest(&suite);
        }
        None => {
            let journal = scratch.join("tune.journal");
            let cfg = TuneConfig::new(workload.experiment(), Kernel::Bc, Dataset::Kron);
            let out = run_tune(&cfg, &journal, RunnerOptions::default()).map_err(err)?;
            m.wall_s = t.elapsed().as_secs_f64();
            if out.replayed != 0 || out.report.finalists.is_empty() {
                m.errors.push("tune replayed cells or found no finalists".to_string());
            }
            m.digest = hex16(fnv1a64(out.report.to_json().as_bytes()));
        }
    }
    m.peak_rss_mb = peak_rss_mb()?;
    Ok(m)
}

/// One trial's output and source, for the verification oracles.
struct Trial {
    source: Option<NodeId>,
    output: Vec<f64>,
}

/// The kernel trials exactly as `run_workload` runs them: one source per
/// BC trial from the workload's picker, each trial's arrays allocated,
/// used and freed. `clock` reads simulated seconds for the per-trial
/// times.
fn trials<B: MemBackend>(
    b: &mut B,
    g: &SimCsrGraph,
    w: &WorkloadConfig,
    threads: usize,
    clock: impl Fn(&B) -> f64,
) -> Result<(Vec<f64>, Vec<Trial>), String> {
    // `run_workload` seeds its source picker this way.
    let mut picker = SourcePicker::new(w.seed ^ 0x5eed);
    let mut secs = Vec::with_capacity(w.trials);
    let mut out = Vec::with_capacity(w.trials);
    for _ in 0..w.trials {
        let source = match w.kernel {
            Kernel::Bc => Some(picker.pick(g)),
            Kernel::Pr => None,
            other => return Err(format!("no mirrored trials for kernel {other}")),
        };
        let t0 = clock(b);
        let output = match source {
            Some(s) => bc(b, g, &[s], threads).into_host(b),
            None => pr(b, g, PrParams::default(), threads).into_host(b),
        };
        secs.push(clock(b) - t0);
        out.push(Trial { source, output });
    }
    Ok((secs, out))
}

/// Checks one trial's output against the host oracle.
fn verify_trial(host: &CsrGraph, t: &Trial) -> Result<(), String> {
    match t.source {
        Some(s) => verify::bc(host, &[s], &t.output),
        None => {
            let p = PrParams::default();
            verify::pr(host, p.damping, p.tolerance, p.max_iters, &t.output)
        }
    }
}

/// The traced breakdown of a single run. `run_workload` runs first,
/// untraced, as the reference; then the same public call sequence runs
/// again with a span around each layer and a counting backend under the
/// kernels. The mirrored run must reproduce the reference exactly, its
/// kernel outputs must pass the oracles and match a free `NullBackend`
/// run, and the machine must audit clean after the last trial.
fn traced_single(mc: MachineConfig, w: WorkloadConfig) -> Result<Measured, String> {
    let mut m = Measured::default();
    let t = Instant::now();
    let reference = run_workload(mc.clone(), w).map_err(err)?;
    m.wall_s = t.elapsed().as_secs_f64();

    let plan_cfg = mc.clone();
    let threads = mc.threads;
    let mode_name = mc.mode.name().to_string();
    let mut spans = Spans::default();
    let start = Instant::now();
    let mut machine = spans.time("machine.new_s", || Machine::new(mc)).map_err(err)?;
    let el = spans.time("graph.generate_s", || generate(&w));
    let host = spans.time("graph.csr_s", || CsrGraph::from_edges(&el, true));
    drop(el);
    let mut c = Counted::new(&mut machine);
    let g = spans.time("machine.load_s", || load_graph(&mut c, &host, threads))?;
    let load_end_secs = c.m.now_secs();
    c.m.snapshot_now();
    let build_end_secs = c.m.now_secs();
    c.m.snapshot_now();
    let before = c.counts();
    let (trial_secs, outputs) =
        spans.time("kernel.trials_s", || trials(&mut c, &g, &w, threads, |c| c.m.now_secs()))?;
    let [elem_calls, run_calls, run_elems] = {
        let after = c.counts();
        [after[0] - before[0], after[1] - before[1], after[2] - before[2]]
    };
    g.unmap(&mut c);
    machine.snapshot_now();
    let audit_start = Instant::now();
    let audit = machine.audit();
    let audit_s = audit_start.elapsed().as_secs_f64();
    let interval = machine.mem().interval_stats();
    let total_secs = machine.now_secs();
    let counters = machine.os().counters();
    let mem_stats = *machine.mem().stats();
    let fault_stats = machine.mem().fault_stats();
    let nvm_write_amplification = machine.mem().nvm_write_amplification();
    let os_ticks = machine.os_ticks();
    let (samples, tracker, timeline, trace) = machine.into_artifacts();
    let report = RunReport {
        workload: w,
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
    };
    let wall = start.elapsed().as_secs_f64() - audit_s;

    // Checks, outside the traced window.
    let same = report.total_secs.to_bits() == reference.total_secs.to_bits()
        && report.os_ticks == reference.os_ticks
        && report.counters == reference.counters
        && report.mem_stats == reference.mem_stats;
    m.digest = report_digest(&report);
    if !same || m.digest != report_digest(&reference) {
        m.errors.push(format!("{}: mirrored run differs from run_workload", w.name()));
    }
    if !audit.is_clean() {
        m.errors.push(format!("{}: audit after the last trial: {:?}", w.name(), audit.violations));
    }
    let mut null = NullBackend::new();
    let null_graph = load_sim_csr(&mut null, &host, threads);
    let null_start = Instant::now();
    let (_, null_outputs) = trials(&mut null, &null_graph, &w, threads, |_| 0.0)?;
    let null_s = null_start.elapsed().as_secs_f64();
    for (i, (t, n)) in outputs.iter().zip(&null_outputs).enumerate() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if t.source != n.source || bits(&t.output) != bits(&n.output) {
            m.errors.push(format!("{}: trial {i} differs from the NullBackend run", w.name()));
        }
        if let Err(e) = verify_trial(&host, t) {
            m.errors.push(format!("{}: trial {i}: {e}", w.name()));
        }
    }
    let plan_start = Instant::now();
    let plan = plan_from_report(&report, &plan_cfg, false);
    let plan_s = plan_start.elapsed().as_secs_f64();
    std::hint::black_box(plan);

    let trials_s = spans.get("kernel.trials_s");
    let kernel_s = trials_s - null_s;
    let elems = (elem_calls + run_elems) as f64;
    let stats = &report.mem_stats;
    let counters = &report.counters;
    m.layers.extend([
        ("kernel.trials_s", trials_s),
        ("graph.kernel_null_s", null_s),
        ("machine.kernel_s", kernel_s),
        ("machine.ns_per_elem", kernel_s * 1e9 / elems),
        ("machine.elem_calls", elem_calls as f64),
        ("machine.run_calls", run_calls as f64),
        ("machine.run_elems", run_elems as f64),
        ("machine.batched_share", run_elems as f64 / elems),
        ("mem.interval_runs", interval.runs as f64),
        ("mem.interval_pages", interval.pages as f64),
        ("profile.plan_s", plan_s),
        ("os.audit_s", audit_s),
        ("maccess_per_s", reference.mem_stats.total() as f64 / m.wall_s / 1e6),
        ("mem.accesses", stats.total() as f64),
        ("mem.external", stats.external() as f64),
        ("mem.tlb_misses", stats.tlb_misses as f64),
        ("os.ticks", report.os_ticks as f64),
        ("os.hint_faults", counters.numa_hint_faults as f64),
        ("os.pgpromote", counters.pgpromote_success as f64),
        ("os.pgdemote", counters.pgdemote_total() as f64),
        ("os.pgfault", counters.pgfault as f64),
        ("os.pgfault_around", counters.pgfault_around as f64),
        ("os.thp_collapse", counters.thp_collapse_alloc as f64),
        ("profile.samples", report.samples.len() as f64),
        ("sim.total_s", report.total_secs),
    ]);
    trace_meta(&mut m, &spans, wall);
    Ok(m)
}

/// Records coverage, unaccounted time and overhead, and fails the rep
/// when the spans do not account for the traced wall time. The overhead
/// compares against the untraced reference call in the same child.
fn trace_meta(m: &mut Measured, spans: &Spans, traced_wall: f64) {
    let coverage = spans.total() / traced_wall;
    m.layers.extend([
        ("trace.coverage", coverage),
        ("trace.unaccounted_s", traced_wall - spans.total()),
        ("trace.overhead_frac", traced_wall / m.wall_s - 1.0),
    ]);
    if !(COVERAGE_RANGE.0..=COVERAGE_RANGE.1).contains(&coverage) {
        m.errors.push(format!("trace coverage {coverage:.4} is outside {COVERAGE_RANGE:?}"));
    }
}

/// Section separators of the suite's journal payloads (ASCII record and
/// unit separators), as `tiersim_bench` encodes them.
const PAYLOAD_RS: char = '\u{1e}';
const PAYLOAD_US: char = '\u{1f}';

fn encode_payload(sections: &[(String, String)]) -> String {
    let parts: Vec<String> = sections.iter().map(|(t, b)| format!("{t}{PAYLOAD_US}{b}")).collect();
    parts.join(&PAYLOAD_RS.to_string())
}

/// The traced breakdown of the suite: `run_suite_journaled` runs first,
/// untraced, as the reference; then its public experiment entry points
/// run one at a time, in suite order, their sections are rendered, and
/// the payloads go through the same journal. The rebuilt output and
/// summary must match the reference byte for byte.
fn traced_suite(workload: Workload, scratch: &Path) -> Result<Measured, String> {
    let mut m = Measured::default();
    let exp = workload.experiment();
    let reference_journal = scratch.join("reference.journal");
    let t = Instant::now();
    let reference = run_suite_journaled(&exp, &reference_journal, RunnerOptions::default(), false)
        .map_err(err)?;
    m.wall_s = t.elapsed().as_secs_f64();

    let journal = scratch.join("traced.journal");
    let mut spans = Spans::default();
    let start = Instant::now();
    let c = spans.time("experiments.characterization_s", || Characterization::run(&exp));
    let o = spans.time("experiments.objects_s", || ObjectAnalysis::run(&exp));
    let a = spans.time("experiments.autonuma_trace_s", || AutonumaTrace::run(&exp));
    let cmp = spans.time("experiments.comparison_s", || Comparison::run(&exp));
    let cells = spans.time("experiments.render_s", || -> Result<Vec<JournalCell>, CoreError> {
        let c = c?;
        let characterization = vec![
            ("Figure 3: sample distribution across levels".to_string(), c.render_fig3()),
            ("Figure 4: page touch-count histogram".to_string(), c.render_fig4()),
            ("Figure 5: 2-touch reuse intervals (hottest NVM object)".to_string(), c.render_fig5()),
            ("Table 1: external access location".to_string(), c.render_table1()),
            ("Table 2: external latency cost split".to_string(), c.render_table2()),
            ("Table 3: external access cost by TLB outcome".to_string(), c.render_table3()),
        ];
        let o = o?;
        let mut objects = vec![(
            "Figure 6: top objects by external samples (bc_kron)".to_string(),
            o.render_fig6(10),
        )];
        if let Some(secs) = o.hottest_nvm_alloc_secs() {
            let body = format!(
                "peak live {:.2} MB over {} events; hottest NVM object allocated at t={secs:.4}s\n",
                o.fig7().peak_bytes() as f64 / (1 << 20) as f64,
                o.fig7().points.len(),
            );
            objects.push(("Figure 7: allocation timeline (bc_kron)".to_string(), body));
        }
        if let Some(p) = o.fig8() {
            let body = format!(
                "{} samples, randomness metric {:.3}\n",
                p.points.len(),
                p.randomness().unwrap_or(0.0)
            );
            objects
                .push(("Figure 8: hottest NVM object access pattern (bc_kron)".to_string(), body));
        }
        let a = a?;
        let trace = vec![
            (
                "Figure 9: memory usage and counters over time (bc_kron)".to_string(),
                a.render_fig9(),
            ),
            ("Figure 10: DRAM loads vs promotions (bc_kron)".to_string(), a.render_fig10()),
        ];
        let comparison =
            vec![("Figure 11: object-level static mapping vs AutoNUMA".to_string(), cmp?.render())];
        let payloads = [
            ("characterization", characterization),
            ("object analysis", objects),
            ("autonuma trace", trace),
            ("comparison", comparison),
        ];
        Ok(payloads
            .into_iter()
            .map(|(name, sections)| {
                let payload = encode_payload(&sections);
                JournalCell { name: name.to_string(), run: Box::new(move || Ok(payload.clone())) }
            })
            .collect())
    });
    let cells = cells.map_err(err)?;
    let outcome = spans.time("journal.append_s", || {
        run_journaled(&journal, &exp.fingerprint(), cells, RunnerOptions::default())
    });
    let outcome = outcome.map_err(err)?;
    let suite = spans.time("experiments.render_s", || {
        let mut suite = ExperimentSuite::new().with_jobs(exp.jobs);
        for (name, cell) in &outcome.cells {
            match cell {
                CellOutcome::Completed { payload, .. } => {
                    suite.note_completed();
                    for section in payload.split(PAYLOAD_RS) {
                        if let Some((title, body)) = section.split_once(PAYLOAD_US) {
                            suite.section(title, body);
                        }
                    }
                }
                CellOutcome::Quarantined { error, .. } => {
                    suite.note_quarantined(name, format!("quarantined: {error}"));
                }
            }
        }
        suite.set_cell_stats(outcome.stats);
        suite
    });
    let wall = start.elapsed().as_secs_f64();

    m.digest = suite_digest(&suite);
    if suite.exit_code() != 0 || reference.exit_code() != 0 {
        m.errors.push(format!("suite failed: {}", reference.summary().trim()));
    }
    if m.digest != suite_digest(&reference) {
        m.errors.push("suite rebuilt from its entry points differs from the suite".to_string());
    }
    let journal_bytes = std::fs::metadata(&journal).map_err(err)?.len();
    for name in [
        "experiments.characterization_s",
        "experiments.objects_s",
        "experiments.autonuma_trace_s",
        "experiments.comparison_s",
        "experiments.render_s",
        "journal.append_s",
    ] {
        m.layers.insert(name, spans.get(name));
    }
    m.layers.insert("journal.bytes", journal_bytes as f64);
    trace_meta(&mut m, &spans, wall);
    Ok(m)
}

/// The traced breakdown of the tuner: `run_tune` untraced as the
/// reference, then the search and the report rendering as two spans.
fn traced_tune(workload: Workload, scratch: &Path) -> Result<Measured, String> {
    let mut m = Measured::default();
    let cfg = TuneConfig::new(workload.experiment(), Kernel::Bc, Dataset::Kron);
    let t = Instant::now();
    let reference = run_tune(&cfg, &scratch.join("reference.journal"), RunnerOptions::default())
        .map_err(err)?;
    m.wall_s = t.elapsed().as_secs_f64();

    let mut spans = Spans::default();
    let start = Instant::now();
    let out = spans.time("tune.search_s", || {
        run_tune(&cfg, &scratch.join("traced.journal"), RunnerOptions::default())
    });
    let out = out.map_err(err)?;
    let json = spans.time("tune.report_s", || {
        let r = &out.report;
        std::hint::black_box((r.render(), r.to_csv()));
        r.to_json()
    });
    let wall = start.elapsed().as_secs_f64();

    m.digest = hex16(fnv1a64(json.as_bytes()));
    if json != reference.report.to_json() {
        m.errors.push("traced tune report differs from the untraced one".to_string());
    }
    let cells = out.executed as f64;
    m.layers.extend([
        ("tune.search_s", spans.get("tune.search_s")),
        ("tune.report_s", spans.get("tune.report_s")),
        ("tune.cells", cells),
        ("tune.cell_s", spans.get("tune.search_s") / cells),
    ]);
    trace_meta(&mut m, &spans, wall);
    Ok(m)
}
