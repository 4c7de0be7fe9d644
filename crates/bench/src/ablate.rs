//! The `repro_all ablate` subcommand: the DESIGN.md §5 ablations and the
//! two extension experiments, one named section each: a table of
//! **simulated** time plus the counters its mechanism moves, read from
//! each run's [`RunReport`]. Knob sections vary the testbed
//! ([`ExperimentConfig::machine`]) on `bc_kron`. Every row takes its
//! simulations from one [`Runs`] store keyed by machine and workload, so
//! a setting equal to the testbed reads the default AutoNUMA run, and the
//! tiering-mode section's static object row and the dynamic-object
//! extension's `bc_kron` row read one static run whenever the whole and
//! spill plans coincide.

use std::sync::Arc;
use tiersim_core::experiments::{RunKey, Runs};
use tiersim_core::journal::{
    CellError, FailureClass, Journal, JournalCell, JournalError, RunnerOptions,
};
use tiersim_core::render::{pct, TextTable};
use tiersim_core::sweep::run_cells_fallible;
use tiersim_core::{
    generate, plan_from_report, Dataset, ExperimentConfig, Kernel, Machine, MachineConfig,
    RunReport, WorkloadConfig,
};
use tiersim_graph::{bfs, build_sim_csr, BfsParams, SourcePicker};
use tiersim_mem::TlbGeometry;
use tiersim_policy::{DynamicObjectConfig, TieringMode};
use tiersim_profile::TouchHistogram;

use crate::{assemble, encode_payload, ExperimentSuite};

/// One table row, computed as one sweep cell.
type Row = Box<dyn Fn() -> Result<Vec<String>, String> + Send + Sync>;

/// A knob setting: edits the testbed, given the default run it varies.
type Tweak = fn(&mut MachineConfig, &RunReport);

/// The report under construction: titled sections of `|`-separated
/// column names and rows, in order.
struct Report {
    runs: Arc<Runs>,
    sections: Vec<(&'static str, String, Vec<Row>)>,
}

impl Report {
    fn section(&mut self, title: &'static str, header: &str, rows: Vec<Row>) {
        self.sections.push((title, header.to_string(), rows));
    }

    /// Starts a `bc_kron` knob section whose settings are named in the
    /// `label` column.
    fn knob(&mut self, title: &'static str, label: &str) -> &mut Report {
        let counters = "Hint faults|Promoted|Demoted|TLB misses|NVM accesses|NVM cycles/access";
        self.section(title, &format!("{label}|Sim time|vs default|{counters}"), Vec::new());
        self
    }

    /// Adds a setting to the last knob section: its simulated time, the
    /// change against the default run, and the knob counters.
    fn set(&mut self, setting: &'static str, tweak: Tweak) -> &mut Report {
        let runs = Arc::clone(&self.runs);
        let (_, _, rows) = self.sections.last_mut().expect("`knob` starts a section");
        rows.push(Box::new(move || {
            let cfg = runs.config();
            let key = cfg.autonuma(cfg.workload(Kernel::Bc, Dataset::Kron));
            let base = get(&runs, key.clone())?;
            let (mut machine, w) = key;
            tweak(&mut machine, &base);
            let r = get(&runs, (machine, w))?;
            let change = signed_pct(r.total_secs / base.total_secs - 1.0);
            // External counts and cycles are indexed by tier: [DRAM, NVM].
            let [_, nvm] = r.mem_stats.external_counts.map(|tier| tier.iter().sum::<u64>());
            let [_, nvm_cycles] = r.mem_stats.external_cycles.map(|tier| tier.iter().sum::<u64>());
            let c = &r.counters;
            let mut row = vec![setting.to_string(), ms(r.total_secs), change];
            row.extend(cols(&[c.numa_hint_faults, c.pgpromote_success, c.pgdemote_total()]));
            row.extend(cols(&[r.mem_stats.tlb_misses, nvm]));
            row.push(format!("{:.1}", nvm_cycles as f64 / nvm.max(1) as f64));
            Ok(row)
        }));
        self
    }
}

/// The run of `key` from `runs`, its error as a row error.
fn get(runs: &Runs, key: RunKey) -> Result<Arc<RunReport>, String> {
    runs.get(key).map_err(|e| e.to_string())
}

/// Simulated seconds as milliseconds.
fn ms(secs: f64) -> String {
    format!("{:.3}ms", secs * 1e3)
}

fn signed_pct(fraction: f64) -> String {
    format!("{:+.1}%", fraction * 100.0)
}

fn cols(values: &[u64]) -> Vec<String> {
    values.iter().map(u64::to_string).collect()
}

/// DESIGN.md §5 item 5, driven directly on a testbed machine: the
/// workload's BFS trials over a freshly built graph, with their simulated
/// time, direction steps and the touch histogram of their samples.
fn bfs_row(cfg: ExperimentConfig, dataset: Dataset, label: &'static str, p: BfsParams) -> Row {
    Box::new(move || {
        let w = cfg.workload(Kernel::Bfs, dataset);
        let machine = cfg.machine(TieringMode::AutoNuma);
        let threads = machine.threads;
        let mut m = Machine::new(machine).map_err(|e| e.to_string())?;
        let g = build_sim_csr(&mut m, &generate(&w), true, threads);
        let mut picker = SourcePicker::new(w.seed ^ 0x5eed);
        let (t0, s0) = (m.now_secs(), m.samples().len());
        let (mut top_down, mut bottom_up) = (0, 0);
        for _ in 0..w.trials {
            let r = bfs(&mut m, &g, picker.pick(&g), threads, p);
            (top_down, bottom_up) = (top_down + r.top_down_steps, bottom_up + r.bottom_up_steps);
            r.dist.into_host(&mut m);
        }
        let touches = TouchHistogram::of(m.samples().get(s0..).unwrap_or_default());
        let (one, two, three) = touches.access_fractions();
        let steps = cols(&[top_down as u64, bottom_up as u64]);
        let time = vec![w.name(), label.to_string(), ms(m.now_secs() - t0)];
        Ok([time, steps, vec![pct(one), pct(two), pct(three)]].concat())
    })
}

/// An extension row: `w` under AutoNUMA against the paper's static object
/// mapping (spill variant), then the online object tierer if `dynamic`,
/// else the AutoNUMA run's touch profile and promotions.
fn object_row(runs: &Arc<Runs>, w: WorkloadConfig, dynamic: bool) -> Row {
    let runs = Arc::clone(runs);
    Box::new(move || {
        let (mut machine, w) = runs.config().autonuma(w);
        let auto = get(&runs, (machine.clone(), w))?;
        static_object(&mut machine, &auto, true);
        let stat = get(&runs, (machine.clone(), w))?;
        let gain = |r: &RunReport| signed_pct(1.0 - r.total_secs / auto.total_secs);
        if dynamic {
            machine.mode = TieringMode::DynamicObject(DynamicObjectConfig::default());
            let dynr = get(&runs, (machine, w))?;
            let times = [&auto, &stat, &dynr].map(|r| ms(r.total_secs)).to_vec();
            Ok([vec![w.name()], times, vec![gain(&stat), gain(&dynr)]].concat())
        } else {
            let (one, _, three) = TouchHistogram::of(&auto.samples).access_fractions();
            let promoted = auto.counters.pgpromote_success.to_string();
            let profile = vec![w.dataset.to_string(), pct(one), pct(three), promoted];
            Ok([profile, vec![ms(auto.total_secs), ms(stat.total_secs), gain(&stat)]].concat())
        }
    })
}

/// Switches `m` to the paper's static object mapping profiled from `r`.
fn static_object(m: &mut MachineConfig, r: &RunReport, spill: bool) {
    m.mode = TieringMode::StaticObject(plan_from_report(r, m, spill));
}

/// Sets the dTLB and sTLB sizes, keeping their associativity.
fn tlb(m: &mut MachineConfig, dtlb: usize, stlb: usize) {
    m.mem.dtlb = TlbGeometry { entries: dtlb, ways: 4 };
    m.mem.stlb = TlbGeometry { entries: stlb, ways: 8 };
}

/// Every section of the report, in order.
fn sections(r: &mut Report) {
    let (runs, cfg) = (Arc::clone(&r.runs), *r.runs.config());
    let dynamic = [Kernel::Bc, Kernel::Cc]
        .map(|k| [Dataset::Kron, Dataset::Urand].map(|d| cfg.workload(k, d)))
        .concat();
    let locality =
        [Dataset::Kron, Dataset::Urand, Dataset::Road].map(|d| cfg.workload(Kernel::Bfs, d));
    // Every default run the rows read (`bc_kron` included), simulated
    // once on `jobs` workers.
    let defaults: Vec<_> = dynamic.iter().chain(&locality).map(|&w| cfg.autonuma(w)).collect();
    runs.get_all(&defaults);
    // Unbuffered, every NVM access pays the media latency.
    r.knob("Ablation: NVM XPBuffer (bc_kron)", "XPBuffer").set("buffered", |_, _| {}).set(
        "unbuffered",
        |m, _| {
            m.mem.nvm.buffer_entries = 1;
            m.mem.nvm.read_hit = m.mem.nvm.read_miss;
            m.mem.nvm.write_hit = m.mem.nvm.write_miss;
        },
    );
    r.knob("Ablation: promotion rate limit (bc_kron)", "Rate limit")
        .set("1 MB/s", |m, _| m.os.promo_rate_limit_bytes_per_sec = 1 << 20)
        .set("64 MB/s", |m, _| m.os.promo_rate_limit_bytes_per_sec = 64 << 20)
        .set("65536 MB/s", |m, _| m.os.promo_rate_limit_bytes_per_sec = 65_536 << 20);
    // Clamps pinned to the initial value disable adaptation.
    r.knob("Ablation: promotion threshold (bc_kron)", "Threshold").set("dynamic", |_, _| {}).set(
        "fixed",
        |m, _| {
            let t = m.os.hot_threshold_cycles;
            (m.os.hot_threshold_min_cycles, m.os.hot_threshold_max_cycles) = (t, t);
        },
    );
    r.knob("Ablation: adaptive scan period (bc_kron)", "Scan period")
        .set("fixed", |m, _| m.os.scan_period_adaptive = false)
        .set("adaptive", |m, _| m.os.scan_period_adaptive = true);
    r.knob("Ablation: page cache (bc_kron)", "Page cache")
        .set("enabled", |_, _| {})
        .set("disabled", |m, _| m.os.page_cache_enabled = false);
    // `alpha == 1` never switches to bottom-up.
    let top_down = BfsParams { alpha: 1, ..BfsParams::default() };
    let directions = [("direction-optimizing", BfsParams::default()), ("top-down only", top_down)];
    let bfs_rows = [Dataset::Kron, Dataset::Urand]
        .into_iter()
        .flat_map(|d| directions.map(|(label, p)| bfs_row(cfg, d, label, p)));
    let header = "Workload|Direction|BFS time|Top-down|Bottom-up|1 touch|2 touches|3+ touches";
    r.section("Ablation: BFS direction optimization", header, bfs_rows.collect());
    r.knob("Ablation: TLB reach (bc_kron)", "dTLB/sTLB entries")
        .set("16/64", |m, _| tlb(m, 16, 64))
        .set("64/512", |m, _| tlb(m, 64, 512))
        .set("256/4096", |m, _| tlb(m, 256, 4096));
    r.knob("Ablation: tiering mode (bc_kron)", "Mode")
        .set("AutoNUMA", |_, _| {})
        .set("static object", |m, r| static_object(m, r, false))
        .set("Memory Mode", |m, _| m.mode = TieringMode::MemoryMode)
        .set("all-NVM", |m, _| m.mode = TieringMode::AllNvm);
    let rows = |ws: &[WorkloadConfig], dynamic| {
        ws.iter().map(|&w| object_row(&runs, w, dynamic)).collect()
    };
    let header = "Workload|AutoNUMA|Static object|Dynamic object|Static gain|Dynamic gain";
    r.section("Extension: dynamic vs static object-level tiering", header, rows(&dynamic, true));
    let header = "Dataset|1 touch|3+ touches|Promotions|AutoNUMA|Static|Static gain";
    r.section(
        "Extension: dataset locality (bfs, irregular vs lattice)",
        header,
        rows(&locality, false),
    );
}

/// Runs every ablation and extension section, one cell each on a
/// file-less [`Journal`], whose rows run on `experiment.jobs` workers, so
/// the recorded bytes ([`ExperimentSuite::output`]) are identical for
/// every `jobs` value. A section with a failed row is quarantined after
/// one attempt (its rows are deterministic simulations, so a retry would
/// only repeat the failure); the others still render.
///
/// # Errors
///
/// [`JournalError::DuplicateCell`] if two sections shared a title.
pub fn run_ablate(experiment: &ExperimentConfig) -> Result<ExperimentSuite, JournalError> {
    let mut report = Report { runs: Arc::new(Runs::new(experiment)), sections: Vec::new() };
    sections(&mut report);
    let jobs = experiment.jobs;
    let cells = report.sections.into_iter().map(|(title, header, rows)| JournalCell {
        name: title.to_string(),
        run: Box::new(move || {
            let mut t = TextTable::new(header.split('|').collect());
            for row in run_cells_fallible(jobs, rows.iter().map(|row| || row()).collect()) {
                let message = |e| CellError { class: FailureClass::Error, message: format!("{e}") };
                t.row(row.map_err(message)?);
            }
            Ok(encode_payload(&[(title.to_string(), t.render())]))
        }),
    });
    let opts = RunnerOptions { jobs: 1, max_attempts: 1, kill: None };
    let outcome = Journal::without_file().run(cells.collect(), opts)?;
    Ok(assemble(jobs, &outcome.cells))
}
