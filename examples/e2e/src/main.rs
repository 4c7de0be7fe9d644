//! `e2e`: the end-to-end benchmark of tiersim.
//!
//! ```text
//! e2e [--workloads a,b | --workload a] [--seed S] [--reps N] [--seconds S]
//!     [--traced | --trace 0|1] [--out PATH] [--bless]
//! e2e --compare A.json B.json
//! ```
//!
//! Each rep of a workload runs in its own child process (this binary with
//! `--child`), one at a time, so a run never uses more than two threads.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. README.md describes the workloads,
//! the metrics and how to compare two runs.

mod json;
mod metrics;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use metrics::{Better, END_TO_END, FAILED_FRAC, LAYERS};
use stats::{verdict, Summary, Verdict};
use tiersim_core::journal::atomic_write;
use tiersim_core::{Dataset, Kernel, WorkloadConfig};
use workloads::Workload;

const USAGE: &str = "usage: e2e [--workloads a,b | --workload a] [--seed S] [--reps N] \
     [--seconds S] [--traced | --trace 0|1] [--out PATH] [--bless]\n       \
     e2e --compare A.json B.json\nworkloads: bc_kron, pr_urand_thp, suite_s14, tune_s14";

/// Default measuring time per workload: as many whole reps as fit.
const DEFAULT_SECONDS: f64 = 20.0;

/// Golden digests, read at build time; `--bless` rewrites the file.
const GOLDEN: &str = include_str!("../golden.txt");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.txt");

/// The seed every workload uses unless told otherwise: the library's own
/// default workload seed.
fn default_seed() -> u64 {
    WorkloadConfig::new(Kernel::Bc, Dataset::Kron).seed
}

#[derive(Debug, Clone, PartialEq)]
struct RunOpts {
    workloads: Vec<Workload>,
    seed: u64,
    /// A fixed rep count; `None` runs as many whole reps as fit in
    /// `seconds` (at least one).
    reps: Option<usize>,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    bless: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum Cmd {
    Run(RunOpts),
    Child { workload: Workload, seed: u64, traced: bool },
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Cmd, String> {
    let mut o = RunOpts {
        workloads: Workload::ALL.to_vec(),
        seed: default_seed(),
        reps: None,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        bless: false,
    };
    let mut child = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        let number =
            |name: &str, v: String| v.parse::<f64>().map_err(|e| format!("bad {name}: {e}"));
        match arg.as_str() {
            "--workload" | "--workloads" => {
                o.workloads = value(&arg)?
                    .split(',')
                    .map(|n| Workload::parse(n).ok_or_else(|| format!("unknown workload {n:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => {
                o.seed = value("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?
            }
            "--reps" => {
                let n: usize = value("--reps")?.parse().map_err(|e| format!("bad --reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".to_string());
                }
                o.reps = Some(n);
            }
            "--seconds" => {
                o.seconds = number("--seconds", value("--seconds")?)?;
                if o.seconds.is_nan() || o.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--traced" => o.traced = true,
            "--trace" => {
                o.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value("--out")?)),
            "--bless" => o.bless = true,
            "--compare" => {
                let a = PathBuf::from(value("--compare")?);
                return Ok(Cmd::Compare(a, PathBuf::from(value("--compare")?)));
            }
            "--child" => {
                let name = value("--child")?;
                child = Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.workloads.is_empty() {
        return Err("no workloads selected".to_string());
    }
    Ok(match child {
        Some(workload) => Cmd::Child { workload, seed: o.seed, traced: o.traced },
        None => Cmd::Run(o),
    })
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Err(msg) => {
            eprintln!("{msg}{}{USAGE}", if msg.is_empty() { "" } else { "\n" });
            ExitCode::from(2)
        }
        Ok(Cmd::Child { workload, seed, traced }) => child(workload, seed, traced),
        Ok(Cmd::Run(opts)) => run(&opts),
        Ok(Cmd::Compare(a, b)) => compare(&a, &b),
    }
}

/// One rep in this process: prints the child report as the last line.
/// Journals go to a private directory beside the executable, inside the
/// build directory, and are removed afterwards.
fn child(workload: Workload, seed: u64, traced: bool) -> ExitCode {
    let scratch = match std::env::current_exe() {
        Ok(exe) => exe.with_file_name("e2e-tmp").join(std::process::id().to_string()),
        Err(e) => {
            eprintln!("e2e: cannot locate the executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("e2e: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let report = workloads::run_child(workload, seed, traced, &scratch);
    // Best effort: a leftover directory only costs disk space.
    let _ = std::fs::remove_dir_all(&scratch);
    println!("{report}");
    ExitCode::SUCCESS
}

/// Expected digests keyed by `(workload, seed)`; the seed is `any` for
/// workloads that take none.
#[derive(Debug, Default, PartialEq)]
struct Golden(BTreeMap<(String, String), String>);

impl Golden {
    fn parse(text: &str) -> Golden {
        let entries = text
            .lines()
            .filter(|l| !l.trim_start().starts_with('#'))
            .filter_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
                [w, seed, digest] => Some(((w.to_string(), seed.to_string()), digest.to_string())),
                _ => None,
            })
            .collect();
        Golden(entries)
    }

    fn render(&self) -> String {
        let mut s = String::from(
            "# FNV-1a64 digests of each workload's byte-compared outputs at a seed\n\
             # (`any` for workloads that take none). Rewrite entries with --bless.\n",
        );
        for ((w, seed), digest) in &self.0 {
            s.push_str(&format!("{w} {seed} {digest}\n"));
        }
        s
    }
}

fn seed_key(w: Workload, seed: u64) -> String {
    if w.seeded() {
        seed.to_string()
    } else {
        "any".to_string()
    }
}

/// Everything one workload's reps produced.
#[derive(Debug)]
struct WorkloadResult {
    workload: Workload,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    digest: Option<String>,
    golden: &'static str,
    /// Samples by metric name: the end-to-end metrics untraced, the
    /// per-layer metrics traced.
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl WorkloadResult {
    fn summary(&self, metric: &str) -> Summary {
        Summary::of(self.samples.get(metric).map_or(&[][..], Vec::as_slice))
    }

    fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

/// Spawns one child rep and returns its report.
fn spawn_child(exe: &Path, w: Workload, seed: u64, traced: bool) -> Result<Json, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--child", w.name(), "--seed", &seed.to_string()]);
    if traced {
        cmd.arg("--traced");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default();
    Json::parse(last).map_err(|e| format!("unreadable child report: {e}"))
}

/// Runs the reps of one workload and checks their outputs.
fn measure(w: Workload, o: &RunOpts, golden: &Golden) -> Result<WorkloadResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        reps.push(spawn_child(&exe, w, o.seed, o.traced));
        let done = reps.len();
        let more = match o.reps {
            Some(n) => done < n,
            None => {
                let elapsed = start.elapsed().as_secs_f64();
                elapsed + elapsed / done as f64 <= o.seconds
            }
        };
        if !more {
            break;
        }
    }

    let expected = golden.0.get(&(w.name().to_string(), seed_key(w, o.seed)));
    let mut r = WorkloadResult {
        workload: w,
        attempted: reps.len(),
        failed: 0,
        errors: Vec::new(),
        digest: None,
        golden: if o.bless {
            "blessed"
        } else if expected.is_some() {
            "match"
        } else {
            "absent"
        },
        samples: BTreeMap::new(),
    };
    for (i, rep) in reps.iter().enumerate() {
        let mut errors = Vec::new();
        match rep {
            Err(e) => errors.push(e.clone()),
            Ok(report) => {
                let list = report.get("errors").and_then(Json::as_array).unwrap_or_default();
                errors.extend(list.iter().filter_map(Json::as_str).map(str::to_string));
                let digest = report.get("digest").and_then(Json::as_str).unwrap_or_default();
                match &r.digest {
                    None => r.digest = Some(digest.to_string()),
                    Some(first) if first != digest => {
                        errors.push(format!("digest {digest} differs from rep 1's {first}"));
                    }
                    Some(_) => {}
                }
                if let Some(want) = expected.filter(|want| !o.bless && *want != digest) {
                    r.golden = "mismatch";
                    errors.push(format!("digest {digest} does not match golden {want}"));
                }
                if errors.is_empty() {
                    collect_samples(&mut r.samples, report, o.traced);
                }
            }
        }
        if !errors.is_empty() {
            r.failed += 1;
            r.errors.extend(errors.into_iter().map(|e| format!("rep {}: {e}", i + 1)));
        }
    }
    Ok(r)
}

fn collect_samples(samples: &mut BTreeMap<&'static str, Vec<f64>>, report: &Json, traced: bool) {
    let mut push = |name: &'static str, x: Option<f64>| {
        if let Some(x) = x {
            samples.entry(name).or_default().push(x);
        }
    };
    if traced {
        let layers = report.get("layers");
        for l in LAYERS {
            push(l.name, layers.and_then(|m| m.get(l.name)).and_then(Json::as_f64));
        }
    } else {
        push("wall_s", report.get("wall_s").and_then(Json::as_f64));
        push("peak_rss_mb", report.get("peak_rss_mb").and_then(Json::as_f64));
        for x in report.get("setup_s").and_then(Json::as_array).unwrap_or_default() {
            push("setup_s", x.as_f64());
        }
    }
}

/// The metrics a result reports, with unit and direction, in report
/// order.
fn reported(traced: bool) -> Vec<(&'static str, &'static str, Better)> {
    if traced {
        LAYERS.iter().map(|l| (l.name, l.unit, l.better)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit, m.better)).collect()
    }
}

fn print_result(r: &WorkloadResult, o: &RunOpts) {
    let seed = if r.workload.seeded() {
        format!("seed {}", o.seed)
    } else {
        "fixed inputs (no seed)".to_string()
    };
    println!(
        "== {}: {seed}, {} reps, {}; golden digest {} ==",
        r.workload.name(),
        r.attempted,
        if o.traced { "traced" } else { "untraced" },
        r.golden
    );
    println!(
        "  {:<32} {:<10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>3}",
        "metric", "unit", "median", "q1", "q3", "min", "max", "n"
    );
    // Whole numbers (counts) print without decimals.
    let num = |x: f64| if x.fract() == 0.0 { format!("{x:.0}") } else { format!("{x:.6}") };
    for (name, unit, _) in reported(o.traced) {
        let s = r.summary(name);
        println!(
            "  {name:<32} {unit:<10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>3}",
            num(s.median),
            num(s.q1),
            num(s.q3),
            num(s.min),
            num(s.max),
            s.n
        );
    }
    println!(
        "  {FAILED_FRAC:<32} {:<10} {:>12.6}   ({} of {} reps failed)",
        "ratio",
        r.failed_frac(),
        r.failed,
        r.attempted
    );
    for e in &r.errors {
        println!("  FAILED {e}");
    }
}

fn result_json(r: &WorkloadResult, traced: bool) -> Json {
    let metric = |name: &str, unit: &str, better: Better| {
        let samples = r.samples.get(name).cloned().unwrap_or_default();
        let s = Summary::of(&samples);
        Json::obj([
            ("unit", Json::from(unit)),
            ("better", Json::from(better.name())),
            ("samples", Json::Arr(samples.into_iter().map(Json::from).collect())),
            ("median", Json::from(s.median)),
            ("q1", Json::from(s.q1)),
            ("q3", Json::from(s.q3)),
            ("min", Json::from(s.min)),
            ("max", Json::from(s.max)),
            ("n", Json::from(s.n as u64)),
        ])
    };
    Json::obj([
        ("name", Json::from(r.workload.name())),
        ("seeded", Json::Bool(r.workload.seeded())),
        ("attempted", Json::from(r.attempted as u64)),
        ("failed", Json::from(r.failed as u64)),
        (FAILED_FRAC, Json::from(r.failed_frac())),
        ("digest", r.digest.as_deref().map_or(Json::Null, Json::from)),
        ("golden", Json::from(r.golden)),
        ("errors", Json::Arr(r.errors.iter().map(|e| Json::from(e.as_str())).collect())),
        ("metrics", Json::obj(reported(traced).into_iter().map(|(n, u, b)| (n, metric(n, u, b))))),
    ])
}

fn run(o: &RunOpts) -> ExitCode {
    let mut golden = Golden::parse(GOLDEN);
    let mut results = Vec::new();
    for &w in &o.workloads {
        match measure(w, o, &golden) {
            Ok(r) => {
                print_result(&r, o);
                results.push(r);
            }
            Err(e) => {
                eprintln!("e2e: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let correct = results.iter().all(|r| r.failed == 0);

    if o.bless {
        for r in &results {
            match (&r.digest, r.failed) {
                (Some(d), 0) => {
                    golden.0.insert(
                        (r.workload.name().to_string(), seed_key(r.workload, o.seed)),
                        d.clone(),
                    );
                }
                _ => println!("not blessing {}: its reps failed", r.workload.name()),
            }
        }
        if let Err(e) = atomic_write(Path::new(GOLDEN_PATH), golden.render().as_bytes()) {
            eprintln!("e2e: cannot write {GOLDEN_PATH}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {GOLDEN_PATH}");
    }

    if let Some(path) = &o.out {
        let doc = Json::obj([
            ("seed", Json::from(o.seed)),
            ("traced", Json::Bool(o.traced)),
            ("seconds", Json::from(o.seconds)),
            ("reps", o.reps.map_or(Json::Null, |n| Json::from(n as u64))),
            ("workloads", Json::Arr(results.iter().map(|r| result_json(r, o.traced)).collect())),
        ]);
        if let Err(e) = atomic_write(path, format!("{doc}\n").as_bytes()) {
            eprintln!("e2e: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }

    // The last line: one JSON object. With one workload the metrics carry
    // their plain names; with several, each is prefixed by its workload.
    let single = results.len() == 1;
    let mut metrics = Vec::new();
    for r in &results {
        for (name, unit, _) in reported(o.traced) {
            let key =
                if single { name.to_string() } else { format!("{}.{name}", r.workload.name()) };
            let value = Json::obj([
                ("value", Json::from(r.summary(name).median)),
                ("unit", Json::from(unit)),
            ]);
            metrics.push((key, value));
        }
    }
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(results.iter().map(|r| r.attempted as u64).sum::<u64>())),
        ("failed", Json::from(results.iter().map(|r| r.failed as u64).sum::<u64>())),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Compares two `--out` files metric by metric; exits 1 on any
/// regression.
fn compare(a_path: &Path, b_path: &Path) -> ExitCode {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads = |doc: &Json| -> Vec<Json> {
        doc.get("workloads").and_then(Json::as_array).map(<[Json]>::to_vec).unwrap_or_default()
    };
    let samples = |w: &Json, metric: &str| -> Vec<f64> {
        w.get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("samples"))
            .and_then(Json::as_array)
            .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    let field = |w: &Json, k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);

    println!("comparing {} (A) with {} (B)", a_path.display(), b_path.display());
    println!(
        "  {:<14} {:<12} {:<5} {:>32} {:>32} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound"
    );
    let mut regressed = false;
    let b_all = workloads(&b);
    for wa in workloads(&a) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?").to_string();
        let Some(wb) = b_all.iter().find(|w| w.get("name").and_then(Json::as_str) == Some(&name))
        else {
            println!("  {name:<14} missing from B");
            continue;
        };
        for m in END_TO_END {
            let (xa, xb) = (samples(&wa, m.name), samples(wb, m.name));
            if xa.is_empty() || xb.is_empty() {
                println!("  {name:<14} {:<12} no samples", m.name);
                continue;
            }
            let (sa, sb) = (Summary::of(&xa), Summary::of(&xb));
            let v = verdict(&xa, &xb, m.better, m.bound);
            regressed |= v == Verdict::Regressed;
            let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            println!(
                "  {name:<14} {:<12} {:<5} {:>32} {:>32} {:>+7.2}% {:>5.0}%  {}",
                m.name,
                m.unit,
                cell(&sa),
                cell(&sb),
                (sb.median - sa.median) / sa.median * 100.0,
                m.bound * 100.0,
                v.name()
            );
        }
        let (fa, fb) = (field(&wa, FAILED_FRAC), field(wb, FAILED_FRAC));
        let worse = fb > fa;
        regressed |= worse;
        println!(
            "  {name:<14} {FAILED_FRAC:<12} {:<5} {fa:>32} {fb:>32} {:>8} {:>6}  {}",
            "ratio",
            "",
            "any",
            if worse { Verdict::Regressed.name() } else { Verdict::Ok.name() }
        );
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cmd, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn both_flag_spellings_parse_to_the_same_options() {
        let Ok(Cmd::Run(a)) =
            parse(&["--workload", "bc_kron", "--seed", "3", "--seconds", "20", "--trace", "1"])
        else {
            panic!("single-workload flags parse");
        };
        let Ok(Cmd::Run(b)) = parse(&["--workloads", "bc_kron", "--seed", "3", "--traced"]) else {
            panic!("list flags parse");
        };
        assert_eq!(a, b);
        assert_eq!(a.workloads, [Workload::BcKron]);
        assert!(a.traced && a.reps.is_none());
        let Ok(Cmd::Run(all)) = parse(&[]) else { panic!("defaults parse") };
        assert_eq!(all.workloads, Workload::ALL);
        assert_eq!(all.seed, default_seed());
        assert_eq!(
            parse(&["--child", "tune_s14", "--seed", "9"]),
            Ok(Cmd::Child { workload: Workload::TuneS14, seed: 9, traced: false })
        );
        for bad in [
            &["--workload", "nope"][..],
            &["--reps", "0"],
            &["--seconds", "-1"],
            &["--trace", "2"],
            &["--compare", "a.json"],
            &["--bogus"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn golden_round_trips_and_skips_comments() {
        let g = Golden::parse("# header\nbc_kron 7 00ff\n\nsuite_s14 any abcd\nbroken line\n");
        assert_eq!(g.0.len(), 2);
        assert_eq!(g.0.get(&("suite_s14".to_string(), "any".to_string())).unwrap(), "abcd");
        assert_eq!(Golden::parse(&g.render()), g);
        assert_eq!(seed_key(Workload::BcKron, 7), "7");
        assert_eq!(seed_key(Workload::TuneS14, 7), "any");
    }

    #[test]
    fn committed_golden_file_parses() {
        let g = Golden::parse(GOLDEN);
        for ((w, _), digest) in &g.0 {
            assert!(Workload::parse(w).is_some(), "unknown workload {w} in golden.txt");
            assert_eq!(digest.len(), 16, "{w}: digests are 16 hex digits");
        }
    }
}
