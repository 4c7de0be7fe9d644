//! Durable, crash-safe execution layer for experiment sweeps (ISSUE 7).
//!
//! A sweep's cells are independent deterministic simulations, so the only
//! state worth persisting is *which cell produced which bytes*. This
//! module provides exactly that:
//!
//! - every cell's inputs hash into a stable [`CellId`];
//! - each lifecycle step appends one checksummed JSONL record to a
//!   write-ahead journal ([`JournalWriter`]) — `start` before a cell
//!   runs, `done`/`fail` after, `quarantine` when retries are exhausted;
//! - on restart, [`replay`] folds the journal back into per-cell state:
//!   completed cells are *reused* (their payload comes from the journal,
//!   never re-executed), everything else re-runs;
//! - final artifacts (reports, trace exports) are published with
//!   [`atomic_write`], the tmp + fsync + rename helper — a reader never
//!   observes a half-written file.
//!
//! Crash safety is *proven*, not assumed: [`KillSpec`] aborts the runner
//! at the Nth journal append (optionally leaving a torn half-line, the
//! worst a real SIGKILL can do to an appended file), and the recovery
//! tests assert that resuming produces byte-identical output to an
//! uninterrupted run. See DESIGN.md §13 for the record schema.
//!
//! Like the trace exporters, everything here is dependency-free by
//! construction (hand-rolled JSON, FNV-1a64 checksums). [`replay`] is
//! the format's only reader: `--resume` folds a journal with it and
//! `cargo xtask journal-check` validates one with it.

pub mod codec;
mod runner;

pub use runner::{
    run_journaled, CellError, CellOutcome, FailureClass, JournalCell, JournalOutcome, JournalStats,
    RunnerOptions,
};

use codec::{escape_json, fnv1a64, hex16};
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use tiersim_trace::json::{parse_object, Value};

/// Journal format version; bumped on incompatible schema changes.
pub const JOURNAL_VERSION: u64 = 1;

/// A stable identifier for one experiment cell: FNV-1a64 over the cell's
/// name and the sweep fingerprint, rendered as 16 hex digits. The same
/// cell under the same configuration gets the same ID on every host and
/// every run — that is what lets a resumed run match journal records back
/// to cells.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(
    /// The 16-hex-digit FNV-1a64 hash.
    pub String,
);

impl CellId {
    /// Derives the ID for the cell `name` under `fingerprint`.
    pub fn derive(name: &str, fingerprint: &str) -> CellId {
        let mut bytes = Vec::with_capacity(name.len() + fingerprint.len() + 1);
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0x1f); // unit separator: "a"+"bc" never collides with "ab"+"c"
        bytes.extend_from_slice(fingerprint.as_bytes());
        CellId(hex16(fnv1a64(&bytes)))
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Journal-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// An I/O operation on the journal or an artifact failed.
    Io(String),
    /// The journal on disk was written under a different sweep
    /// configuration; resuming would mix incompatible results.
    FingerprintMismatch {
        /// Fingerprint of the sweep asking to resume.
        expected: String,
        /// Fingerprint recorded in the journal's meta record.
        found: String,
    },
    /// A record before the final line failed validation — real corruption,
    /// not a torn tail, so the journal cannot be trusted.
    Corrupt {
        /// 1-based line number of the offending record.
        line: usize,
        /// What failed.
        what: String,
    },
    /// Two cells in one sweep derived the same ID (duplicate names).
    DuplicateCell(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io: {e}"),
            JournalError::FingerprintMismatch { expected, found } => write!(
                f,
                "journal fingerprint mismatch: sweep is `{expected}` but journal was written \
                 under `{found}`"
            ),
            JournalError::Corrupt { line, what } => {
                write!(f, "journal corrupt at line {line}: {what}")
            }
            JournalError::DuplicateCell(id) => {
                write!(f, "duplicate cell id {id}: cell names must be unique")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e.to_string())
    }
}

/// Writes `bytes` to `path` atomically: tmp file in the same directory,
/// fsync, rename over the destination. A crash at any point leaves either
/// the old file or the new one — never a torn mix. Every final artifact
/// (reports, CSVs, trace exports) must go through here; the `atomic-write`
/// lint rule (`cargo xtask lint`) forbids direct `fs::write` elsewhere.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_sibling(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            // Best effort: don't leave the temp file behind on failure.
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// The temp-file path `atomic_write` stages into: `<file>.tmp` beside the
/// destination (same filesystem, so the rename is atomic).
fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// How a [`KillSpec`] terminates the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// Raise a [`crate::sweep::SweepAbort`] panic — unwinds through the
    /// sweep like a crash but stays inside the process, so tests can
    /// catch it and immediately resume.
    Panic,
    /// `process::exit(137)` — the real thing, exactly what a SIGKILLed
    /// process looks like to its parent. Used by `repro_all --kill-at`
    /// and the CI kill-and-resume smoke job.
    Exit,
}

/// Deterministic kill-point injector: abort the runner *instead of*
/// performing the Nth journal append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// 1-based append index to die at. An index beyond the run's total
    /// append count never fires — the run completes normally.
    pub at_append: u64,
    /// Write the first half of the record (no newline) before dying,
    /// simulating the torn tail a mid-write crash leaves behind.
    pub torn: bool,
    /// How to die.
    pub mode: KillMode,
}

/// One validated journal record, decoded from a JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// First record of every journal: schema version + sweep fingerprint.
    Meta {
        /// The sweep fingerprint (see `ExperimentConfig::fingerprint`).
        fingerprint: String,
    },
    /// A cell attempt is about to execute.
    Start {
        /// Cell ID.
        cell: CellId,
        /// Human-readable cell name.
        name: String,
        /// 1-based attempt number.
        attempt: u64,
    },
    /// A cell attempt completed; `payload` is the cell's output bytes.
    Done {
        /// Cell ID.
        cell: CellId,
        /// 1-based attempt number.
        attempt: u64,
        /// The cell's serialized result.
        payload: String,
    },
    /// A cell attempt failed and may be retried.
    Fail {
        /// Cell ID.
        cell: CellId,
        /// 1-based attempt number.
        attempt: u64,
        /// Failure class: `error`, `panic`, or `stuck`.
        class: String,
        /// Rendered failure message.
        error: String,
    },
    /// A cell exhausted its retry budget and is out of the sweep.
    Quarantine {
        /// Cell ID.
        cell: CellId,
        /// Attempts consumed before giving up.
        attempts: u64,
        /// The final failure message.
        error: String,
    },
}

impl Record {
    /// Serializes the record as one JSONL line (no trailing newline):
    /// `{` + core fields + `,"crc":"<hex16>"}` where the checksum covers
    /// the core field bytes.
    pub fn to_line(&self, seq: u64) -> String {
        let core = match self {
            Record::Meta { fingerprint } => format!(
                "\"v\":{JOURNAL_VERSION},\"seq\":{seq},\"kind\":\"meta\",\"fingerprint\":\"{}\"",
                escape_json(fingerprint)
            ),
            Record::Start { cell, name, attempt } => format!(
                "\"v\":{JOURNAL_VERSION},\"seq\":{seq},\"kind\":\"start\",\"cell\":\"{cell}\",\
                 \"name\":\"{}\",\"attempt\":{attempt}",
                escape_json(name)
            ),
            Record::Done { cell, attempt, payload } => format!(
                "\"v\":{JOURNAL_VERSION},\"seq\":{seq},\"kind\":\"done\",\"cell\":\"{cell}\",\
                 \"attempt\":{attempt},\"payload\":\"{}\"",
                escape_json(payload)
            ),
            Record::Fail { cell, attempt, class, error } => format!(
                "\"v\":{JOURNAL_VERSION},\"seq\":{seq},\"kind\":\"fail\",\"cell\":\"{cell}\",\
                 \"attempt\":{attempt},\"class\":\"{class}\",\"error\":\"{}\"",
                escape_json(error)
            ),
            Record::Quarantine { cell, attempts, error } => format!(
                "\"v\":{JOURNAL_VERSION},\"seq\":{seq},\"kind\":\"quarantine\",\
                 \"cell\":\"{cell}\",\"attempts\":{attempts},\"error\":\"{}\"",
                escape_json(error)
            ),
        };
        format!("{{{core},\"crc\":\"{}\"}}", hex16(fnv1a64(core.as_bytes())))
    }
}

/// Checks a raw line's recorded crc against its core bytes and returns
/// the core.
fn verify_crc(line: &str) -> Option<&str> {
    let rest = line.trim_end_matches(['\r']).strip_prefix('{')?;
    let marker = ",\"crc\":\"";
    let pos = rest.rfind(marker)?;
    let core = &rest[..pos];
    let crc_part = rest[pos + marker.len()..].strip_suffix("\"}")?;
    (hex16(fnv1a64(core.as_bytes())) == crc_part).then_some(core)
}

/// Replayed per-cell state: the fold of every journal record that names
/// one cell. Order-insensitive; the latest decisive record wins.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellState {
    /// Cell name from the latest `start` record, if any.
    pub name: Option<String>,
    /// Payload from a `done` record — the cell is complete and must not
    /// re-execute.
    pub payload: Option<String>,
    /// The attempt number that produced `payload`.
    pub done_attempt: u64,
    /// Number of `fail` records (attempts already consumed).
    pub fails: u64,
    /// The most recent failure message.
    pub last_error: Option<String>,
    /// Whether a `quarantine` record exists for the cell.
    pub quarantined: bool,
    /// Whether any `start` record exists (an attempt began; absence of an
    /// outcome record means the runner died mid-cell).
    pub started: bool,
}

/// The fold of an entire journal file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Fingerprint from the meta record.
    pub fingerprint: String,
    /// Per-cell state, keyed by cell ID.
    pub cells: BTreeMap<CellId, CellState>,
    /// Count of valid records consumed (including meta).
    pub records: usize,
    /// The next unused sequence number.
    pub next_seq: u64,
    /// Byte length of the valid prefix; anything past it is a torn tail.
    pub valid_len: usize,
    /// Whether a torn (half-written) final line was discarded.
    pub torn_tail: bool,
}

/// Folds journal `text` into per-cell state. This is the one reader of
/// the journal format: `--resume` and `cargo xtask journal-check` both
/// call it, so a journal one accepts the other accepts too.
///
/// Every complete line must carry a matching crc, `v` = 1, a `seq`
/// above the previous line's, and the fields its kind needs; `meta`
/// comes first and only there. A torn *final* line — the worst a
/// mid-append crash can leave — is tolerated and reported via
/// [`Replay::torn_tail`]; the resume path truncates it before appending.
///
/// # Errors
///
/// [`JournalError::Corrupt`] naming the first line that breaks a rule,
/// or line 1 when the journal holds no complete record.
pub fn replay(text: &str) -> Result<Replay, JournalError> {
    let mut cells: BTreeMap<CellId, CellState> = BTreeMap::new();
    let mut fingerprint: Option<String> = None;
    let mut records = 0usize;
    let mut last_seq: Option<u64> = None;
    let mut valid_len = 0usize;
    let mut torn_tail = false;
    for (idx, line) in text.split_inclusive('\n').enumerate() {
        let corrupt = |what: String| JournalError::Corrupt { line: idx + 1, what };
        let parsed =
            line.strip_suffix('\n').and_then(|l| verify_crc(l).and_then(|_| parse_object(l)));
        let Some(obj) = parsed else {
            // Only the final line may be torn; everything else is
            // corruption. (Every earlier line was valid, so `valid_len`
            // is where this one starts.)
            if valid_len + line.len() == text.len() {
                torn_tail = true;
                break;
            }
            return Err(corrupt("bad checksum or malformed record followed by valid data".into()));
        };
        let string = |k: &str| {
            obj.get(k)
                .and_then(Value::as_str)
                .ok_or_else(|| corrupt(format!("missing string `{k}`")))
        };
        let number = |k: &str| {
            obj.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| corrupt(format!("missing number `{k}`")))
        };
        let version = number("v")?;
        if version != JOURNAL_VERSION {
            return Err(corrupt(format!("unsupported journal version {version}")));
        }
        let seq = number("seq")?;
        if let Some(prev) = last_seq.filter(|&prev| seq <= prev) {
            return Err(corrupt(format!("seq went {prev} -> {seq}, must strictly increase")));
        }
        last_seq = Some(seq);
        let kind = string("kind")?;
        if (kind == "meta") != (records == 0) {
            return Err(corrupt("meta must be exactly the first record".into()));
        }
        match kind {
            "meta" => fingerprint = Some(string("fingerprint")?.to_string()),
            "start" | "done" | "fail" | "quarantine" => {
                let state = cells.entry(CellId(string("cell")?.to_string())).or_default();
                match kind {
                    "start" => {
                        number("attempt")?;
                        state.name = Some(string("name")?.to_string());
                        state.started = true;
                    }
                    "done" => {
                        state.done_attempt = number("attempt")?;
                        state.payload = Some(string("payload")?.to_string());
                    }
                    "fail" => {
                        number("attempt")?;
                        string("class")?;
                        state.last_error = Some(string("error")?.to_string());
                        state.fails += 1;
                    }
                    _ => {
                        number("attempts")?;
                        state.last_error = Some(string("error")?.to_string());
                        state.quarantined = true;
                    }
                }
            }
            other => return Err(corrupt(format!("unknown record kind `{other}`"))),
        }
        records += 1;
        valid_len += line.len();
    }
    let fingerprint = fingerprint.ok_or(JournalError::Corrupt {
        line: 1,
        what: "journal has no complete record".to_string(),
    })?;
    let next_seq = last_seq.map_or(0, |s| s.saturating_add(1));
    Ok(Replay { fingerprint, cells, records, next_seq, valid_len, torn_tail })
}

struct WriterInner {
    file: std::fs::File,
    seq: u64,
    appends: u64,
    dead: bool,
}

/// Append-only, fsync-per-record journal writer, shared across sweep
/// workers through an internal mutex.
///
/// With a [`KillSpec`] armed, the writer dies *instead of* performing the
/// specified append (optionally leaving a torn half-line first). After a
/// `Panic`-mode kill, every later append from any worker also raises
/// [`crate::sweep::SweepAbort`]: the journal is dead, exactly as if the
/// process were.
pub struct JournalWriter {
    inner: Mutex<WriterInner>,
    kill: Option<KillSpec>,
}

impl fmt::Debug for JournalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournalWriter").field("kill", &self.kill).finish_non_exhaustive()
    }
}

impl JournalWriter {
    /// Creates a fresh journal at `path` (truncating any previous file)
    /// and writes the meta record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the meta append itself may also trip an
    /// armed kill-point.
    pub fn create(
        path: &Path,
        fingerprint: &str,
        kill: Option<KillSpec>,
    ) -> Result<JournalWriter, JournalError> {
        let file = std::fs::File::create(path)?;
        let writer = JournalWriter {
            inner: Mutex::new(WriterInner { file, seq: 0, appends: 0, dead: false }),
            kill,
        };
        writer.append(&Record::Meta { fingerprint: fingerprint.to_string() });
        Ok(writer)
    }

    /// Opens an existing journal for appending, truncating a torn tail
    /// (per `replay.valid_len`) so new records always follow valid ones.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn resume(
        path: &Path,
        replay: &Replay,
        kill: Option<KillSpec>,
    ) -> Result<JournalWriter, JournalError> {
        use std::io::Seek as _;
        let mut file = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(replay.valid_len as u64)?;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(JournalWriter {
            inner: Mutex::new(WriterInner { file, seq: replay.next_seq, appends: 0, dead: false }),
            kill,
        })
    }

    /// Appends one record, fsyncing before returning — once this returns,
    /// the record survives any crash. The record's `seq` is taken and its
    /// line written under one lock, so at any worker count the file's
    /// `seq`s strictly increase, as [`replay`] requires.
    ///
    /// # Panics
    ///
    /// Raises [`crate::sweep::SweepAbort`] when an armed kill-point fires
    /// (or already fired), and on I/O failure mid-sweep — both unwound
    /// through the fallible lane as whole-runner death, never recorded as
    /// a cell failure.
    pub fn append(&self, record: &Record) {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if inner.dead {
            std::panic::panic_any(crate::sweep::SweepAbort("journal dead after kill-point"));
        }
        inner.appends += 1;
        let line = record.to_line(inner.seq);
        inner.seq += 1;
        if let Some(kill) = self.kill {
            if inner.appends == kill.at_append {
                if kill.torn {
                    let torn = &line.as_bytes()[..line.len() / 2];
                    let _ = inner.file.write_all(torn);
                    let _ = inner.file.sync_data();
                }
                inner.dead = true;
                drop(inner);
                match kill.mode {
                    KillMode::Panic => {
                        std::panic::panic_any(crate::sweep::SweepAbort("kill-point"))
                    }
                    KillMode::Exit => std::process::exit(137),
                }
            }
        }
        let write = (|| -> std::io::Result<()> {
            inner.file.write_all(line.as_bytes())?;
            inner.file.write_all(b"\n")?;
            inner.file.sync_data()
        })();
        if write.is_err() {
            inner.dead = true;
            std::panic::panic_any(crate::sweep::SweepAbort("journal write failed"));
        }
    }

    /// Total appends attempted so far (including one that died at a
    /// kill-point).
    pub fn appends(&self) -> u64 {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).appends
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepAbort;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};

    static TEST_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    /// A unique scratch path that never depends on wall-clock time.
    fn scratch(tag: &str) -> PathBuf {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("tiersim-journal-{}-{tag}-{n}", std::process::id()))
    }

    fn cell(n: u64) -> CellId {
        CellId(hex16(n))
    }

    #[test]
    fn records_roundtrip_through_replay() {
        let path = scratch("roundtrip");
        let w = JournalWriter::create(&path, "fp-1", None).unwrap();
        w.append(&Record::Start { cell: cell(1), name: "alpha".to_string(), attempt: 1 });
        w.append(&Record::Done {
            cell: cell(1),
            attempt: 1,
            payload: "line a\nline b".to_string(),
        });
        w.append(&Record::Start { cell: cell(2), name: "beta".to_string(), attempt: 1 });
        w.append(&Record::Fail {
            cell: cell(2),
            attempt: 1,
            class: "panic".to_string(),
            error: "boom \"quoted\"".to_string(),
        });
        w.append(&Record::Quarantine { cell: cell(3), attempts: 3, error: "stuck".to_string() });
        let text = std::fs::read_to_string(&path).unwrap();
        let r = replay(&text).unwrap();
        assert_eq!(r.fingerprint, "fp-1");
        assert_eq!(r.records, 6);
        assert!(!r.torn_tail);
        let one = &r.cells[&cell(1)];
        assert_eq!(one.payload.as_deref(), Some("line a\nline b"));
        assert_eq!(one.name.as_deref(), Some("alpha"));
        let two = &r.cells[&cell(2)];
        assert!(two.payload.is_none());
        assert_eq!(two.fails, 1);
        assert_eq!(two.last_error.as_deref(), Some("boom \"quoted\""));
        assert!(r.cells[&cell(3)].quarantined);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated_and_truncated_on_resume() {
        let path = scratch("torn");
        let w = JournalWriter::create(&path, "fp", None).unwrap();
        w.append(&Record::Done { cell: cell(9), attempt: 1, payload: "ok".to_string() });
        drop(w);
        // Simulate a mid-append crash: half a record, no newline.
        let full = std::fs::read_to_string(&path).unwrap();
        let torn_line =
            Record::Done { cell: cell(10), attempt: 1, payload: "lost".to_string() }.to_line(99);
        let mut torn = full.clone().into_bytes();
        torn.extend_from_slice(&torn_line.as_bytes()[..torn_line.len() / 2]);
        atomic_write(&path, &torn).unwrap();
        let r = replay(std::str::from_utf8(&torn).unwrap()).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.records, 2, "the torn record is discarded");
        assert_eq!(r.valid_len, full.len());
        assert!(!r.cells.contains_key(&cell(10)));
        // Resume truncates the tail; the next append lands on a clean file.
        let w = JournalWriter::resume(&path, &r, None).unwrap();
        w.append(&Record::Done { cell: cell(11), attempt: 1, payload: "after".to_string() });
        let r2 = replay(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(!r2.torn_tail);
        assert_eq!(r2.records, 3);
        assert!(r2.cells[&cell(11)].payload.is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_refused() {
        let path = scratch("corrupt");
        let w = JournalWriter::create(&path, "fp", None).unwrap();
        w.append(&Record::Done { cell: cell(1), attempt: 1, payload: "a".to_string() });
        w.append(&Record::Done { cell: cell(2), attempt: 1, payload: "b".to_string() });
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // Flip a byte in the middle record: its crc no longer matches.
        lines[1] = lines[1].replace("\"payload\":\"a\"", "\"payload\":\"A\"");
        let tampered = lines.join("\n") + "\n";
        assert!(matches!(replay(&tampered), Err(JournalError::Corrupt { line: 2, .. })));
        std::fs::remove_file(&path).unwrap();

        // Schema violations under valid checksums, each refused at the
        // line that commits it.
        let line =
            |core: &str| format!("{{{core},\"crc\":\"{}\"}}\n", hex16(fnv1a64(core.as_bytes())));
        let meta = line("\"v\":1,\"seq\":0,\"kind\":\"meta\",\"fingerprint\":\"f\"");
        let start = line(
            "\"v\":1,\"seq\":1,\"kind\":\"start\",\"cell\":\"a\",\"name\":\"n\",\"attempt\":1",
        );
        let cases = [
            (String::new(), 1, "no complete record"),
            (start.clone(), 1, "meta"),
            (
                meta.clone() + &line("\"v\":1,\"seq\":1,\"kind\":\"meta\",\"fingerprint\":\"g\""),
                2,
                "meta",
            ),
            (meta.clone() + &start + &start, 3, "strictly increase"),
            (
                meta.clone() + &line("\"v\":1,\"seq\":1,\"kind\":\"mystery\",\"cell\":\"a\""),
                2,
                "unknown record kind",
            ),
            (
                line("\"v\":2,\"seq\":0,\"kind\":\"meta\",\"fingerprint\":\"f\"") + "{\"v\":1",
                1,
                "version",
            ),
            (
                meta.clone()
                    + &line("\"v\":1,\"seq\":1,\"kind\":\"done\",\"cell\":\"a\",\"attempt\":1")
                    + &start,
                2,
                "payload",
            ),
        ];
        for (text, at, what) in cases {
            match replay(&text) {
                Err(JournalError::Corrupt { line, what: got }) => {
                    assert_eq!(line, at, "{got}");
                    assert!(got.contains(what), "{got} lacks {what}");
                }
                other => panic!("accepted {text:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn kill_point_fires_at_exact_append_and_poisons_the_writer() {
        let path = scratch("kill");
        // Append #3 (meta is #1) dies instead of landing.
        let kill = KillSpec { at_append: 3, torn: false, mode: KillMode::Panic };
        let w = JournalWriter::create(&path, "fp", Some(kill)).unwrap();
        w.append(&Record::Done { cell: cell(1), attempt: 1, payload: "one".to_string() });
        let died = catch_unwind(AssertUnwindSafe(|| {
            w.append(&Record::Done { cell: cell(2), attempt: 1, payload: "two".to_string() });
        }))
        .unwrap_err();
        assert_eq!(died.downcast_ref::<SweepAbort>(), Some(&SweepAbort("kill-point")));
        // The killed append never landed; later appends die too.
        let again = catch_unwind(AssertUnwindSafe(|| {
            w.append(&Record::Done { cell: cell(3), attempt: 1, payload: "three".to_string() });
        }))
        .unwrap_err();
        assert!(again.is::<SweepAbort>());
        let r = replay(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(r.records, 2, "only the appends before the kill survive");
        assert!(!r.cells.contains_key(&cell(2)));
        assert!(!r.cells.contains_key(&cell(3)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_kill_leaves_a_recoverable_half_line() {
        let path = scratch("torn-kill");
        let kill = KillSpec { at_append: 2, torn: true, mode: KillMode::Panic };
        let w = JournalWriter::create(&path, "fp", Some(kill)).unwrap();
        let died = catch_unwind(AssertUnwindSafe(|| {
            w.append(&Record::Done { cell: cell(1), attempt: 1, payload: "gone".to_string() });
        }))
        .unwrap_err();
        assert!(died.is::<SweepAbort>());
        let text = std::fs::read_to_string(&path).unwrap();
        let r = replay(&text).unwrap();
        assert!(r.torn_tail, "the half-written record reads as a torn tail");
        assert_eq!(r.records, 1, "only meta survives");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_shape_renders() {
        let e =
            JournalError::FingerprintMismatch { expected: "a".to_string(), found: "b".to_string() };
        assert!(e.to_string().contains("fingerprint"));
    }

    #[test]
    fn atomic_write_replaces_content_and_cleans_tmp() {
        let path = scratch("atomic");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second version").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second version");
        assert!(!tmp_sibling(&path).exists(), "no staging file left behind");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cell_ids_are_stable_and_separator_safe() {
        assert_eq!(CellId::derive("bfs-kron", "fp"), CellId::derive("bfs-kron", "fp"));
        assert_ne!(CellId::derive("bfs-kron", "fp"), CellId::derive("bfs-kron", "fp2"));
        assert_ne!(CellId::derive("ab", "c"), CellId::derive("a", "bc"));
        assert_eq!(CellId::derive("x", "y").0.len(), 16);
    }
}
