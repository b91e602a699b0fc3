//! The concurrent project store: cache entries keyed by canonical path,
//! each valid for exactly the source bytes it was built from.
//!
//! One [`ProjectStore`] lives for the daemon's whole life. Each `.bang`
//! file gets one slot, which survives evictions; the [`Snapshot`] it
//! publishes (parsed [`Project`], memoized check renders, schedules, the
//! warm [`Session`]) is rebuilt whenever the file's bytes differ from the
//! text that snapshot keeps. Bytes are compared, never only hashed:
//! every request reads the whole file, and a snapshot answers it only if
//! that read equals its text.
//!
//! A rebuild starts from the new bytes alone and invalidates nothing in
//! place: the snapshot being replaced is only a *donor*. A program whose
//! `begin-program` block is byte for byte one the donor was parsed from
//! is shared with it — AST, bytecode, static cost and the seeded analyses
//! `diagnose` memoizes with it (see [`banger_calc::library`]) — because
//! all of those are functions of that text alone. Everything at design
//! level is built again: the new [`Project`] starts with an empty
//! derivation chain (its one hierarchy walk, the flat graph and the
//! design passes are each computed once, on first use — see
//! [`crate::project`]), and the renders, schedules and session around it
//! start empty too. No table outlives a snapshot: an evicted or poisoned
//! slot has no donor, and neither has the first build.
//!
//! A snapshot is published, not locked: a slot holds it behind an `Arc`,
//! [`ProjectStore::snapshot`] hands each request a clone, and the verb
//! runs with no store lock held; a request finishes on the snapshot it
//! started with, whatever a rebuild or an eviction publishes meanwhile.
//! The slot lock covers the byte compare and, for changed bytes, the
//! build, so two requests on one edited file parse it once. No store lock
//! is taken while another is held. The vendored `parking_lot` mutex has
//! no lock poisoning, so a panicking request (contained by the server's
//! `catch_unwind`) cannot wedge a slot; [`ProjectStore::evict`] drops the
//! snapshot it ran on instead.

use super::protocol::MAX_FRAME;
use crate::document::parse_project_reusing;
use crate::project::Project;
use banger_calc::ProgramLibrary;
use banger_exec::Session;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FNV-1a 64-bit over raw bytes: a fingerprint for tests and the
/// benchmark. No cache is keyed by it. Dependency-free and stable across
/// runs (unlike `DefaultHasher`, which is randomly seeded per process).
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Everything derived from one source text. Published once and never
/// replaced in place: changed bytes build a new snapshot, and eviction
/// drops this one from its slot; the replacement shares the programs
/// whose text did not change (see the module docs), nothing else. A verb
/// reads it through `&self`; the two memos and the session are the only
/// things it writes, each behind a lock of its own.
pub struct Snapshot {
    /// The source text this snapshot was built from: the key of every
    /// cache below. The design and the machine are both part of it, so a
    /// map inside the snapshot is keyed only by what varies within it.
    pub source: String,
    /// The parsed project. What it derives from the design — expansion,
    /// flat graph, findings — it keeps itself, behind `&self`; no request
    /// edits it (rewriting verbs edit a clone), so those facts live
    /// exactly as long as this snapshot.
    pub project: Project,
    /// The design's warning diagnostics as text, one per line; empty
    /// when it has none, or has errors (a verb that needs a clean design
    /// then fails with the whole report). Every verb but `check`, whose
    /// stdout lists them, carries these in its response's notes.
    pub warnings: String,
    /// Rendered `check` output per format (`text` / `json`), plus the
    /// number of error-severity findings. Locked for one `get` or one
    /// `insert`, never while a report renders.
    pub checks: Mutex<HashMap<String, (String, usize)>>,
    /// Rendered `gantt` output (chart + summary line) per heuristic name,
    /// locked like `checks`.
    pub schedules: Mutex<HashMap<String, String>>,
    /// Warm executor session (routing tables, slab store, worker seats);
    /// opened lazily by the first `run` request, which holds
    /// this lock for its firings. No other verb takes it.
    pub session: Mutex<Option<Session>>,
}

/// One per-path slot: the published snapshot, `None` when cold — never
/// built, evicted, or poisoned by a panicking request.
type Slot = Arc<Mutex<Option<Arc<Snapshot>>>>;

/// Monotonic daemon-lifetime counters, readable without any lock.
#[derive(Default)]
pub struct Counters {
    /// Requests dispatched (all verbs).
    pub requests: AtomicU64,
    /// Requests answered from a warm snapshot.
    pub hits: AtomicU64,
    /// Cold builds (first sight of a path, or rebuild after eviction).
    pub misses: AtomicU64,
    /// Rebuilds forced by changed source bytes (also counted in misses).
    /// A file that does not parse keeps its last good snapshot, so every
    /// request made while it is broken counts one more.
    pub rebuilds: AtomicU64,
    /// Explicit evictions (`evict` requests and panic poisoning).
    pub evictions: AtomicU64,
    /// Requests that panicked and were contained.
    pub panics: AtomicU64,
    /// Programs parsed and compiled by cold builds and rebuilds.
    pub programs_parsed: AtomicU64,
    /// Programs a rebuild shared with the snapshot it replaced.
    pub programs_reused: AtomicU64,
}

/// A point-in-time snapshot of [`Counters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests dispatched (all verbs).
    pub requests: u64,
    /// Requests answered from a warm snapshot.
    pub hits: u64,
    /// Cold builds (first sight of a path, or rebuild after eviction).
    pub misses: u64,
    /// Rebuilds forced by changed source bytes (also counted in misses).
    pub rebuilds: u64,
    /// Explicit evictions (`evict` requests and panic poisoning).
    pub evictions: u64,
    /// Requests that panicked and were contained.
    pub panics: u64,
    /// Programs parsed and compiled by cold builds and rebuilds.
    pub programs_parsed: u64,
    /// Programs a rebuild shared with the snapshot it replaced.
    pub programs_reused: u64,
}

impl CacheStats {
    /// Renders the snapshot as the start of the `stats` command's line,
    /// without its newline (the verb appends the executor's counts).
    pub fn render(&self) -> String {
        format!(
            "requests {}  hits {}  misses {}  rebuilds {}  evictions {}  panics {}  \
             programs parsed {}  reused {}",
            self.requests,
            self.hits,
            self.misses,
            self.rebuilds,
            self.evictions,
            self.panics,
            self.programs_parsed,
            self.programs_reused
        )
    }
}

/// A fault injected into every request a store answers, for tests of
/// the daemon's containment. Only code holding the store sets one: no
/// request can.
#[derive(Debug, Clone)]
pub enum Fault {
    /// The handler panics before it dispatches, as a bug in a verb would.
    Handler,
    /// A `run` fires once on a private session whose task of this name
    /// panics: the executor's attributed error, not a handler panic.
    Task(String),
}

/// The daemon's shared state: per-path slots plus lifetime counters.
pub struct ProjectStore {
    entries: Mutex<HashMap<PathBuf, Slot>>,
    /// Lifetime counters (shared with request handlers).
    pub counters: Counters,
    fault: Mutex<Option<Fault>>,
}

impl Default for ProjectStore {
    fn default() -> Self {
        ProjectStore::new()
    }
}

impl ProjectStore {
    /// A fresh, empty store.
    pub fn new() -> Self {
        ProjectStore {
            entries: Mutex::new(HashMap::new()),
            counters: Counters::default(),
            fault: Mutex::new(None),
        }
    }

    /// Injects `fault` into every request from now on; `None` clears it.
    pub fn inject(&self, fault: Option<Fault>) {
        *self.fault.lock() = fault;
    }

    /// The fault in force, if any.
    pub(crate) fn fault(&self) -> Option<Fault> {
        self.fault.lock().clone()
    }

    /// Resolves a request path to its canonical form — the store key.
    pub fn canonical(&self, path: &str) -> Result<PathBuf, String> {
        Path::new(path)
            .canonicalize()
            .map_err(|e| format!("cannot read {path}: {e}"))
    }

    /// The snapshot of the project at `path` built from its current
    /// bytes. The whole-file read *is* the invalidation probe — there is
    /// no file watcher and no metadata shortcut; a stale snapshot is
    /// detected the moment the next request arrives. Only a regular file
    /// of at most one protocol frame ([`MAX_FRAME`]) is read: a device
    /// would read without end and a FIFO block in `open`.
    ///
    /// Bytes equal to the published snapshot's text are a hit. Only
    /// bytes that differ are checked for UTF-8 — invalid ones are refused
    /// before any counter or the slot moves — and then built, with the
    /// published snapshot as the donor. A build that fails leaves the
    /// slot as it was, so the save that fixes the typo still finds its
    /// donor. That snapshot answers nothing meanwhile: its text is not
    /// the file's, so every request builds again and gets the error.
    pub fn snapshot(&self, path: &str) -> Result<Arc<Snapshot>, String> {
        let canon = self.canonical(path)?;
        let refuse =
            |why: &dyn std::fmt::Display| format!("cannot read {}: {why}", canon.display());
        let meta = std::fs::metadata(&canon).map_err(|e| refuse(&e))?;
        if !meta.is_file() {
            return Err(refuse(&"not a regular file"));
        }
        // Sized like `fs::read`'s buffer, so a resident text has no slack.
        let mut bytes = Vec::with_capacity(meta.len().min(MAX_FRAME as u64) as usize);
        std::fs::File::open(&canon)
            .and_then(|f| f.take(MAX_FRAME as u64 + 1).read_to_end(&mut bytes))
            .map_err(|e| refuse(&e))?;
        if bytes.len() > MAX_FRAME {
            return Err(refuse(&format_args!("larger than {} MiB", MAX_FRAME >> 20)));
        }
        let slot = Arc::clone(
            self.entries
                .lock()
                .entry(canon.clone())
                .or_insert_with(|| Arc::new(Mutex::new(None))),
        );
        let mut published = slot.lock();
        if let Some(snapshot) = published.as_ref().filter(|s| s.source.as_bytes() == bytes) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(snapshot));
        }
        let source = String::from_utf8(bytes).map_err(|_| {
            format!(
                "cannot read {}: stream did not contain valid UTF-8",
                canon.display()
            )
        })?;
        if published.is_some() {
            self.counters.rebuilds.fetch_add(1, Ordering::Relaxed);
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let none = ProgramLibrary::new();
        let donor = published.as_ref().map_or(&none, |s| s.project.library());
        let project = parse_project_reusing(&source, donor).map_err(|e| e.to_string())?;
        let library = project.library();
        let shared = |name: &str| match (library.get_compiled(name), donor.get_compiled(name)) {
            (Some(new), Some(old)) => Arc::ptr_eq(&new, &old),
            _ => false,
        };
        let reused = library.iter().filter(|(name, _)| shared(name)).count() as u64;
        let parsed = library.len() as u64 - reused;
        self.counters
            .programs_reused
            .fetch_add(reused, Ordering::Relaxed);
        self.counters
            .programs_parsed
            .fetch_add(parsed, Ordering::Relaxed);
        // Diagnose up front, for the warnings every response carries; the
        // walk it forces is the one `flatten` will read.
        let diags = project.diagnose();
        let warnings = if banger_analyze::has_errors(diags) {
            String::new()
        } else {
            let lines: Vec<String> = diags.iter().map(banger_analyze::render_text).collect();
            lines.join("\n")
        };
        let built = Snapshot {
            source,
            project,
            warnings,
            checks: Mutex::new(HashMap::new()),
            schedules: Mutex::new(HashMap::new()),
            session: Mutex::new(None),
        };
        Ok(Arc::clone(published.insert(Arc::new(built))))
    }

    /// Drops the published snapshot for a path (the slot itself
    /// remains); a request already holding it finishes on it. Returns
    /// whether anything warm was actually dropped. Used by the `evict`
    /// verb, by panic poisoning, and by the bench to force cold
    /// measurements.
    pub fn evict(&self, path: &str) -> bool {
        let canon = match self.canonical(path) {
            Ok(c) => c,
            Err(_) => PathBuf::from(path),
        };
        let slot = self.entries.lock().get(&canon).cloned();
        let was_warm = slot.is_some_and(|slot| slot.lock().take().is_some());
        if was_warm {
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
        was_warm
    }

    /// Snapshots the lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            rebuilds: self.counters.rebuilds.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            panics: self.counters.panics.load(Ordering::Relaxed),
            programs_parsed: self.counters.programs_parsed.load(Ordering::Relaxed),
            programs_reused: self.counters.programs_reused.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    const DESIGN: &str = "\
project store-test

machine single
  speed 1
  process-startup 0
  msg-startup 0
  rate 1
end

design
  storage a 1
  task t1 1 prog Id
  storage r 1
  arc a -> t1
  arc t1 -> r
end

begin-program
task Id
  in a
  out r
begin
  r := a
end
end-program
";

    fn temp_bang(name: &str, body: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("banger-store-{}-{name}.bang", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(body.as_bytes()).unwrap();
        path
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(content_hash(b"foobar"), 0x85944171f73967e8);
    }

    /// What the slot for `path` publishes, without reading the file.
    fn published(store: &ProjectStore, path: &Path) -> Option<Arc<Snapshot>> {
        let slot = store
            .entries
            .lock()
            .get(&path.canonicalize().unwrap())?
            .clone();
        let snapshot = slot.lock().clone();
        snapshot
    }

    #[test]
    fn warm_hit_then_rewrite_rebuilds() {
        let path = temp_bang("rebuild", DESIGN);
        let store = ProjectStore::new();
        let first = store.snapshot(path.to_str().unwrap()).unwrap();
        let again = store.snapshot(path.to_str().unwrap()).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "same bytes are a hit");
        // Rewrite the file: the next request must rebuild.
        std::fs::write(&path, DESIGN.replace("task t1 1", "task t1 2")).unwrap();
        let rebuilt = store.snapshot(path.to_str().unwrap()).unwrap();
        assert!(
            !Arc::ptr_eq(&first, &rebuilt),
            "changed bytes force a rebuild"
        );
        assert_eq!(first.source, DESIGN, "a held snapshot keeps its text");
        assert_eq!(store.entries.lock().len(), 1, "one slot across rewrites");
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.rebuilds), (1, 2, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn evict_drops_state_but_keeps_slot() {
        let path = temp_bang("evict", DESIGN);
        let store = ProjectStore::new();
        let held = store.snapshot(path.to_str().unwrap()).unwrap();
        assert!(store.evict(path.to_str().unwrap()));
        assert!(!store.evict(path.to_str().unwrap()), "already cold");
        assert!(published(&store, &path).is_none());
        assert_eq!(store.stats().evictions, 1);
        assert_eq!(held.source, DESIGN, "a request holding it finishes on it");
        let after = store.snapshot(path.to_str().unwrap()).unwrap();
        assert!(
            !Arc::ptr_eq(&held, &after),
            "the next request builds afresh"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_failure_leaves_entry_cold() {
        let path = temp_bang("bad", "not a project at all");
        let store = ProjectStore::new();
        assert!(store.snapshot(path.to_str().unwrap()).is_err());
        assert!(published(&store, &path).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_broken_save_keeps_the_donor_for_the_save_that_fixes_it() {
        use crate::serve::{ops::handle, Request};
        let good = lu3();
        let broken = good.replace("c[3] := c[3] /", "c[3] := := c[3] /");
        let mended = good.replace("c[3] := c[3] /", "c[3] := 2 * c[3] /");
        let garbled = [good.as_bytes(), b"\xff\n"].concat();
        assert!(broken != good && mended != good);

        let path = temp_bang("typo", &good);
        let store = ProjectStore::new();
        let check = Request::for_path("check", path.to_str().unwrap());
        // The resident snapshot's library (a clone shares its entries).
        let library = || {
            let snapshot = published(&store, &path).expect("a snapshot is resident");
            snapshot.project.library().clone()
        };
        let counts = |store: &ProjectStore| {
            let s = store.stats();
            (
                s.hits,
                s.misses,
                s.rebuilds,
                s.programs_parsed,
                s.programs_reused,
            )
        };
        // A save that is not UTF-8 is refused with `read_to_string`'s
        // message and moves no counter and no snapshot, cold or warm.
        let garbled_save = |store: &ProjectStore| {
            std::fs::write(&path, &garbled).unwrap();
            let not_utf8 = std::fs::read_to_string(&path).unwrap_err();
            let canon = path.canonicalize().unwrap();
            let want = format!("cannot read {}: {not_utf8}", canon.display());
            let before = counts(store);
            let resp = handle(store, &check);
            assert_eq!(
                (resp.ok, resp.exit, &resp.error, resp.output.as_str()),
                (false, 1, &want, "")
            );
            assert_eq!(counts(store), before);
        };
        garbled_save(&ProjectStore::new());
        std::fs::write(&path, &good).unwrap();
        assert!(handle(&store, &check).ok);
        let first = library();
        // Whether `library` holds the first snapshot's entry for `name`.
        let shared = |library: &ProgramLibrary, name: &String| {
            Arc::ptr_eq(
                &first.get_compiled(name).unwrap(),
                &library.get_compiled(name).unwrap(),
            )
        };
        garbled_save(&store);
        // Restoring the text finds the snapshot the garbled save left.
        std::fs::write(&path, &good).unwrap();
        let (hits, ..) = counts(&store);
        assert!(handle(&store, &check).ok);
        assert_eq!(counts(&store), (hits + 1, 1, 0, 11, 0));
        let restored = library();
        assert!(first.iter().all(|(name, _)| shared(&restored, name)));

        // The typo: every request gets the error a fresh store gives, and
        // each one is a rebuild that fails.
        std::fs::write(&path, &broken).unwrap();
        let want = handle(&ProjectStore::new(), &check);
        assert!(
            want.error.contains("line 102, column 11: bad PITS"),
            "{}",
            want.error
        );
        for _ in 0..2 {
            let resp = handle(&store, &check);
            assert_eq!(
                (resp.ok, resp.exit, &resp.error, &resp.output),
                (false, 1, &want.error, &want.output)
            );
        }
        assert_eq!(store.stats().rebuilds, 2);
        garbled_save(&store);

        // The fix parses one program; the other ten are the first
        // snapshot's, which the failed rebuilds put back and the garbled
        // save left alone.
        std::fs::write(&path, &mended).unwrap();
        assert!(handle(&store, &check).ok);
        let fixed = library();
        let parsed: Vec<&String> = first
            .iter()
            .map(|(n, _)| n)
            .filter(|n| !shared(&fixed, n))
            .collect();
        assert_eq!(parsed, ["bck3"], "the one edited program");
        let s = store.stats();
        assert_eq!((s.programs_parsed, s.programs_reused), (11 + 1, 10));
        // `evict` clears a put-back snapshot like any other.
        std::fs::write(&path, &broken).unwrap();
        assert!(!handle(&store, &check).ok);
        assert!(store.evict(path.to_str().unwrap()));
        std::fs::write(&path, &good).unwrap();
        assert!(handle(&store, &check).ok);
        let s = store.stats();
        assert_eq!((s.programs_parsed, s.programs_reused), (12 + 11, 10));
        std::fs::remove_file(&path).ok();
    }

    fn lu3() -> String {
        let root = env!("CARGO_MANIFEST_DIR");
        std::fs::read_to_string(format!("{root}/../../examples/projects/lu3.bang")).unwrap()
    }

    fn gantt_etf(path: &Path) -> crate::serve::Request {
        let mut req = crate::serve::Request::for_path("gantt", path.to_str().unwrap());
        req.heuristic = "ETF".into();
        req
    }

    /// The rewrite an (inode, length, mtime) gate would take for the old
    /// file: one digit changed in place, the old mtime put back.
    #[test]
    fn a_same_size_rewrite_with_the_old_mtime_rebuilds() {
        use crate::serve::ops::handle;
        use std::io::{Seek as _, SeekFrom};
        let text = lu3();
        let path = temp_bang("same-size", &text);
        let store = ProjectStore::new();
        let gantt = gantt_etf(&path);
        let before = handle(&store, &gantt);
        assert!(before.ok, "{}", before.error);

        let stamp = std::fs::metadata(&path).unwrap();
        let digit = text.find("task fan1 9 prog").unwrap() + "task fan1 ".len();
        let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.seek(SeekFrom::Start(digit as u64)).unwrap();
        file.write_all(b"8").unwrap();
        file.set_modified(stamp.modified().unwrap()).unwrap();
        drop(file);
        let now = std::fs::metadata(&path).unwrap();
        assert_eq!(
            (now.len(), now.modified().unwrap()),
            (stamp.len(), stamp.modified().unwrap())
        );

        let after = handle(&store, &gantt);
        let fresh = handle(&ProjectStore::new(), &gantt);
        assert!(after.ok && !after.cached, "{}", after.error);
        assert_eq!(after.output, fresh.output);
        assert_ne!(after.output, before.output, "fan1's weight is on the chart");
        assert_eq!(store.stats().rebuilds, 1);
        std::fs::remove_file(&path).ok();
    }

    /// Rewriting the same bytes moves only the mtime: still a hit.
    #[test]
    fn identical_bytes_rewritten_are_a_hit() {
        use crate::serve::ops::handle;
        let text = lu3();
        let path = temp_bang("same-bytes", &text);
        let store = ProjectStore::new();
        let gantt = gantt_etf(&path);
        let before = handle(&store, &gantt);
        assert!(before.ok, "{}", before.error);
        let counted = store.stats();

        let stamp = std::fs::metadata(&path).unwrap().modified().unwrap();
        std::fs::write(&path, &text).unwrap();
        let later = stamp + std::time::Duration::from_secs(5);
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_modified(later).unwrap();
        drop(file);
        assert_ne!(std::fs::metadata(&path).unwrap().modified().unwrap(), stamp);

        let after = handle(&store, &gantt);
        assert!(after.ok && after.cached, "{}", after.error);
        assert_eq!(after.output, before.output);
        let s = store.stats();
        assert_eq!(
            (s.hits, s.rebuilds, s.programs_parsed),
            (counted.hits + 1, counted.rebuilds, counted.programs_parsed)
        );
        std::fs::remove_file(&path).ok();
    }

    /// What `snapshot` says about `path`, which it must refuse.
    fn refusal(path: &Path) -> String {
        let store = ProjectStore::new();
        let Err(e) = store.snapshot(path.to_str().unwrap()) else {
            panic!("{} was read", path.display());
        };
        e
    }

    #[cfg(unix)]
    #[test]
    fn a_device_is_refused_not_read() {
        assert_eq!(
            refusal(Path::new("/dev/zero")),
            "cannot read /dev/zero: not a regular file"
        );
    }

    #[cfg(unix)]
    #[test]
    fn a_fifo_is_refused_without_blocking() {
        let path =
            std::env::temp_dir().join(format!("banger-store-{}-fifo.bang", std::process::id()));
        std::fs::remove_file(&path).ok();
        let made = std::process::Command::new("mkfifo").arg(&path).status();
        assert!(made.unwrap().success(), "mkfifo");
        let canon = path.canonicalize().unwrap();
        // Opening a FIFO with no writer blocks: fail, do not hang.
        let (tx, rx) = std::sync::mpsc::channel();
        let probe = path.clone();
        let prober = std::thread::spawn(move || tx.send(refusal(&probe)).ok());
        let said = rx.recv_timeout(std::time::Duration::from_secs(20));
        std::fs::remove_file(&path).ok();
        let want = format!("cannot read {}: not a regular file", canon.display());
        assert_eq!(said.expect("snapshot blocked on the FIFO"), want);
        prober.join().expect("the probe thread");
    }

    #[test]
    fn a_file_longer_than_one_frame_is_refused() {
        let path = temp_bang("sparse", "");
        std::fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(65 << 20)
            .unwrap();
        let canon = path.canonicalize().unwrap();
        let said = refusal(&path);
        std::fs::remove_file(&path).ok();
        let want = format!("cannot read {}: larger than 64 MiB", canon.display());
        assert_eq!(said, want);
    }

    #[test]
    fn missing_file_is_an_error() {
        let store = ProjectStore::new();
        assert!(store.snapshot("/nonexistent/banger-xyz.bang").is_err());
    }
}
