//! Content-addressed on-disk cache for [`CaseReport`]s.
//!
//! A [`crate::harness::RunSpec`] is plain data, so an unchanged case has an
//! unchanged identity — and because each case runs in a fresh deterministic
//! kernel, an unchanged identity means an unchanged report. The cache
//! exploits that: before executing a spec, [`crate::harness::Harness::run_session`]
//! asks the cache for the report of an identical earlier run and skips the
//! guest entirely on a hit. A warm re-run of an unchanged experiment
//! executes zero guest instructions and emits byte-identical output.
//!
//! **Keying.** The cache key is 64-bit FNV-1a over the canonical JSON of
//! the spec's *identity*: the [`ProgramSpec`], codegen options, process
//! ABI, sanitizer flag, seed, instruction budget, kernel configuration and
//! L2 override — plus a caller-supplied *salt* (the codegen fingerprint
//! from `cheri_isa::codegen::fingerprint`, so any change to instruction
//! selection invalidates every entry wholesale). The spec's display name,
//! wall-clock deadline, execution tier (`exec_mode`), oracle mode
//! (`oracle`) and lockstep cadence (`oracle_every`) are *not* part of the
//! identity: none of them changes
//! what the guest computes — the execution tiers and the oracle are gated
//! to produce byte-identical guest metrics. The membrane mode (`abi_mode`) *is* identity: a hardened run
//! observes different allocator behaviour (quarantine, repairs) than a
//! strict one. Stored entries embed the full identity JSON
//! and every load re-compares it (as canonical text), so an FNV collision
//! degrades to a cache miss, never a wrong report.
//!
//! **What is never cached.** Panicked and deadline-exceeded outcomes
//! (environmental, not functions of the spec), oracle divergences (a
//! simulator bug must resurface on every run until fixed), traced runs
//! (the capability CDF is not serialized, and Figure 5 wants a fresh
//! trace), and anything run with `weaken_sem`, `weaken_quarantine` or
//! `weaken_flush` (deliberately wrong semantics / a deliberately disabled
//! membrane must never poison — or be served from — the shared cache).
//!
//! **On disk.** One JSON file per entry under the cache directory
//! (default `target/harness-cache/`), named by the hex key. Writes go to a
//! temporary file first and are renamed into place, so concurrent workers
//! and even concurrent processes can share a directory; a torn or corrupt
//! entry fails to parse and reads as a miss.

use crate::harness::{execute_spec, CaseOutcome, CaseReport, RunSpec};
use crate::json::{self, Json};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, SystemTime};

/// A versioned fingerprint of the *runtime* — kernel, VM, CPU, loader —
/// as observed through a fixed probe trace: a scripted VM scenario
/// (map, demand fault, fork, COW write, swap round trip, mprotect,
/// teardown) plus one tiny guest program executed under each ABI, with
/// every resulting counter folded into an FNV-1a hash. Any behavioural
/// change to paging, scheduling, the cost model or instruction execution
/// changes some counter and therefore the revision.
///
/// Computed once per process (the probes are two sub-millisecond guest
/// runs) and combined with `cheri_isa::codegen::fingerprint()` in
/// [`session_salt`] so cached [`CaseReport`]s are invalidated by runtime
/// changes as well as codegen changes.
#[must_use]
pub fn runtime_revision() -> u64 {
    static REV: OnceLock<u64> = OnceLock::new();
    *REV.get_or_init(compute_runtime_revision)
}

fn compute_runtime_revision() -> u64 {
    use crate::spec::{ProgramSpec, Registry};
    use cheri_cap::{CapFormat, PrincipalId};
    use cheri_isa::codegen::CodegenOpts;
    use cheri_kernel::AbiMode;
    use cheri_vm::{Backing, Prot, Vm};
    use std::fmt::Write as _;

    let mut log = String::new();
    // Scripted VM trace: every paging mechanism leaves a counter.
    let mut vm = Vm::new(64);
    let a = vm.create_space(PrincipalId::from_raw(7), CapFormat::C128);
    let base = vm
        .map(a, None, 3 * 4096, Prot::rw(), Backing::Zero, "probe")
        .expect("probe map");
    vm.write_u64(a, base + 8, 0x1234).expect("probe write");
    let b = vm.fork_space(a).expect("probe fork");
    vm.write_u64(a, base + 8, 0x5678).expect("probe cow write");
    assert!(vm.swap_out(a, base).expect("probe swap_out"));
    let readback = vm.read_u64(a, base + 8).expect("probe swap_in");
    vm.protect(a, base, 4096, Prot::READ)
        .expect("probe protect");
    vm.unmap(a, base + 4096, 4096).expect("probe unmap");
    vm.destroy_space(b);
    let _ = write!(
        log,
        "vm:{:?}:{}:{}:{};",
        vm.stats,
        vm.epoch(),
        vm.phys.allocated_frames(),
        readback
    );
    // One tiny guest under each ABI: exercises codegen's runtime half —
    // loader, kernel entry/exit, scheduler charges, cache cost model.
    let registry = Registry::builtin();
    for (label, opts, abi) in [
        ("purecap", CodegenOpts::purecap(), AbiMode::CheriAbi),
        ("mips64", CodegenOpts::mips64(), AbiMode::Mips64),
    ] {
        let spec = RunSpec::new(
            format!("runtime-probe-{label}"),
            ProgramSpec::Spin { iters: 500 },
            opts,
            abi,
        );
        let report = execute_spec(&registry, &spec);
        let _ = write!(log, "{label}:{:?}:{:?};", report.outcome, report.metrics);
    }
    json::fnv1a(log.as_bytes())
}

/// The report-cache salt for this build *and* this runtime:
/// `cheri_isa::codegen::fingerprint()` (instruction selection) combined
/// with [`runtime_revision`] (kernel/VM/CPU behaviour). Use this when
/// opening a [`ReportCache`] that outlives the current binary.
#[must_use]
pub fn session_salt() -> u64 {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&cheri_isa::codegen::fingerprint().to_le_bytes());
    bytes[8..].copy_from_slice(&runtime_revision().to_le_bytes());
    json::fnv1a(&bytes)
}

/// Process-global sequence for temporary-file names. A per-handle counter
/// would reset to zero for every `ReportCache` opened on the same
/// directory, so two handles in one process storing the same key could
/// race to the *same* tmp path and tear each other's rename. One counter
/// per process makes every `(pid, nonce, seq)` triple unique.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A per-process nonce folded into tmp names, guarding the remaining
/// cross-process hole: pid reuse while a crashed writer's tmp file still
/// sits in a shared cache directory.
fn tmp_nonce() -> u64 {
    static NONCE: OnceLock<u64> = OnceLock::new();
    *NONCE.get_or_init(|| {
        let clock = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0u128, |d| d.as_nanos());
        let mut bytes = [0u8; 20];
        bytes[..4].copy_from_slice(&std::process::id().to_le_bytes());
        bytes[4..].copy_from_slice(&clock.to_le_bytes());
        json::fnv1a(&bytes)
    })
}

/// An entry's text is `{"identity":<identity>,"report":<report>}` and a
/// newline: the canonical JSON object of those two fields.
const ENTRY_HEAD: &str = "{\"identity\":";
const ENTRY_MID: &str = ",\"report\":";

/// Traced specs and specs with a weakened mechanism are never read from
/// or written to the cache: their reports are not the normal run's.
fn never_cached(spec: &RunSpec) -> bool {
    spec.trace || spec.weaken_sem || spec.weaken_quarantine || spec.weaken_flush
}

/// A handle to one cache directory + salt.
#[derive(Debug)]
pub struct ReportCache {
    dir: PathBuf,
    salt: u64,
    /// Entry paths written by *this* handle, exempt from [`ReportCache::prune`]:
    /// the session that just produced a report must never lose it to its
    /// own size bound (mtime granularity makes "newest by timestamp" an
    /// unreliable substitute).
    #[allow(clippy::disallowed_types)] // entry paths, host-side cache I/O
    written: Mutex<std::collections::HashSet<PathBuf>>,
}

impl ReportCache {
    /// Opens (creating if needed) a cache rooted at `dir`, salted with the
    /// caller's codegen fingerprint.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>, salt: u64) -> io::Result<ReportCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ReportCache {
            dir,
            salt,
            written: Mutex::default(),
        })
    }

    /// Opens the conventional location, `<target dir>/harness-cache/`
    /// (honouring `CARGO_TARGET_DIR`).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open_default(salt: u64) -> io::Result<ReportCache> {
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        ReportCache::new(target.join("harness-cache"), salt)
    }

    /// The directory entries live in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The canonical identity of `spec` under this cache's salt — every
    /// field that can change what the guest computes, nothing else.
    #[must_use]
    pub fn identity(&self, spec: &RunSpec) -> Json {
        let mut fields = vec![("salt".to_string(), Json::u64(self.salt))];
        if let Json::Obj(all) = spec.to_json() {
            fields.extend(all.into_iter().filter(|(k, _)| {
                !matches!(
                    k.as_str(),
                    "name" | "deadline_nanos" | "trace" | "exec_mode" | "oracle" | "oracle_every"
                )
            }));
        }
        Json::Obj(fields)
    }

    /// The content key for `spec`: FNV-1a over its canonical identity.
    #[must_use]
    pub fn key(&self, spec: &RunSpec) -> u64 {
        json::fnv1a(self.identity_text(spec).as_bytes())
    }

    /// The canonical text of [`ReportCache::identity`].
    fn identity_text(&self, spec: &RunSpec) -> String {
        let mut text = String::with_capacity(json::LINE_CAPACITY);
        self.identity(spec).write_into(&mut text);
        text
    }

    /// The identity text of `spec` and the path of the entry its key names:
    /// one derivation serves a whole load or store.
    fn locate(&self, spec: &RunSpec) -> (String, PathBuf) {
        let identity = self.identity_text(spec);
        let key = json::fnv1a(identity.as_bytes());
        (identity, self.dir.join(format!("{key:016x}.json")))
    }

    #[cfg(test)]
    fn entry_path(&self, spec: &RunSpec) -> PathBuf {
        self.locate(spec).1
    }

    /// The cached report for `spec`, if one exists — with the entry's
    /// stored identity re-checked against the spec, so a key collision
    /// reads as a miss. The report's name is rewritten to the spec's
    /// (names are display-only and not part of the identity).
    #[must_use]
    pub fn load(&self, spec: &RunSpec) -> Option<CaseReport> {
        if never_cached(spec) {
            return None;
        }
        let (identity, path) = self.locate(spec);
        let text = fs::read_to_string(path).ok()?;
        // The stored identity compares as text; only the report is parsed.
        let report = text
            .strip_prefix(ENTRY_HEAD)?
            .strip_prefix(identity.as_str())?
            .strip_prefix(ENTRY_MID)?
            .trim_end()
            .strip_suffix('}')?;
        let mut report = CaseReport::from_json(&json::parse(report).ok()?).ok()?;
        report.name = spec.name.clone();
        Some(report)
    }

    /// Records `report` as the result of `spec`. Traced specs,
    /// weakened-semantics specs, panicked / deadline-exceeded outcomes and
    /// oracle divergences are never recorded; I/O failures are swallowed
    /// (a cache that cannot write is merely cold).
    pub fn store(&self, spec: &RunSpec, report: &CaseReport) {
        if never_cached(spec)
            || matches!(
                report.outcome,
                CaseOutcome::Panicked(_)
                    | CaseOutcome::DeadlineExceeded
                    | CaseOutcome::Divergence(_)
            )
        {
            return;
        }
        let (identity, path) = self.locate(spec);
        // `<key>.tmp.<pid>.<nonce>.<seq>`: pid + process nonce +
        // process-global sequence is unique even when several handles in
        // several processes store the same key into a shared directory at
        // once. The rename then lets last-writer-win without any reader
        // ever seeing a torn entry.
        let tmp = path.with_extension(format!(
            "tmp.{}.{:08x}.{}",
            std::process::id(),
            tmp_nonce() & 0xffff_ffff,
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut text = String::with_capacity(2 * identity.len() + 64);
        text.push_str(ENTRY_HEAD);
        text.push_str(&identity);
        text.push_str(ENTRY_MID);
        report.to_json().write_into(&mut text);
        text.push_str("}\n");
        if fs::write(&tmp, text).is_ok() {
            if fs::rename(&tmp, &path).is_ok() {
                self.written
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .insert(path);
            } else {
                let _ = fs::remove_file(&tmp);
            }
        }
    }

    /// Shrinks the cache directory to at most `limit_bytes` of entries by
    /// deleting the least-recently-modified entry files first. Entries
    /// written through this handle are never deleted, so a session can
    /// prune after storing its own reports without losing any of them —
    /// even if the limit is too small to honour (the directory may then
    /// stay above the limit).
    ///
    /// Returns `(entries_removed, entry_bytes_remaining)`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the cache directory cannot be listed;
    /// errors on individual files are tolerated — in a shared directory a
    /// concurrent session (or a fleet coordinator) may remove or replace any
    /// entry between our listing and our unlink, and a vanished entry just
    /// counts as already pruned.
    pub fn prune(&self, limit_bytes: u64) -> io::Result<(usize, u64)> {
        self.sweep_orphan_tmps(ORPHAN_TMP_MAX_AGE);
        let mut entries: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        let mut total: u64 = 0;
        for dirent in fs::read_dir(&self.dir)? {
            let Ok(dirent) = dirent else { continue };
            let path = dirent.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            // The entry can vanish between readdir and stat: a concurrent
            // prune got there first. Skip it — it is already "removed".
            let Ok(meta) = dirent.metadata() else {
                continue;
            };
            if !meta.is_file() {
                continue;
            }
            total += meta.len();
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            entries.push((path, meta.len(), mtime));
        }
        // Oldest first; name breaks timestamp ties deterministically.
        entries.sort_by(|x, y| x.2.cmp(&y.2).then_with(|| x.0.cmp(&y.0)));
        let written = self
            .written
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut removed = 0usize;
        for (path, len, _) in entries {
            if total <= limit_bytes {
                break;
            }
            if written.contains(&path) {
                continue;
            }
            match fs::remove_file(&path) {
                Ok(()) => {
                    removed += 1;
                    total -= len;
                }
                // Vanished underneath us: its bytes are gone either way.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    total = total.saturating_sub(len);
                }
                // Anything else (permissions, I/O): leave the bytes in the
                // total and keep going — prune is best-effort.
                Err(_) => {}
            }
        }
        Ok((removed, total))
    }

    /// Removes abandoned temporary files — `*.tmp.*` debris older than
    /// `max_age`, left behind by writers that crashed (or were chaos-killed)
    /// between write and rename. Recent tmp files are left alone: they may
    /// belong to a live writer about to rename. Errors are swallowed;
    /// sweeping is best-effort hygiene.
    pub fn sweep_orphan_tmps(&self, max_age: Duration) {
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return;
        };
        let now = SystemTime::now();
        for dirent in dir.flatten() {
            let path = dirent.path();
            let is_tmp = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(".tmp."));
            if !is_tmp {
                continue;
            }
            let Ok(meta) = dirent.metadata() else {
                continue;
            };
            let age = meta
                .modified()
                .ok()
                .and_then(|m| now.duration_since(m).ok());
            if age.is_some_and(|a| a >= max_age) {
                let _ = fs::remove_file(&path);
            }
        }
    }
}

/// How stale a `*.tmp.*` file must be before [`ReportCache::prune`] sweeps
/// it as writer debris. Generous: a live writer holds a tmp file for
/// microseconds, a crashed one forever.
const ORPHAN_TMP_MAX_AGE: Duration = Duration::from_secs(3600);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{execute_spec, Harness, RunSpec, SessionOpts};
    use crate::json;
    use crate::spec::{single_main, ProgramSpec, Registry};
    use cheri_isa::codegen::CodegenOpts;
    use cheri_kernel::AbiMode;
    use cheri_rtld::Program;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static SEQ: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "cheriabi-cache-test-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::SeqCst)
            ));
            fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn exit_spec(name: &str, seed: u64) -> RunSpec {
        RunSpec::new(
            name,
            ProgramSpec::Exit { code: 0 },
            CodegenOpts::purecap(),
            AbiMode::CheriAbi,
        )
        .with_seed(seed)
    }

    #[test]
    fn hit_returns_a_byte_identical_report() {
        let tmp = TempDir::new("roundtrip");
        let cache = ReportCache::new(&tmp.0, 1).expect("open cache");
        let registry = Registry::builtin();
        let spec = exit_spec("case", 5);
        assert!(cache.load(&spec).is_none(), "cold cache misses");
        let cold = execute_spec(&registry, &spec);
        cache.store(&spec, &cold);
        let warm = cache.load(&spec).expect("warm cache hits");
        assert_eq!(warm, cold);
        assert_eq!(
            warm.to_json().to_string(),
            cold.to_json().to_string(),
            "byte-identical re-encode"
        );
    }

    #[test]
    fn any_identity_field_change_misses() {
        let tmp = TempDir::new("identity");
        let cache = ReportCache::new(&tmp.0, 1).expect("open cache");
        let registry = Registry::builtin();
        let spec = exit_spec("case", 5);
        cache.store(&spec, &execute_spec(&registry, &spec));
        assert!(cache.load(&spec).is_some());

        // Every identity field change must miss.
        assert!(cache.load(&spec.clone().with_seed(6)).is_none(), "seed");
        assert!(
            cache.load(&spec.clone().with_budget(123)).is_none(),
            "budget"
        );
        assert!(cache.load(&spec.clone().with_asan(true)).is_none(), "asan");
        assert!(
            cache.load(&spec.clone().with_l2_size(65536)).is_none(),
            "l2"
        );
        let mut other_program = spec.clone();
        other_program.program = ProgramSpec::Exit { code: 1 };
        assert!(cache.load(&other_program).is_none(), "program");
        let mut other_opts = spec.clone();
        other_opts.opts = CodegenOpts::purecap_small_clc();
        assert!(cache.load(&other_opts).is_none(), "codegen opts");
        let mut other_abi = spec.clone();
        other_abi.opts = CodegenOpts::mips64();
        other_abi.abi = AbiMode::Mips64;
        assert!(cache.load(&other_abi).is_none(), "abi");

        // The execution tier is not identity either: every tier produces
        // byte-identical guest metrics by contract.
        for mode in [
            crate::harness::ExecMode::SingleStep,
            crate::harness::ExecMode::Superblock,
            crate::harness::ExecMode::Template,
        ] {
            assert!(
                cache.load(&spec.clone().with_exec_mode(mode)).is_some(),
                "{mode:?} is not identity"
            );
        }

        // Name and deadline are display/scheduling concerns, not identity.
        let renamed = cache
            .load(&spec.clone().with_deadline(Duration::from_secs(9)))
            .expect("deadline is not identity");
        assert_eq!(renamed.name, "case");
        let mut other_name = spec.clone();
        other_name.name = "same-program-other-name".to_string();
        let hit = cache.load(&other_name).expect("name is not identity");
        assert_eq!(hit.name, "same-program-other-name");
    }

    #[test]
    fn salt_change_invalidates_everything() {
        let tmp = TempDir::new("salt");
        let registry = Registry::builtin();
        let spec = exit_spec("case", 5);
        let old = ReportCache::new(&tmp.0, 0xAAAA).expect("open cache");
        old.store(&spec, &execute_spec(&registry, &spec));
        assert!(old.load(&spec).is_some());
        let new = ReportCache::new(&tmp.0, 0xBBBB).expect("open cache");
        assert!(
            new.load(&spec).is_none(),
            "a new codegen fingerprint must miss the old entry"
        );
    }

    #[test]
    fn nondeterministic_outcomes_are_not_cached() {
        let tmp = TempDir::new("skip");
        let cache = ReportCache::new(&tmp.0, 1).expect("open cache");
        let registry = Registry::builtin();

        let boom = RunSpec::new(
            "boom",
            ProgramSpec::Boom,
            CodegenOpts::purecap(),
            AbiMode::CheriAbi,
        );
        cache.store(&boom, &execute_spec(&registry, &boom));
        assert!(cache.load(&boom).is_none(), "panics are not cached");

        let slow = RunSpec::new(
            "slow",
            ProgramSpec::Spin { iters: i64::MAX },
            CodegenOpts::mips64(),
            AbiMode::Mips64,
        )
        .with_budget(50_000_000)
        .with_deadline(Duration::from_millis(1));
        cache.store(&slow, &execute_spec(&registry, &slow));
        assert!(
            cache.load(&slow).is_none(),
            "deadline misses are not cached"
        );

        let traced = exit_spec("traced", 0).with_trace(true);
        cache.store(&traced, &execute_spec(&registry, &traced));
        assert!(cache.load(&traced).is_none(), "traced runs are not cached");

        let weakened = exit_spec("weak-flush", 0).with_weaken_flush(true);
        cache.store(&weakened, &execute_spec(&registry, &weakened));
        assert!(
            cache.load(&weakened).is_none(),
            "weakened-flush runs are not cached"
        );
    }

    #[test]
    fn fault_plans_salt_the_key() {
        use crate::fault::{FaultKind, FaultPlan};
        let tmp = TempDir::new("fault-identity");
        let cache = ReportCache::new(&tmp.0, 1).expect("open cache");
        let registry = Registry::builtin();
        let plain = exit_spec("case", 5);
        cache.store(&plain, &execute_spec(&registry, &plain));
        assert!(cache.load(&plain).is_some());

        // Arming any fault plan changes what the guest may observe, so it
        // must miss the fault-free entry — and distinct plans must miss
        // each other.
        let flipped = plain
            .clone()
            .with_fault(FaultPlan::new(FaultKind::BitFlipData {
                after_writes: 3,
                bit: 0,
            }));
        assert!(cache.load(&flipped).is_none(), "fault plan salts the key");
        cache.store(&flipped, &execute_spec(&registry, &flipped));
        assert!(cache.load(&flipped).is_some());
        assert!(cache.load(&plain).is_some(), "fault-free entry untouched");
        let other_plan = plain
            .clone()
            .with_fault(FaultPlan::new(FaultKind::BitFlipData {
                after_writes: 3,
                bit: 1,
            }));
        assert!(cache.load(&other_plan).is_none(), "plans are distinct keys");
        let mut weakened = flipped.clone();
        weakened.fault.as_mut().expect("planned").weaken_tag_clear = true;
        assert!(
            cache.load(&weakened).is_none(),
            "the weakened hook is part of the identity"
        );
    }

    #[test]
    fn oracle_mode_is_not_identity_but_weakened_runs_never_cache() {
        use crate::harness::OracleMode;
        let tmp = TempDir::new("oracle");
        let cache = ReportCache::new(&tmp.0, 1).expect("open cache");
        let registry = Registry::builtin();
        let spec = exit_spec("case", 5);
        cache.store(&spec, &execute_spec(&registry, &spec));

        // The oracle only observes: a clean oracle run computes the same
        // guest results, so it may serve (and warm) the plain entry.
        assert!(
            cache
                .load(&spec.clone().with_oracle(OracleMode::Lockstep))
                .is_some(),
            "lockstep is not identity"
        );
        assert!(
            cache
                .load(&spec.clone().with_oracle(OracleMode::Replay))
                .is_some(),
            "replay is not identity"
        );

        // Weakened semantics are deliberately wrong: never served, never
        // stored.
        let weak = spec.clone().with_weaken_sem(true);
        assert!(cache.load(&weak).is_none(), "weakened runs never hit");
        cache.store(&weak, &execute_spec(&registry, &weak));
        assert!(cache.load(&weak).is_none(), "weakened runs never store");

        // A divergence outcome is a simulator bug; it must resurface on
        // every run rather than be replayed from the cache.
        let other = exit_spec("case", 6);
        let mut diverged = execute_spec(&registry, &other);
        diverged.outcome = CaseOutcome::Divergence("synthetic".to_string());
        cache.store(&other, &diverged);
        assert!(cache.load(&other).is_none(), "divergences are not cached");
    }

    #[test]
    fn abi_mode_is_identity_but_sampling_cadence_is_not() {
        use crate::harness::{MembraneMode, OracleMode};
        let tmp = TempDir::new("membrane");
        let cache = ReportCache::new(&tmp.0, 1).expect("open cache");
        let registry = Registry::builtin();
        let spec = exit_spec("case", 5);
        cache.store(&spec, &execute_spec(&registry, &spec));
        assert!(cache.load(&spec).is_some());

        // Hardened mode changes guest-visible allocator behaviour (and the
        // report grows a membrane block), so it must not serve — or
        // clobber — the strict entry.
        let hardened = spec.clone().with_abi_mode(MembraneMode::Hardened);
        assert!(cache.load(&hardened).is_none(), "abi_mode is identity");
        cache.store(&hardened, &execute_spec(&registry, &hardened));
        let hit = cache.load(&hardened).expect("hardened entries cache too");
        assert!(hit.membrane.is_some(), "evidence survives the round-trip");
        let strict_hit = cache.load(&spec).expect("strict entry untouched");
        assert!(strict_hit.membrane.is_none());

        // The sampling cadence only changes how often the oracle looks,
        // never what the guest computes: any cadence hits the plain entry.
        assert!(
            cache
                .load(
                    &spec
                        .clone()
                        .with_oracle(OracleMode::Lockstep)
                        .with_oracle_every(64)
                )
                .is_some(),
            "oracle_every is not identity"
        );

        // A weakened quarantine is deliberately unsafe scaffolding for the
        // attack table's self-test: never served, never stored.
        let weak = hardened.clone().with_weaken_quarantine(true);
        assert!(cache.load(&weak).is_none(), "weakened runs never hit");
        cache.store(&weak, &execute_spec(&registry, &weak));
        assert!(cache.load(&weak).is_none(), "weakened runs never store");
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let tmp = TempDir::new("corrupt");
        let cache = ReportCache::new(&tmp.0, 1).expect("open cache");
        let registry = Registry::builtin();
        let spec = exit_spec("case", 5);
        cache.store(&spec, &execute_spec(&registry, &spec));
        let path = cache.entry_path(&spec);
        fs::write(&path, "{ torn").expect("corrupt the entry");
        assert!(cache.load(&spec).is_none());
        // And a colliding key with a different identity must also miss.
        let other = exit_spec("case", 6);
        let entry = json::parse(&fs::read_to_string(cache.entry_path(&spec)).unwrap_or_default());
        drop(entry);
        fs::copy(cache.entry_path(&spec), cache.entry_path(&other)).ok();
        assert!(cache.load(&other).is_none(), "identity mismatch is a miss");
    }

    /// A lowerer that counts how many times it actually builds, so the
    /// "cache hit skips execution" contract is observable.
    static BUILDS: AtomicUsize = AtomicUsize::new(0);

    fn counting_lowerer(spec: &ProgramSpec, opts: CodegenOpts, _seed: u64) -> Option<Program> {
        use crate::guest::GuestOps;
        match spec {
            ProgramSpec::Workload { name } if name == "counted" => {
                BUILDS.fetch_add(1, Ordering::SeqCst);
                Some(single_main("counted", opts, |f| f.sys_exit_imm(0)))
            }
            _ => None,
        }
    }

    #[test]
    fn a_warm_session_skips_execution_entirely() {
        let tmp = TempDir::new("session");
        let cache = ReportCache::new(&tmp.0, 1).expect("open cache");
        let registry = Registry::builtin().with(counting_lowerer);
        let specs: Vec<RunSpec> = (0..6)
            .map(|i| {
                RunSpec::new(
                    format!("counted-{i}"),
                    ProgramSpec::Workload {
                        name: "counted".to_string(),
                    },
                    CodegenOpts::purecap(),
                    AbiMode::CheriAbi,
                )
                .with_seed(i)
            })
            .collect();
        let opts = SessionOpts {
            cache: Some(&cache),
            ..SessionOpts::default()
        };
        BUILDS.store(0, Ordering::SeqCst);
        let cold = Harness::new(3).run_session(&registry, &specs, &opts);
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.cache_misses, 6);
        assert_eq!(BUILDS.load(Ordering::SeqCst), 6, "cold run builds all");
        let warm = Harness::new(3).run_session(&registry, &specs, &opts);
        assert_eq!(warm.cache_hits, 6, "warm run is 100% hits");
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(BUILDS.load(Ordering::SeqCst), 6, "warm run builds nothing");
        for ((ia, a), (ib, b)) in cold.reports.iter().zip(&warm.reports) {
            assert_eq!(ia, ib);
            assert_eq!(
                a.to_json().to_string(),
                b.to_json().to_string(),
                "warm report is byte-identical (including cached wall time)"
            );
        }
    }

    #[test]
    fn prune_never_evicts_the_entry_just_written() {
        let tmp = TempDir::new("prune");
        let registry = Registry::builtin();
        // An earlier session leaves some entries behind.
        let old_session = ReportCache::new(&tmp.0, 1).expect("open cache");
        for seed in 0..4 {
            let spec = exit_spec("old", seed);
            old_session.store(&spec, &execute_spec(&registry, &spec));
        }
        drop(old_session);
        // A new session writes one entry, then prunes to a limit far too
        // small to hold anything.
        let cache = ReportCache::new(&tmp.0, 1).expect("open cache");
        let fresh = exit_spec("fresh", 99);
        cache.store(&fresh, &execute_spec(&registry, &fresh));
        let (removed, remaining) = cache.prune(0).expect("prune");
        assert_eq!(removed, 4, "all foreign entries go");
        assert!(remaining > 0, "own entry still on disk");
        assert!(
            cache.load(&fresh).is_some(),
            "the entry just written must survive its own prune"
        );
        for seed in 0..4 {
            assert!(cache.load(&exit_spec("old", seed)).is_none());
        }
    }

    #[test]
    fn prune_is_a_no_op_under_the_limit() {
        let tmp = TempDir::new("prune-noop");
        let registry = Registry::builtin();
        let cache = ReportCache::new(&tmp.0, 1).expect("open cache");
        let spec = exit_spec("case", 5);
        cache.store(&spec, &execute_spec(&registry, &spec));
        let (removed, remaining) = cache.prune(u64::MAX).expect("prune");
        assert_eq!(removed, 0);
        assert!(remaining > 0);
        assert!(cache.load(&spec).is_some());
    }

    #[test]
    fn concurrent_handles_storing_the_same_key_never_tear() {
        // The regression this guards: per-handle tmp sequences both start
        // at 0, so two handles in one process racing to store the same key
        // used to collide on the tmp path — one writer's rename could move
        // the other's half-written file into place.
        let tmp = TempDir::new("concurrent-store");
        let registry = Registry::builtin();
        let spec = exit_spec("case", 5);
        let report = execute_spec(&registry, &spec);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let dir = &tmp.0;
                let spec = &spec;
                let report = &report;
                scope.spawn(move || {
                    let cache = ReportCache::new(dir, 1).expect("open cache");
                    for _ in 0..25 {
                        cache.store(spec, report);
                        if let Some(hit) = cache.load(spec) {
                            assert_eq!(&hit, report, "no reader ever sees a torn entry");
                        }
                    }
                });
            }
        });
        let cache = ReportCache::new(&tmp.0, 1).expect("open cache");
        assert_eq!(cache.load(&spec).expect("entry present"), report);
        // Every rename landed or was cleaned up: no tmp debris remains.
        let leftovers: Vec<_> = fs::read_dir(&tmp.0)
            .expect("list")
            .flatten()
            .filter(|d| d.path().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "leftover tmp files: {leftovers:?}");
    }

    #[test]
    fn concurrent_prunes_tolerate_entries_vanishing() {
        let tmp = TempDir::new("concurrent-prune");
        let registry = Registry::builtin();
        let seeder = ReportCache::new(&tmp.0, 1).expect("open cache");
        for seed in 0..12 {
            let spec = exit_spec("old", seed);
            seeder.store(&spec, &execute_spec(&registry, &spec));
        }
        drop(seeder);
        // Several sessions prune the same directory at once: each lists
        // all entries, then races the others to unlink them. Every
        // NotFound must read as "already pruned", never an error.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let dir = &tmp.0;
                scope.spawn(move || {
                    let cache = ReportCache::new(dir, 1).expect("open cache");
                    let (_, remaining) = cache.prune(0).expect("prune survives the race");
                    assert_eq!(remaining, 0, "limit 0 empties the directory");
                });
            }
        });
        let survivors = fs::read_dir(&tmp.0).expect("list").flatten().count();
        assert_eq!(survivors, 0);
    }

    #[test]
    fn prune_sweeps_stale_tmp_debris_but_spares_fresh_writers() {
        let tmp = TempDir::new("orphan-tmp");
        let cache = ReportCache::new(&tmp.0, 1).expect("open cache");
        let stale = tmp.0.join("deadbeefdeadbeef.tmp.1234.00c0ffee.0");
        let fresh = tmp.0.join("deadbeefdeadbeef.tmp.5678.00c0ffee.1");
        fs::write(&stale, "{ half-written").expect("stale tmp");
        fs::write(&fresh, "{ half-written").expect("fresh tmp");
        // Age the stale one past the sweep threshold.
        let old = SystemTime::now() - (ORPHAN_TMP_MAX_AGE + Duration::from_secs(60));
        let handle = fs::File::options()
            .write(true)
            .open(&stale)
            .expect("reopen stale tmp");
        handle
            .set_times(fs::FileTimes::new().set_modified(old))
            .expect("age the tmp file");
        drop(handle);
        cache.prune(u64::MAX).expect("prune");
        assert!(!stale.exists(), "crashed-writer debris is swept");
        assert!(fresh.exists(), "a live writer's tmp file is spared");
    }

    #[test]
    fn runtime_revision_is_deterministic_and_nonzero() {
        let a = runtime_revision();
        let b = runtime_revision();
        assert_eq!(a, b);
        assert_ne!(a, 0);
        assert_ne!(
            session_salt(),
            cheri_isa::codegen::fingerprint(),
            "the salt must fold in more than the codegen fingerprint"
        );
    }
}
