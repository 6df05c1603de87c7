//! The content-addressed result store shared by resumable sweeps and
//! the `tpc-service` daemon.
//!
//! A store file is a header line followed by one
//! `{"fp":<fingerprint>,"words":[...]}` line per memoized cell (the
//! [`SimStats::to_words`] integer codec — no floats, bit-exact
//! round-trip):
//!
//! ```text
//! {"kind":"tpc-result-cache","version":1}
//! {"fp":9072148444473136245,"words":[163840,80000,...]}
//! ```
//!
//! Entries are keyed by [`cell_fingerprint`], a hash of everything
//! that determines a cell's result, so one file serves any sweep that
//! overlaps it: resuming an interrupted sweep is looking each cell up
//! and running the misses. Lines are appended (under a mutex, one
//! `write_all` per line) as cells finish. A line that does not parse
//! — a torn write from a killed process — is skipped and its cell
//! re-runs; duplicates are last-wins; a file ending mid-line is
//! newline-repaired on open so the next append is not glued onto the
//! fragment.

use crate::runner::RunParams;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use tpc_processor::{SimConfig, SimStats};

/// Streaming 64-bit FNV-1a hasher — the repo's one content hash,
/// shared by cell fingerprints and result digests. Stable across runs
/// and platforms (it is a pure byte fold, no randomized state).
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher at the standard FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Content-addressed identity of one cell's result: the run window,
/// the workload (its name and generation seed) and the full
/// configuration (via its `Debug` rendering, which covers every field,
/// fault plan included). Simulations are deterministic, so equal
/// fingerprints mean bit-identical [`SimStats`] — which is what makes
/// the store sound. `params.jobs` is excluded: thread count never
/// changes a result.
pub fn cell_fingerprint(workload: &str, config: &SimConfig, params: &RunParams) -> u64 {
    let mut h = Fnv64::new();
    h.write(b"tpc-cell-v2");
    h.write(&params.warmup.to_le_bytes());
    h.write(&params.measure.to_le_bytes());
    h.write(&params.seed.to_le_bytes());
    h.write(workload.as_bytes());
    h.write(b"\0");
    h.write(format!("{config:?}").as_bytes());
    h.finish()
}

/// The store file's identifying header.
const CACHE_HEADER: &str = "{\"kind\":\"tpc-result-cache\",\"version\":1}";

/// Counters describing a store's life so far (the daemon's
/// `cache_stats` op).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Memoized results currently held.
    pub entries: u64,
    /// Lookups that found a result.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Failed inserts (I/O errors; the result was still returned,
    /// only the memoization was lost).
    pub insert_failures: u64,
}

struct CacheInner {
    map: BTreeMap<u64, SimStats>,
    file: Option<File>,
    hits: u64,
    misses: u64,
    insert_failures: u64,
}

/// A shared, file-backed (or in-memory) memoization table keyed by
/// [`cell_fingerprint`]. All methods take `&self`; the table is safe
/// to share across sweep workers and daemon connections.
pub struct ResultCache {
    inner: Mutex<CacheInner>,
}

impl ResultCache {
    fn with(map: BTreeMap<u64, SimStats>, file: Option<File>) -> ResultCache {
        ResultCache {
            inner: Mutex::new(CacheInner {
                map,
                file,
                hits: 0,
                misses: 0,
                insert_failures: 0,
            }),
        }
    }

    /// A store with no backing file (results live as long as it does).
    pub fn in_memory() -> ResultCache {
        ResultCache::with(BTreeMap::new(), None)
    }

    /// Opens (or creates) the store file at `path`, loading every
    /// parseable record. Torn lines are skipped; a torn tail is
    /// newline-repaired before any append.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`io::ErrorKind::InvalidData`] when the file
    /// exists but is not a result store.
    pub fn open(path: &Path) -> io::Result<ResultCache> {
        let mut map = BTreeMap::new();
        let mut torn_tail = false;
        if path.exists() {
            // Read whole: this also tells us whether the file ends
            // mid-line, which streaming `lines()` hides.
            let contents = String::from_utf8_lossy(&std::fs::read(path)?).into_owned();
            if !contents.is_empty() {
                let mut lines = contents.lines();
                let header = lines.next().unwrap_or("");
                if !header.contains("\"kind\":\"tpc-result-cache\"") {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("not a tpc result cache: header {header:?}"),
                    ));
                }
                for line in lines {
                    if let Some((fp, stats)) = parse_record(line) {
                        map.insert(fp, stats); // duplicates: last wins
                    }
                }
                torn_tail = !contents.ends_with('\n');
            }
        }
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if file.metadata()?.len() == 0 {
            writeln!(file, "{CACHE_HEADER}")?;
            file.flush()?;
        } else if torn_tail {
            file.write_all(b"\n")?;
            file.flush()?;
        }
        Ok(ResultCache::with(map, Some(file)))
    }

    /// Opens `path`, degrading to an in-memory store (with a warning
    /// message for the log) when the file is unusable — a daemon with
    /// a broken cache disk still serves correct results, just without
    /// persistence.
    pub fn open_or_memory(path: &Path) -> (ResultCache, Option<String>) {
        match ResultCache::open(path) {
            Ok(cache) => (cache, None),
            Err(e) => (
                ResultCache::in_memory(),
                Some(format!(
                    "cache {path:?} unusable ({e}); continuing without persistence"
                )),
            ),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        // A panic while holding the lock can only come from a map
        // operation (file errors are returned, not thrown); the map
        // is still consistent, so poisoning is safe to clear.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Looks up a memoized result, counting the hit or miss.
    pub fn lookup(&self, fingerprint: u64) -> Option<SimStats> {
        let mut inner = self.lock();
        let found = inner.map.get(&fingerprint).cloned();
        if found.is_some() {
            inner.hits += 1;
        } else {
            inner.misses += 1;
        }
        found
    }

    /// Memoizes one result, appending it to the backing file as one
    /// `write_all`, so concurrent workers' lines never interleave.
    ///
    /// # Errors
    ///
    /// The append failed (counted in
    /// [`CacheStats::insert_failures`]); the in-memory entry is still
    /// installed. A failed write may leave a partial line, so the tail
    /// is then best-effort newline-terminated and a later record is
    /// not glued onto the fragment.
    pub fn insert(&self, fingerprint: u64, stats: &SimStats) -> io::Result<()> {
        let words: Vec<String> = stats.to_words().iter().map(u64::to_string).collect();
        let line = format!("{{\"fp\":{fingerprint},\"words\":[{}]}}\n", words.join(","));
        let mut inner = self.lock();
        inner.map.insert(fingerprint, stats.clone());
        let Some(file) = inner.file.as_mut() else {
            return Ok(());
        };
        let wrote = file.write_all(line.as_bytes()).and_then(|()| file.flush());
        if let Err(e) = wrote {
            let _ = file.write_all(b"\n");
            let _ = file.flush();
            inner.insert_failures += 1;
            return Err(e);
        }
        Ok(())
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner.map.len() as u64,
            hits: inner.hits,
            misses: inner.misses,
            insert_failures: inner.insert_failures,
        }
    }
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ResultCache")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

/// Parses one `{"fp":<id>,"words":[...]}` record. Returns `None` for
/// torn or corrupt lines: a missing closing brace (killed writer), a
/// truncated or over-long words array, or non-numeric fields.
fn parse_record(line: &str) -> Option<(u64, SimStats)> {
    let body = line.strip_prefix("{\"fp\":")?.strip_suffix("]}")?;
    let (fp, words) = body.split_once(",\"words\":[")?;
    let words: Option<Vec<u64>> = words.split(',').map(|w| w.parse().ok()).collect();
    Some((fp.parse().ok()?, SimStats::from_words(&words?)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tpc-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn sample(x: u64) -> SimStats {
        let mut s = SimStats {
            cycles: 10_000 + x,
            retired_instructions: 4_000 + x,
            trace_fetches: x,
            ..SimStats::default()
        };
        s.faults.landed_by_kind[3] = x;
        s
    }

    fn append(path: &Path, bytes: &[u8]) {
        let mut f = OpenOptions::new().append(true).open(path).unwrap();
        f.write_all(bytes).unwrap();
    }

    #[test]
    fn round_trips_across_reopen() {
        let path = temp_path("roundtrip");
        let cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.lookup(1), None);
        cache.insert(1, &sample(1)).unwrap();
        cache.insert(u64::MAX, &sample(2)).unwrap();
        assert_eq!(cache.lookup(1), Some(sample(1)));
        drop(cache);
        let cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.lookup(1), Some(sample(1)));
        assert_eq!(cache.lookup(u64::MAX), Some(sample(2)));
        assert_eq!(cache.lookup(3), None);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.hits, stats.misses), (2, 2, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_only_file_reopens_empty_and_accepts_records() {
        let path = temp_path("header-only");
        drop(ResultCache::open(&path).unwrap());
        let cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.stats().entries, 0);
        cache.insert(4, &sample(4)).unwrap();
        drop(cache);
        assert_eq!(ResultCache::open(&path).unwrap().lookup(4), Some(sample(4)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_skipped_and_repaired() {
        let path = temp_path("torn");
        let cache = ResultCache::open(&path).unwrap();
        cache.insert(7, &sample(7)).unwrap();
        drop(cache);
        // A killed writer: a partial record with no newline.
        append(&path, b"{\"fp\":8,\"words\":[1,2");
        let cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.lookup(7), Some(sample(7)));
        assert_eq!(cache.lookup(8), None, "torn record dropped");
        // The repaired tail means this append is not glued onto the
        // fragment.
        cache.insert(9, &sample(9)).unwrap();
        drop(cache);
        let cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.lookup(9), Some(sample(9)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_line_mid_file_spares_later_records() {
        let path = temp_path("torn-mid");
        let cache = ResultCache::open(&path).unwrap();
        cache.insert(1, &sample(1)).unwrap();
        drop(cache);
        append(&path, b"{\"fp\":2,\"words\":[55,66\n");
        let cache = ResultCache::open(&path).unwrap();
        cache.insert(3, &sample(3)).unwrap();
        drop(cache);
        let cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.lookup(1), Some(sample(1)));
        assert_eq!(cache.lookup(2), None, "torn mid-file line dropped");
        assert_eq!(cache.lookup(3), Some(sample(3)), "later records survive");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn glued_record_after_torn_fragment_is_dropped_not_misparsed() {
        // A complete record glued onto a torn fragment on one line
        // must be rejected wholesale — never parsed into a wrong
        // (fingerprint, stats) association.
        let words: Vec<String> = sample(3).to_words().iter().map(u64::to_string).collect();
        let glued = format!(
            "{{\"fp\":1,\"words\":[12,34{{\"fp\":2,\"words\":[{}]}}",
            words.join(",")
        );
        assert_eq!(parse_record(&glued), None);
        let clean = format!("{{\"fp\":2,\"words\":[{}]}}", words.join(","));
        assert_eq!(parse_record(&clean), Some((2, sample(3))));
    }

    #[test]
    fn duplicate_fingerprints_are_last_wins() {
        let path = temp_path("dup");
        let cache = ResultCache::open(&path).unwrap();
        cache.insert(5, &sample(1)).unwrap();
        cache.insert(5, &sample(2)).unwrap();
        drop(cache);
        let cache = ResultCache::open(&path).unwrap();
        assert_eq!(cache.lookup(5), Some(sample(2)));
        assert_eq!(cache.stats().entries, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_file_is_rejected_but_degrades_gracefully() {
        let path = temp_path("foreign");
        std::fs::write(&path, "not a cache\n").unwrap();
        let err = ResultCache::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let (cache, warning) = ResultCache::open_or_memory(&path);
        assert!(warning.unwrap().contains("continuing without persistence"));
        cache.insert(1, &sample(1)).unwrap();
        assert_eq!(cache.lookup(1), Some(sample(1)), "in-memory fallback works");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn directory_as_cache_path_degrades_gracefully() {
        let dir = std::env::temp_dir().join(format!("tpc-store-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (cache, warning) = ResultCache::open_or_memory(&dir);
        assert!(warning.is_some());
        cache.insert(1, &sample(1)).unwrap();
        assert_eq!(cache.lookup(1), Some(sample(1)));
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn fnv64_is_stable_and_streaming() {
        let mut a = Fnv64::new();
        a.write(b"hello world");
        let mut b = Fnv64::new();
        b.write(b"hello ");
        b.write(b"world");
        assert_eq!(a.finish(), b.finish(), "chunking never changes the hash");
        // Known FNV-1a vector: the empty input is the offset basis.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn fingerprint_tracks_content_but_not_jobs() {
        let params = RunParams::quick();
        let base = SimConfig::baseline(64);
        let fp = |w: &str, c: &SimConfig, p: &RunParams| cell_fingerprint(w, c, p);
        let a = fp("compress", &base, &params);
        assert_eq!(a, fp("compress", &base, &params), "deterministic");
        assert_ne!(a, fp("gcc", &base, &params), "workload matters");
        assert_ne!(
            a,
            fp("compress", &SimConfig::baseline(128), &params),
            "config matters"
        );
        let faulted = base.clone().with_faults(tpc_core::FaultPlan::all(3, 40));
        assert_ne!(a, fp("compress", &faulted, &params), "fault plan matters");
        for other in [
            RunParams {
                warmup: params.warmup + 1,
                ..params
            },
            RunParams {
                measure: params.measure + 1,
                ..params
            },
            RunParams {
                seed: params.seed + 1,
                ..params
            },
        ] {
            assert_ne!(a, fp("compress", &base, &other), "window and seed matter");
        }
        let jobs = RunParams { jobs: 17, ..params };
        assert_eq!(a, fp("compress", &base, &jobs), "thread count excluded");
    }
}
