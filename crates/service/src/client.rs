//! A line-protocol client for the sweep daemon (used by the chaos
//! harness, the integration tests, and scriptable from `verify.sh`).

use crate::json::Json;
use crate::spec::SweepRequest;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};
use tpc_experiments::{CacheStats, Fnv64};
use tpc_processor::SimStats;

/// Order-sensitive FNV digest over a sweep's completed cells' exact
/// stats words (`None` = failed cell) — two sweeps merged
/// bit-identically have equal digests. The daemon sends it in its
/// `done` line; clients recompute it from the streamed words.
pub fn digest_results<'a>(results: impl Iterator<Item = Option<&'a SimStats>>) -> u64 {
    let mut h = Fnv64::new();
    for (index, stats) in results.enumerate() {
        match stats {
            Some(stats) => {
                h.write(&(index as u64).to_le_bytes());
                for word in stats.to_words() {
                    h.write(&word.to_le_bytes());
                }
            }
            None => h.write(b"failed"),
        }
    }
    h.finish()
}

/// One failed cell, as reported alongside the partial results —
/// failure never aborts the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Index into the sweep's cell grid.
    pub index: usize,
    /// Error kind tag (`panic` / `timeout`).
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
}

/// A completed sweep as seen by the client: per-cell results in grid
/// order plus the counters from the daemon's `done` line.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-cell stats (`None` = failed, see `manifest`).
    pub stats: Vec<Option<SimStats>>,
    /// Per-cell runs: 1 when the daemon simulated the cell, 0 when it
    /// came from the cache.
    pub attempts: Vec<u32>,
    /// Per-cell cache-hit flags.
    pub cached: Vec<bool>,
    /// Always 0: the daemon runs each cell once and never retries
    /// (simulations are deterministic, so a retry would fail
    /// identically).
    pub retries: u64,
    /// Always 0: sweep workers are never killed or replaced.
    pub workers_killed: u64,
    /// Results that could not be memoized.
    pub cache_write_failures: u64,
    /// Every failed cell.
    pub manifest: Vec<ManifestEntry>,
    /// The daemon's digest over completed cells (verified on receipt
    /// against a digest recomputed from the streamed words).
    pub digest: u64,
}

impl SweepReport {
    /// Cells that completed.
    pub fn ok_count(&self) -> usize {
        self.stats.iter().filter(|s| s.is_some()).count()
    }

    /// Cells served from the daemon's result cache.
    pub fn cached_count(&self) -> usize {
        self.cached.iter().filter(|&&c| c).count()
    }

    /// Digest recomputed client-side from the streamed stats words.
    pub fn local_digest(&self) -> u64 {
        digest_results(self.stats.iter().map(Option::as_ref))
    }
}

fn protocol_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// One connection to the daemon. Requests are serialized over the
/// connection; `sweep` blocks until the final `done` line (use
/// [`Client::submit`] + [`Client::next_line`] to observe a sweep
/// mid-flight).
#[derive(Debug)]
pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    /// Connects to a daemon's socket.
    ///
    /// # Errors
    ///
    /// Standard socket connection failures.
    pub fn connect(socket: &Path) -> io::Result<Client> {
        let writer = UnixStream::connect(socket)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Connects, retrying for up to `timeout` while the daemon is
    /// still starting (socket absent or refusing).
    ///
    /// # Errors
    ///
    /// The last connection failure once `timeout` elapses.
    pub fn connect_retry(socket: &Path, timeout: Duration) -> io::Result<Client> {
        let deadline = Instant::now() + timeout;
        loop {
            match Client::connect(socket) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Sends one raw request line.
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        if !line.ends_with('\n') {
            self.writer.write_all(b"\n")?;
        }
        self.writer.flush()
    }

    /// Reads the next response line (blocking).
    ///
    /// # Errors
    ///
    /// Socket read failures, or [`io::ErrorKind::UnexpectedEof`] when
    /// the daemon hung up (e.g. it was SIGKILL'd mid-sweep).
    pub fn next_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon hung up",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Reads and parses the next line, surfacing `ok:false` errors.
    fn next_json(&mut self) -> io::Result<Json> {
        let line = self.next_line()?;
        let v = Json::parse(&line).map_err(|e| protocol_err(format!("bad line {line:?}: {e}")))?;
        if v.get("ok").and_then(Json::as_bool) == Some(false) {
            let msg = v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unspecified")
                .to_string();
            return Err(protocol_err(format!("daemon refused: {msg}")));
        }
        Ok(v)
    }

    /// Round-trips a `ping`.
    ///
    /// # Errors
    ///
    /// Socket or protocol failures.
    pub fn ping(&mut self) -> io::Result<()> {
        self.send_line("{\"op\":\"ping\"}")?;
        let v = self.next_json()?;
        if v.get("op").and_then(Json::as_str) == Some("ping") {
            Ok(())
        } else {
            Err(protocol_err("unexpected ping reply"))
        }
    }

    /// Fetches the daemon's result-cache counters.
    ///
    /// # Errors
    ///
    /// Socket or protocol failures.
    pub fn cache_stats(&mut self) -> io::Result<CacheStats> {
        self.send_line("{\"op\":\"cache_stats\"}")?;
        let v = self.next_json()?;
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| protocol_err(format!("cache_stats: missing {k}")))
        };
        Ok(CacheStats {
            entries: field("entries")?,
            hits: field("hits")?,
            misses: field("misses")?,
            insert_failures: field("insert_failures")?,
        })
    }

    /// Asks the daemon to exit (acknowledged before it does).
    ///
    /// # Errors
    ///
    /// Socket or protocol failures.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.send_line("{\"op\":\"shutdown\"}")?;
        self.next_json().map(|_| ())
    }

    /// Submits a sweep and returns once the daemon has accepted it;
    /// event lines are then read with [`Client::next_line`]. Used by
    /// the chaos harness to kill the daemon mid-sweep.
    ///
    /// # Errors
    ///
    /// Socket failures or daemon rejection.
    pub fn submit(&mut self, req: &SweepRequest) -> io::Result<()> {
        self.send_line(&req.to_json_line())?;
        let v = self.next_json()?;
        if v.get("op").and_then(Json::as_str) == Some("accepted") {
            Ok(())
        } else {
            Err(protocol_err("sweep not accepted"))
        }
    }

    /// Runs a sweep to completion, folding the event stream into a
    /// [`SweepReport`]. The daemon's digest is cross-checked against
    /// one recomputed from the streamed words.
    ///
    /// # Errors
    ///
    /// Socket failures, daemon rejection, malformed events, or a
    /// digest mismatch (which would mean the stream was corrupted).
    pub fn sweep(&mut self, req: &SweepRequest) -> io::Result<SweepReport> {
        self.submit(req)?;
        let n = req.cells.len();
        let mut report = SweepReport {
            stats: vec![None; n],
            attempts: vec![0; n],
            cached: vec![false; n],
            retries: 0,
            workers_killed: 0,
            cache_write_failures: 0,
            manifest: Vec::new(),
            digest: 0,
        };
        loop {
            let v = self.next_json()?;
            let index_of = |v: &Json, key: &str| -> io::Result<usize> {
                let i = v
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| protocol_err(format!("event missing {key}")))?
                    as usize;
                if i >= n {
                    return Err(protocol_err(format!("cell index {i} out of range")));
                }
                Ok(i)
            };
            match v.get("event").and_then(Json::as_str) {
                Some("cell") => {
                    let i = index_of(&v, "index")?;
                    let words: Vec<u64> = v
                        .get("words")
                        .and_then(Json::as_arr)
                        .map(|a| a.iter().filter_map(Json::as_u64).collect())
                        .ok_or_else(|| protocol_err("cell event missing words"))?;
                    // bound: index_of caps i < cell count
                    report.stats[i] = Some(
                        SimStats::from_words(&words)
                            .ok_or_else(|| protocol_err("cell event words malformed"))?,
                    );
                    let cached = v.get("cached").and_then(Json::as_bool).unwrap_or(false);
                    // bound: index_of caps i < cell count
                    report.cached[i] = cached;
                    // bound: index_of caps i < cell count
                    report.attempts[i] = u32::from(!cached);
                }
                Some("cell_error") => {
                    let i = index_of(&v, "index")?;
                    // bound: index_of caps i < cell count
                    report.attempts[i] = 1;
                }
                Some("done") => {
                    report.cache_write_failures =
                        v.u64_or("cache_write_failures", 0).map_err(protocol_err)?;
                    report.digest = v
                        .get("digest")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| protocol_err("done event missing digest"))?;
                    for entry in v.get("manifest").and_then(Json::as_arr).unwrap_or(&[]) {
                        report.manifest.push(ManifestEntry {
                            index: entry
                                .get("index")
                                .and_then(Json::as_u64)
                                .ok_or_else(|| protocol_err("manifest entry missing index"))?
                                as usize,
                            kind: entry
                                .get("kind")
                                .and_then(Json::as_str)
                                .unwrap_or("unknown")
                                .to_string(),
                            message: entry
                                .get("message")
                                .and_then(Json::as_str)
                                .unwrap_or("")
                                .to_string(),
                        });
                    }
                    break;
                }
                other => {
                    return Err(protocol_err(format!("unexpected event {other:?}")));
                }
            }
        }
        if report.local_digest() != report.digest {
            return Err(protocol_err(format!(
                "digest mismatch: daemon {} vs streamed {}",
                report.digest,
                report.local_digest()
            )));
        }
        Ok(report)
    }
}
