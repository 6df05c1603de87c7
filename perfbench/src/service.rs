//! Driving a spawned `tpc_service` daemon through its public client:
//! `Client::submit`, `next_line`, `ping`, `cache_stats`, `shutdown`.

use crate::cells::elapsed_ns;
use crate::spans::Tracer;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tpc_processor::SimStats;
use tpc_service::{CacheStats, Client, Json, SweepReport, SweepRequest};

/// How long a daemon may take to answer its first `ping` or to exit.
const DAEMON_DEADLINE: Duration = Duration::from_secs(20);

fn protocol(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A running daemon with one client connection. Dropping it kills
/// and reaps the process.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    client: Client,
}

impl Daemon {
    /// Spawns the daemon on `dir/sock` with its result cache at
    /// `dir/cache.jsonl` and waits for the first `ping` reply.
    /// Returns the daemon and the seconds from spawn to that reply.
    ///
    /// # Errors
    ///
    /// Spawn failures, a daemon that exits early, or no reply within
    /// the deadline.
    pub fn spawn(
        bin: &Path,
        dir: &Path,
        workers: usize,
        tracer: &mut Tracer,
    ) -> io::Result<(Daemon, f64)> {
        let socket = dir.join("sock");
        let span = tracer.begin("daemon.spawn", None);
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .arg("--cache")
            .arg(dir.join("cache.jsonl"))
            .arg("--workers")
            .arg(workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        let connected = loop {
            match Client::connect(&socket) {
                Ok(client) => break Ok(client),
                Err(e) => {
                    if let Ok(Some(status)) = child.try_wait() {
                        break Err(protocol(format!(
                            "daemon exited with {status} before listening"
                        )));
                    }
                    if start.elapsed() > DAEMON_DEADLINE {
                        break Err(e);
                    }
                    // Short: the poll interval adds to the restart time
                    // `setup_s` reports.
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        };
        tracer.end(span);
        let mut daemon = match connected {
            Ok(client) => Daemon { child, client },
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let span = tracer.begin("ping", None);
        let pinged = daemon.client.ping();
        tracer.end(span);
        pinged?;
        Ok((daemon, start.elapsed().as_secs_f64()))
    }

    /// The daemon's peak resident set size in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        crate::report::peak_rss_mib(Some(self.child.id()))
    }

    /// The daemon's result-cache counters.
    ///
    /// # Errors
    ///
    /// Socket or protocol failures.
    pub fn cache_stats(&mut self, tracer: &mut Tracer) -> io::Result<CacheStats> {
        let span = tracer.begin("cache_stats", None);
        let stats = self.client.cache_stats();
        tracer.end(span);
        stats
    }

    /// Asks the daemon to exit and reaps it.
    ///
    /// # Errors
    ///
    /// Protocol failures, or a daemon still running at the deadline.
    pub fn shutdown(mut self, tracer: &mut Tracer) -> io::Result<()> {
        let span = tracer.begin("shutdown", None);
        let acknowledged = self.client.shutdown();
        let start = Instant::now();
        let exited = loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break Ok(()),
                Ok(None) if start.elapsed() < DAEMON_DEADLINE => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok(None) => break Err(protocol("daemon did not exit after shutdown")),
                Err(e) => break Err(e),
            }
        };
        tracer.end(span);
        acknowledged.and(exited)
    }

    /// Runs one sweep through `submit` and `next_line`, recording a
    /// `sweep` span with one `cell` child per streamed result (timed by
    /// the daemon).
    ///
    /// # Errors
    ///
    /// Socket failures, daemon rejection or a malformed event stream.
    pub fn sweep(&mut self, req: &SweepRequest, tracer: &mut Tracer) -> io::Result<Sweep> {
        let span = tracer.begin("sweep", None);
        let start = Instant::now();
        let result = self.stream_sweep(req, tracer);
        let ns = elapsed_ns(start);
        tracer.end(span);
        result.map(|mut sweep| {
            sweep.seconds = ns as f64 * 1e-9;
            sweep
        })
    }

    fn stream_sweep(&mut self, req: &SweepRequest, tracer: &mut Tracer) -> io::Result<Sweep> {
        self.client.submit(req)?;
        let n = req.cells.len();
        let mut sweep = Sweep {
            report: SweepReport {
                stats: vec![None; n],
                attempts: vec![0; n],
                cached: vec![false; n],
                retries: 0,
                workers_killed: 0,
                cache_write_failures: 0,
                manifest: Vec::new(),
                digest: 0,
            },
            cell_ms: vec![f64::NAN; n],
            cell_bytes: 0,
            failed_cells: 0,
            seconds: 0.0,
        };
        loop {
            let line = self.client.next_line()?;
            let v = Json::parse(&line).map_err(|e| protocol(format!("bad line {line:?}: {e}")))?;
            let index = v
                .get("index")
                .and_then(Json::as_u64)
                .and_then(|i| usize::try_from(i).ok())
                .filter(|&i| i < n);
            match (v.get("event").and_then(Json::as_str), index) {
                (Some("cell"), Some(i)) => {
                    let words: Vec<u64> = v
                        .get("words")
                        .and_then(Json::as_arr)
                        .map(|a| a.iter().filter_map(Json::as_u64).collect())
                        .unwrap_or_default();
                    let stats = SimStats::from_words(&words)
                        .ok_or_else(|| protocol(format!("cell {i}: malformed words")))?;
                    let ms = v.get("ms").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    let now = Instant::now();
                    let began = now.checked_sub(Duration::from_secs_f64(ms.max(0.0) / 1e3));
                    tracer.record("cell", began.unwrap_or(now), now, u32::try_from(i).ok());
                    sweep.report.stats[i] = Some(stats);
                    sweep.report.cached[i] = v.get("cached").and_then(Json::as_bool) == Some(true);
                    sweep.cell_ms[i] = ms;
                    sweep.cell_bytes += line.len() as u64 + 1;
                }
                (Some("cell_error"), Some(_)) => sweep.failed_cells += 1,
                (Some("retry") | Some("worker_killed"), _) => {}
                (Some("done"), _) => {
                    sweep.report.retries = v.get("retries").and_then(Json::as_u64).unwrap_or(0);
                    sweep.report.digest = v
                        .get("digest")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| protocol("done event without digest"))?;
                    return Ok(sweep);
                }
                (other, _) => return Err(protocol(format!("unexpected event {other:?}: {line}"))),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One completed sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Results in grid order, with the daemon's digest.
    pub report: SweepReport,
    /// Daemon-reported milliseconds per cell (0 for cached cells).
    pub cell_ms: Vec<f64>,
    /// Bytes of `cell` event lines received.
    pub cell_bytes: u64,
    /// `cell_error` events received.
    pub failed_cells: u64,
    /// Submit to `done`, in seconds.
    pub seconds: f64,
}

impl Sweep {
    /// Whether the daemon's digest matches one recomputed from the
    /// streamed words.
    pub fn digest_matches(&self) -> bool {
        self.report.local_digest() == self.report.digest
    }
}

/// A scratch directory, removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates the directory `name` inside `parent`, emptied first.
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn new(parent: &Path, name: &str) -> io::Result<ScratchDir> {
        let dir = parent.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
