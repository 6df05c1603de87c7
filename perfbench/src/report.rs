//! Metric collection, summary statistics, the result line and the
//! host fingerprint.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;
use tpc_experiments::Fnv64;

/// Metric values by name; units come from the metric tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The last line the benchmark prints: exactly the metrics of
/// `table` (name, unit) that have a value, in table order.
pub fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    table: &[(&str, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    let present = table
        .iter()
        .filter_map(|&(name, unit)| Some((name, unit, metrics.get(name)?)));
    for (i, (name, unit, value)) in present.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// The `q`-quantile (0..=1) by linear interpolation; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean; NaN when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What identifies the host and toolchain a result was measured on.
/// Results whose fingerprints differ are not comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Source commit, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Probes the running host.
    pub fn probe() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: command_line("rustc", &["-V"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }

    /// Hash over every field.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        for part in [
            self.nproc.to_string().as_str(),
            &self.cpu,
            &self.rustc,
            &self.commit,
        ] {
            h.write(part.as_bytes());
            h.write(&[0]);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_linear_interpolation() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.set("a.b", 1.5);
        m.set("unlisted", 2.0);
        assert_eq!(
            result_line(3, 0, &m, &[("a.b", "ms"), ("absent", "s")]),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
