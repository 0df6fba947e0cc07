//! Sample summaries and process/environment probes (all read from
//! `/proc`, so the benchmark needs no FFI).

use std::path::Path;

/// The `q`-quantile (0..=1) of `samples`, by nearest rank on a sorted
/// copy. Returns 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let idx = ((v.len() as f64 - 1.0) * q).round() as usize;
    v[idx.min(v.len() - 1)]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Latencies (µs) counted in log-spaced buckets 0.1 % wide, from 0.01 µs
/// to about 10^8 µs. Its memory stays the same however many operations a
/// run completes, so the benchmark's own samples do not grow
/// `peak_rss_mb`; a Vec of samples would add 8 bytes or more per call.
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

const HIST_MIN_US: f64 = 0.01;
const HIST_GROWTH: f64 = 1.001;
const HIST_BUCKETS: usize = 23_100;

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; HIST_BUCKETS],
            n: 0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, us: f64) {
        let b = ((us / HIST_MIN_US).ln() / HIST_GROWTH.ln()).floor();
        // NaN and values below the range land in bucket 0.
        let b = if b >= 0.0 { b as usize } else { 0 };
        self.counts[b.min(HIST_BUCKETS - 1)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile (0..=1) at rank `q × (n − 1)`, placed inside its
    /// bucket by rank on a log scale. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (self.n - 1) as f64 * q.clamp(0.0, 1.0);
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if c > 0 && rank < (below + c) as f64 {
                let within = (rank - below as f64 + 0.5) / c as f64;
                return HIST_MIN_US * HIST_GROWTH.powf(b as f64 + within);
            }
            below += c;
        }
        HIST_MIN_US * HIST_GROWTH.powi(HIST_BUCKETS as i32)
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Process CPU time (user + system, all threads) in microseconds, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s).
pub fn cpu_time_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // After ')' the fields are numbered from 3 (state); utime is 14.
    (ticks(14 - 3) + ticks(15 - 3)) * 1e4
}

/// (steal, total) jiffies of all CPUs, from the first line of
/// `/proc/stat`: time this virtual machine was runnable but the host ran
/// something else.
pub fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Resident set size in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

pub fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
}

/// Soft `RLIMIT_NOFILE`, from `/proc/self/limits`.
pub fn nofile_limit() -> Option<u64> {
    std::fs::read_to_string("/proc/self/limits")
        .ok()?
        .lines()
        .find(|l| l.starts_with("Max open files"))?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()
}

/// Size of the ephemeral port range.
pub fn ephemeral_ports() -> Option<u64> {
    let range = read_trimmed("/proc/sys/net/ipv4/ip_local_port_range")?;
    let mut it = range.split(' ').filter_map(|p| p.parse::<u64>().ok());
    let (lo, hi) = (it.next()?, it.next()?);
    Some(hi.saturating_sub(lo) + 1)
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/mounts`).
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(mnt), Some(fs)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if path.starts_with(mnt) && best.as_ref().is_none_or(|(len, _)| mnt.len() > *len) {
            best = Some((mnt.len(), fs.to_string()));
        }
    }
    best.map(|(_, fs)| fs).unwrap_or_else(|| "unknown".into())
}

/// The commit the checkout was made from, when it is a git work tree.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 51.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn hist_quantiles_within_a_bucket() {
        let mut h = Hist::default();
        for x in 1..=100 {
            h.record(f64::from(x));
        }
        let mut other = Hist::default();
        other.record(5000.0);
        h.merge(&other);
        assert_eq!(h.len(), 101);
        for (q, exact) in [(0.5, 51.0), (0.99, 100.0), (1.0, 5000.0), (0.0, 1.0)] {
            let got = h.quantile(q);
            assert!((got / exact - 1.0).abs() < 0.002, "q {q}: {got} vs {exact}");
        }
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn probes_read_proc() {
        assert!(peak_rss_mb() > 0.0);
        assert!(nofile_limit().unwrap_or(0) > 0);
    }
}
