//! Order statistics and the result report.

use std::fmt::Write as _;

/// Quantile by linear interpolation between order statistics (the
/// "inclusive" method); `q` in `[0, 1]`. Returns 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 for no samples).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean over groups of each group's `q` quantile.
pub fn mean_quantile(groups: &[Vec<f64>], q: f64) -> f64 {
    groups.iter().map(|g| quantile(g, q)).sum::<f64>() / groups.len().max(1) as f64
}

/// One metric of the result: its reported value plus the spread of the
/// samples it was taken from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Metric {
    /// A metric reported as the median of `samples`.
    pub fn median_of(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value: median(samples),
            q1: quantile(samples, 0.25),
            q3: quantile(samples, 0.75),
            samples: samples.len(),
        }
    }

    /// A figure averaged over independent input instances: the mean of
    /// the instances' figures, with quartiles taken over the instances.
    pub fn instance_mean(name: &str, unit: &'static str, per_instance: &[f64]) -> Metric {
        Metric {
            value: per_instance.iter().sum::<f64>() / per_instance.len().max(1) as f64,
            ..Metric::median_of(name, unit, per_instance)
        }
    }

    /// A metric that is one number (a count, a ratio or a percentile
    /// taken over `samples` underlying observations).
    pub fn single(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        // `+ 0.0` turns the -0.0 of an empty f64 sum into 0.
        let value = value + 0.0;
        Metric {
            name: name.to_string(),
            unit,
            value,
            q1: value,
            q3: value,
            samples,
        }
    }
}

/// Everything one benchmark invocation reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (runs, frames, checks).
    pub attempted: u64,
    /// Operations that failed or checks that did not hold.
    pub failed: u64,
    /// The metrics the result line carries, in order.
    pub metrics: Vec<Metric>,
    /// Further metrics printed in the table only.
    pub extra: Vec<Metric>,
    /// Human-readable notes printed above the table.
    pub notes: Vec<String>,
}

impl Report {
    /// Counts one attempted check and whether it held; a failing check is
    /// also named in the notes.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Prints the notes, the metric table and, last, the one-line JSON
    /// result.
    pub fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        println!(
            "{:<34} {:>8} {:>14} {:>14} {:>14} {:>7}",
            "metric", "unit", "median", "q1", "q3", "n"
        );
        for m in self.metrics.iter().chain(&self.extra) {
            println!(
                "{:<34} {:>8} {:>14.6} {:>14.6} {:>14.6} {:>7}",
                m.name, m.unit, m.value, m.q1, m.q3, m.samples
            );
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<34} {:>8} {:>14.6} ({} failed of {} attempted)",
            "error_rate", "ratio", error_rate, self.failed, self.attempted
        );
        println!("{}", self.json());
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time (user + system) this process has used, all threads, in
/// seconds. Time the host steals from the virtual CPUs is not in it.
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks of 1/100 s;
    // field 2 (the command) may contain spaces, so count after its ')'.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            let rest = &stat[stat.rfind(')')? + 2..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// SplitMix64: the benchmark's only source of generated inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an input seed for one purpose (`tag`) from the workload seed.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    SplitMix(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
