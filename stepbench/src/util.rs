//! Small helpers: order statistics, rank correlation, hashing, machine
//! facts and the result line.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `(0, 1]`: the value at sorted index
/// `ceil(q·n) − 1`. Returns the value and how many samples lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> (f64, usize) {
    if values.is_empty() {
        return (0.0, 0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// Average ranks (ties share the mean of their positions), 1-based.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            out[k] = rank;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation of two equally long series; `None` when
/// fewer than three pairs exist or either series is constant.
pub fn spearman(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 3 {
        return None;
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let mean = (n + 1.0) / 2.0;
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - mean) * (y - mean);
        va += (x - mean) * (x - mean);
        vb += (y - mean) * (y - mean);
    }
    (va > 0.0 && vb > 0.0).then(|| cov / (va * vb).sqrt())
}

/// 64-bit FNV-1a, for digests of deterministic fields.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB, 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A one-line machine fingerprint: CPU brand, vector features and logical
/// CPU count.
pub fn machine_fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    format!("{}|{}|cpus={cpus}", cpu_brand(), cpu_features())
}

#[cfg(target_arch = "x86_64")]
#[allow(unused_unsafe)] // `__cpuid` is a safe fn on newer toolchains
fn cpu_brand() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: `cpuid` is available on every x86_64 CPU; leaf 0x8000_0000
    // reports which extended leaves (the brand string) exist.
    let max = unsafe { __cpuid(0x8000_0000) }.eax;
    if max < 0x8000_0004 {
        return "x86_64".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        // SAFETY: the leaf is within the supported range checked above.
        let r = unsafe { __cpuid(leaf) };
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_brand() -> String {
    std::env::consts::ARCH.to_string()
}

#[cfg(target_arch = "x86_64")]
fn cpu_features() -> String {
    let mut f = Vec::new();
    if is_x86_feature_detected!("avx2") {
        f.push("avx2");
    }
    if is_x86_feature_detected!("fma") {
        f.push("fma");
    }
    if f.is_empty() {
        "novec".to_string()
    } else {
        f.join("+")
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_features() -> String {
    "portable".to_string()
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Renders the final result line. Non-finite values cannot be written as
/// JSON numbers; the caller counts them as failures before getting here.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_leaves_ten_beyond_p90_of_a_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), (90.0, 10));
        assert_eq!(median(&v), 50.5);
    }

    #[test]
    fn spearman_of_monotone_series_is_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(spearman(&a, &[10.0, 20.0, 25.0, 90.0]), Some(1.0));
        assert_eq!(spearman(&a, &[4.0, 3.0, 2.0, 1.0]), Some(-1.0));
        assert_eq!(spearman(&a, &[1.0, 1.0, 1.0, 1.0]), None);
    }
}
