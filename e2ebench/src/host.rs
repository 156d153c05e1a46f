//! The host fingerprint every record carries, and process memory.

use std::fmt::Write as _;

/// What a measurement was taken on. Records from unlike hosts are never
/// compared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// CPU model name.
    pub cpu: String,
    /// Hardware threads available to the process.
    pub threads: usize,
    /// The MAC kernel tier this CPU runs: `avx512`, `avx2` or
    /// `portable`, by the feature tests the kernel dispatch uses.
    pub simd_tier: &'static str,
    /// Compiler that built the benchmark.
    pub rustc: String,
}

impl Host {
    /// Fingerprints this machine.
    #[must_use]
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| std::env::consts::ARCH.to_owned());
        Self {
            cpu,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            simd_tier: simd_tier(),
            rustc: env!("E2EBENCH_RUSTC").to_owned(),
        }
    }

    /// `{"cpu":…,"threads":…,"simd_tier":…,"rustc":…}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\":{},\"threads\":{},\"simd_tier\":{},\"rustc\":{}}}",
            json_str(&self.cpu),
            self.threads,
            json_str(self.simd_tier),
            json_str(&self.rustc)
        )
    }
}

/// The same feature tests as the MAC engine's tier detection.
#[must_use]
pub fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx512cd")
        {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable"
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Reads one string field of a flat JSON object written by
/// [`Host::to_json`] (enough for comparing records).
#[must_use]
pub fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let rest = rest.trim_start();
    if let Some(s) = rest.strip_prefix('"') {
        let mut end = 0;
        let bytes = s.as_bytes();
        while end < bytes.len() {
            match bytes[end] {
                b'\\' => end += 2,
                b'"' => return Some(&s[..end]),
                _ => end += 1,
            }
        }
        None
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_round_trips_through_json() {
        let h = Host::detect();
        let j = h.to_json();
        assert_eq!(field(&j, "threads"), Some(h.threads.to_string().as_str()));
        assert_eq!(field(&j, "simd_tier"), Some(h.simd_tier));
        assert!(field(&j, "rustc").is_some_and(|r| r.starts_with("rustc")));
        assert_eq!(json_str("a\"b\\"), "\"a\\\"b\\\\\"");
    }
}
