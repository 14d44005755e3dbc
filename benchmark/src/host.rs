//! Host fingerprint and provenance printed with every result, and the
//! process's memory high-water mark.

use std::process::Command;

/// Where and with what a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cpus: usize,
    /// CPU features the kernels can dispatch on.
    pub features: String,
    /// SIMD level the product resolved (`GTOPK_SIMD` unset = auto).
    pub simd: &'static str,
    /// Kernel thread count the product resolved (`GTOPK_THREADS`).
    pub threads: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `unknown` outside a
    /// repository.
    pub git_rev: String,
}

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    // Keep git from wandering above the checkout.
    let out = Command::new(program)
        .args(args)
        .env(
            "GIT_CEILING_DIRECTORIES",
            std::env::current_dir().ok()?.parent()?,
        )
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (out.status.success() && !line.is_empty()).then(|| line.to_string())
}

impl Host {
    /// Reads the fingerprint of this process's host.
    pub fn read() -> Self {
        Host {
            cpus: std::thread::available_parallelism().map_or(1, usize::from),
            features: gtopk_tensor::simd::features_string(),
            simd: gtopk_tensor::simd::level().name(),
            threads: gtopk_tensor::parallel::num_threads(),
            rustc: first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            git_rev: first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"cpus\":{},\"features\":\"{}\",\"simd\":\"{}\",\"threads\":{},\"rustc\":\"{}\",\"git_rev\":\"{}\"}}",
            self.cpus, self.features, self.simd, self.threads, self.rustc, self.git_rev
        )
    }
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
