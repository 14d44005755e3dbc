//! The repo's benchmark: wall-clock steps of real gTop-k S-SGD runs,
//! observed from outside the product and attributed to its layers by a
//! traced replica of the step loop. See `README.md`.

#![warn(missing_docs)]

pub mod episode;
pub mod host;
pub mod probes;
pub mod run;
pub mod synth;
pub mod timed;
pub mod trace;
pub mod traced;
pub mod workload;

/// Median of `samples` (mean of the middle two for an even count; 0 for
/// none). Sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    match samples.len() {
        0 => 0.0,
        n if n % 2 == 1 => samples[n / 2],
        n => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
    }
}
