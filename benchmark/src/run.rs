//! One benchmark run: episodes of one workload until `--seconds` of
//! timed steps have been measured, the output checks, and the metrics.

use crate::episode::{loopback_available, Episode, Path, Transport};
use crate::trace::{chrome_json, step_rows, StepRow};
use crate::workload::{Inputs, Spec, RANKS};
use crate::{host, median, probes};
use gtopk::Topology;
use gtopk_perfmodel::gtopk_plan_ms;
use std::fmt::Write as _;

/// Name and unit of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("steps_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Name and unit of every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("data.batch_ms", "ms"),
    ("nn.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.flat_grads_ms", "ms"),
    ("nn.opt_apply_ms", "ms"),
    ("sparse.select_ms", "ms"),
    ("sparse.merge_ms", "ms"),
    ("sparse.putback_ms", "ms"),
    ("comm.send_ms", "ms"),
    ("comm.recv_ms", "ms"),
    ("core.allreduce_ms", "ms"),
    ("comm.recv_ms_leaf", "ms"),
    ("core.step_ms", "ms"),
    ("core.step_self_ms", "ms"),
    ("core.wait_share", "ratio"),
    ("sparse.select_melems_per_s", "Melem/s"),
    ("sparse.merge_calls", "count"),
    ("sparse.merge_mentries_per_s", "Mentry/s"),
    ("sparse.wire_encode_ms", "ms"),
    ("sparse.wire_decode_ms", "ms"),
    ("comm.frame_encode_ms", "ms"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("comm.msgs_per_step", "count"),
    ("comm.wire_elems_per_step", "elements"),
    ("comm.pool_misses_per_step", "count"),
    ("comm.retransmits", "count"),
    ("perfmodel.sim_ms_per_step", "sim_ms"),
    ("perfmodel.plan_ms", "sim_ms"),
    ("perfmodel.dev_ms", "sim_ms"),
    ("trace.overhead_pct", "%"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (steps for step times, episodes for
    /// set-up, 1 for totals and exact counts).
    pub samples: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Steps attempted, warm-up included.
    pub attempted: u64,
    /// Steps that returned an error or belong to an episode that failed.
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run).
    pub metrics: Vec<Metric>,
    /// Output checks that failed; empty when the run is correct.
    pub violations: Vec<String>,
    /// Human-readable facts printed with the result.
    pub notes: Vec<String>,
    /// The episodes, for the detail file.
    pub episodes: Vec<Episode>,
}

impl Outcome {
    /// An empty outcome — or, for a TCP workload where no loopback socket
    /// can be bound, one episode's steps attempted and all of them failed:
    /// a workload that cannot start is a failure, never a skip.
    fn gated(spec: &Spec) -> Self {
        let mut out = Outcome::default();
        if spec.transport == Transport::Tcp && !loopback_available() {
            out.attempted = spec.steps() as u64;
            out.failed = out.attempted;
            out.violations.push("loopback sockets unavailable".into());
        }
        out
    }

    /// Whether no step failed and every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    fn metric(&mut self, name: &str, value: f64, samples: usize) {
        let &(name, unit) = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(known, _)| *known == name)
            .expect("every metric is declared in END_TO_END or PER_LAYER");
        self.metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        });
    }

    /// Runs one episode and books its steps; `None` if it failed.
    fn attempt(
        &mut self,
        spec: &Spec,
        seed: u64,
        path: Path,
        transport: Option<Transport>,
    ) -> Option<Episode> {
        let steps = spec.steps() as u64;
        self.attempted += steps;
        match spec.episode(seed, path, transport) {
            Ok(episode) => Some(episode),
            Err(why) => {
                self.failed += steps;
                self.violations.push(format!("episode failed: {why}"));
                None
            }
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The checks every episode must pass on its own.
    fn check_episode(&mut self, spec: &Spec, ep: &Episode) {
        self.check(ep.retransmissions == 0, || {
            format!("{} retransmissions in a fault-free run", ep.retransmissions)
        });
        if let Some(k) = spec.constant_k() {
            let cfg = spec.config();
            let wire = (2 * k * RANKS.ilog2() as usize) as f64;
            let plan = gtopk_plan_ms(&cfg.cost_model, Topology::Binomial, RANKS, k);
            self.check(ep.mean_update_nnz == k as f64, || {
                format!("mean_update_nnz {} != k {k}", ep.mean_update_nnz)
            });
            self.check(ep.wire_elems_per_step == wire, || {
                format!(
                    "wire_elems_per_step {} != 2k·log2(P) = {wire}",
                    ep.wire_elems_per_step
                )
            });
            self.check((ep.sim_ms_per_step - plan).abs() <= 1e-9, || {
                format!("sim_ms_per_step {} != planned {plan}", ep.sim_ms_per_step)
            });
        }
        if let (Inputs::VggLite { max_final_loss, .. }, Some(loss)) = (spec.inputs, ep.final_loss) {
            self.check(loss <= max_final_loss, || {
                format!("final_loss {loss} above {max_final_loss}")
            });
        }
    }
}

/// Wire volume and simulated time the α-β plan predicts per step, given
/// each epoch's `k` and that every message carries exactly `k` entries.
fn planned_ms_per_step(spec: &Spec) -> f64 {
    let cfg = spec.config();
    let m = spec.num_params();
    (0..cfg.epochs)
        .map(|e| {
            gtopk_plan_ms(
                &cfg.cost_model,
                Topology::Binomial,
                RANKS,
                cfg.density.k(e, m),
            )
        })
        .sum::<f64>()
        / cfg.epochs as f64
}

/// The untraced run: product-path episodes only, end-to-end metrics.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::gated(spec);
    let mut measured = 0.0;
    while out.failed == 0 && measured < seconds {
        let Some(ep) = out.attempt(spec, seed, Path::Product, None) else {
            break;
        };
        out.check_episode(spec, &ep);
        measured += ep.window_s;
        out.episodes.push(ep);
    }

    let fingerprints: Vec<u64> = out.episodes.iter().map(|e| e.fingerprint).collect();
    out.check(fingerprints.windows(2).all(|w| w[0] == w[1]), || {
        format!("episodes of one seed ended differently: {fingerprints:x?}")
    });
    let timed: usize = out.episodes.iter().map(|e| e.step_ms.len()).sum();
    let window: f64 = out.episodes.iter().map(|e| e.window_s).sum();
    let mut steps: Vec<f64> = out
        .episodes
        .iter()
        .flat_map(|e| e.step_ms.iter().copied())
        .collect();
    let mut setups: Vec<f64> = out.episodes.iter().map(|e| e.setup_s).collect();
    out.metric("steps_per_s", timed as f64 / window, timed);
    out.metric("step_ms_p50", median(&mut steps), timed);
    out.metric("setup_s", median(&mut setups), setups.len());
    out.metric("peak_rss_mb", host::peak_rss_mib().unwrap_or(0.0), 1);
    if let Some(ep) = out.episodes.last() {
        out.notes.push(format!(
            "sim_ms_per_step = {} sim_ms, wire_elems_per_step = {} elements, \
             mean_update_nnz = {}, step_fail_ratio = {} ({} of {} steps)",
            ep.sim_ms_per_step,
            ep.wire_elems_per_step,
            ep.mean_update_nnz,
            out.failed as f64 / out.attempted as f64,
            out.failed,
            out.attempted
        ));
        if let (Inputs::VggLite { .. }, Some(loss)) = (spec.inputs, ep.final_loss) {
            out.notes.push(format!("final_loss = {loss}"));
        }
        out.notes
            .push(format!("fingerprint = {:016x}", ep.fingerprint));
    }
    out
}

/// Rank `rank`'s timed-step rows of every traced episode.
fn timed_rows(traced: &[Episode], rank: usize, warmup: usize) -> Vec<StepRow> {
    traced
        .iter()
        .flat_map(|ep| step_rows(&ep.spans[rank]).into_iter().skip(warmup))
        .collect()
}

fn median_of(rows: &[StepRow], f: impl Fn(&StepRow) -> f64) -> f64 {
    median(&mut rows.iter().map(f).collect::<Vec<f64>>())
}

/// The traced run: product-path and traced episodes alternate; every
/// pair must agree bit for bit; per-layer metrics come from the traced
/// ones. Writes the last traced episode's spans to `trace_file`.
pub fn per_layer(spec: &Spec, seed: u64, seconds: f64, trace_file: &std::path::Path) -> Outcome {
    let mut out = Outcome::gated(spec);
    let m = spec.num_params();
    let gflops = probes::matmul_gflops();
    let codec = probes::codec(m, spec.base_k());
    let mut plain: Vec<Episode> = Vec::new();
    let mut traced: Vec<Episode> = Vec::new();
    let mut measured = 0.0;
    while out.failed == 0 && measured < seconds {
        let Some(p) = out.attempt(spec, seed, Path::Product, None) else {
            break;
        };
        let Some(t) = out.attempt(spec, seed, Path::Traced, None) else {
            break;
        };
        out.check_episode(spec, &p);
        out.check_episode(spec, &t);
        out.check(p.fingerprint == t.fingerprint, || {
            format!(
                "traced loop ended at {:016x}, product path at {:016x}",
                t.fingerprint, p.fingerprint
            )
        });
        out.check(
            p.sim_ms_per_step == t.sim_ms_per_step
                && p.wire_elems_per_step == t.wire_elems_per_step,
            || {
                format!(
                    "traced loop cost {} sim_ms and {} elements per step, product path {} and {}",
                    t.sim_ms_per_step,
                    t.wire_elems_per_step,
                    p.sim_ms_per_step,
                    p.wire_elems_per_step
                )
            },
        );
        measured += p.window_s + t.window_s;
        plain.push(p);
        traced.push(t);
    }
    if spec.transport == Transport::Tcp && out.failed == 0 {
        // The TCP run must end exactly where its in-process twin does.
        if let Some(twin) = out.attempt(spec, seed, Path::Product, Some(Transport::Sim)) {
            out.check(
                plain.iter().all(|p| p.fingerprint == twin.fingerprint),
                || {
                    format!(
                        "sim twin ended at {:016x}, the TCP run elsewhere",
                        twin.fingerprint
                    )
                },
            );
        }
    }

    let root = timed_rows(&traced, 0, spec.warmup);
    let leaf = timed_rows(&traced, RANKS - 1, spec.warmup);
    let n = root.len();
    let ms = |name: &'static str| median_of(&root, |r| r.ms(name));
    for (metric, span) in [
        ("data.batch_ms", "data.batch"),
        ("nn.forward_ms", "nn.forward"),
        ("nn.backward_ms", "nn.backward"),
        ("nn.flat_grads_ms", "nn.flat_grads"),
        ("nn.opt_apply_ms", "nn.opt_apply"),
        ("sparse.select_ms", "sparse.select"),
        ("sparse.merge_ms", "sparse.merge"),
        ("sparse.putback_ms", "sparse.putback"),
        ("comm.send_ms", "comm.send"),
        ("comm.recv_ms", "comm.recv"),
        ("core.allreduce_ms", "core.allreduce"),
    ] {
        out.metric(metric, ms(span), n);
    }
    out.metric(
        "comm.recv_ms_leaf",
        median_of(&leaf, |r| r.ms("comm.recv")),
        leaf.len(),
    );
    out.metric("core.step_ms", median_of(&root, |r| r.root_ms), n);
    out.metric("core.step_self_ms", median_of(&root, |r| r.root_self_ms), n);
    out.metric(
        "core.wait_share",
        median_of(&root, |r| r.ms("comm.recv") / r.root_ms),
        n,
    );
    out.metric(
        "sparse.select_melems_per_s",
        m as f64 / (ms("sparse.select") * 1e3),
        n,
    );
    let merges = |f: fn(&crate::trace::Cell) -> f64| -> f64 {
        root.iter()
            .filter_map(|r| r.by_name.get("sparse.merge"))
            .map(f)
            .sum()
    };
    out.metric(
        "sparse.merge_calls",
        median_of(&root, |r| {
            r.by_name
                .get("sparse.merge")
                .map_or(0.0, |c| c.calls as f64)
        }),
        n,
    );
    out.metric(
        "sparse.merge_mentries_per_s",
        merges(|c| c.work as f64) / (merges(|c| c.ms) * 1e3),
        n,
    );
    out.metric("sparse.wire_encode_ms", codec.wire_encode_ms, probes::REPS);
    out.metric("sparse.wire_decode_ms", codec.wire_decode_ms, probes::REPS);
    out.metric("comm.frame_encode_ms", codec.frame_encode_ms, probes::REPS);
    out.metric("tensor.matmul_gflops", gflops, probes::REPS);

    let last = traced.last();
    let timed_steps: usize = traced.iter().map(|e| e.step_ms.len()).sum();
    let exact = |f: fn(&Episode) -> f64| last.map_or(0.0, f);
    out.metric("comm.msgs_per_step", exact(|e| e.msgs_per_step), 1);
    out.metric(
        "comm.wire_elems_per_step",
        exact(|e| e.wire_elems_per_step),
        1,
    );
    let pool_misses: u64 = traced.iter().map(|e| e.pool_misses_after_warmup).sum();
    out.check(pool_misses == 0, || {
        format!("{pool_misses} buffer-pool misses after warm-up")
    });
    out.metric(
        "comm.pool_misses_per_step",
        pool_misses as f64 / timed_steps.max(1) as f64,
        timed_steps,
    );
    out.metric(
        "comm.retransmits",
        traced.iter().map(|e| e.retransmissions).sum::<u64>() as f64,
        1,
    );
    let planned = planned_ms_per_step(spec);
    out.metric("perfmodel.sim_ms_per_step", exact(|e| e.sim_ms_per_step), 1);
    out.metric("perfmodel.plan_ms", planned, 1);
    out.metric(
        "perfmodel.dev_ms",
        exact(|e| e.sim_ms_per_step) - planned,
        1,
    );
    let rate = |eps: &[Episode]| {
        eps.iter().map(|e| e.step_ms.len()).sum::<usize>() as f64
            / eps.iter().map(|e| e.window_s).sum::<f64>()
    };
    out.metric(
        "trace.overhead_pct",
        (1.0 - rate(&traced) / rate(&plain)) * 100.0,
        timed_steps,
    );

    // Attribution must be complete: children plus self time is the step.
    let children = [
        "data.batch",
        "nn.forward",
        "nn.backward",
        "nn.flat_grads",
        "sparse.select",
        "core.allreduce",
        "sparse.putback",
        "nn.opt_apply",
    ];
    out.check(
        root.iter().all(|r| {
            let covered: f64 = children.iter().map(|c| r.ms(c)).sum();
            (covered + r.root_self_ms - r.root_ms).abs() <= 1e-6 * r.root_ms.max(1.0)
        }),
        || "child spans plus self time do not add up to core.step".into(),
    );
    if spec.constant_k().is_some() {
        let (own, whole) = (
            median_of(&root, |r| r.root_self_ms),
            median_of(&root, |r| r.root_ms),
        );
        out.check(own <= 0.1 * whole, || {
            format!("core.step self time {own} ms is over a tenth of the {whole} ms step")
        });
    }
    if let Some(ep) = last {
        let written = trace_file
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(trace_file, chrome_json(&ep.spans)));
        match written {
            Ok(()) => out
                .notes
                .push(format!("trace written to {}", trace_file.display())),
            Err(e) => out
                .violations
                .push(format!("cannot write {}: {e}", trace_file.display())),
        }
        out.notes
            .push(format!("fingerprint = {:016x}", ep.fingerprint));
    }
    out.episodes = plain.into_iter().chain(traced).collect();
    out
}

/// The result as the one-line JSON object the benchmark contract asks for.
pub fn result_json(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.attempted.max(1),
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}
