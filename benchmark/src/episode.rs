//! One episode = one complete training run from scratch on P rank
//! threads: through the product's entry points (`train_distributed`,
//! `train_rank`) observed from outside, or through the traced replica
//! loop. A benchmark run is a sequence of episodes.

use crate::timed::StepClock;
use crate::trace::Span;
use crate::traced::{traced_rank, TracedRank};
use gtopk::{train_distributed, train_rank, TrainConfig, TrainReport};
use gtopk_comm::transport::{TcpConfig, TcpTransport};
use gtopk_comm::{Cluster, Communicator, CostModel};
use gtopk_data::Dataset;
use gtopk_nn::Model;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::Instant;

/// What carries the messages between the rank threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The in-process channel mesh.
    Sim,
    /// Real frames over loopback sockets, `TcpConfig::fast_local()`.
    Tcp,
}

/// Which loop drives the steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `gtopk::train_distributed` / `gtopk::train_rank`.
    Product,
    /// [`traced_rank`].
    Traced,
}

/// What one episode measured.
#[derive(Debug)]
pub struct Episode {
    /// Episode start → first timed step, s: input generation, model
    /// build, mesh bring-up and the warm-up steps.
    pub setup_s: f64,
    /// Duration of each timed step, ms: from the moment the first replica
    /// entered it to the moment the first replica entered the next.
    pub step_ms: Vec<f64>,
    /// First timed step → end of the last step, s.
    pub window_s: f64,
    /// Steps executed, warm-up included.
    pub steps: usize,
    /// Fingerprint of the final parameters (identical on every rank).
    pub fingerprint: u64,
    /// Rank 0's simulated α-β time ÷ steps, ms.
    pub sim_ms_per_step: f64,
    /// Elements rank 0 sent ÷ steps.
    pub wire_elems_per_step: f64,
    /// Messages rank 0 sent ÷ steps (traced path only; the product's
    /// report does not carry it).
    pub msgs_per_step: f64,
    /// Mean non-zero count of the applied update.
    pub mean_update_nnz: f64,
    /// Mean training loss of the last epoch (product path only).
    pub final_loss: Option<f64>,
    /// Retransmissions rank 0 performed.
    pub retransmissions: u64,
    /// Rank 0's buffer-pool misses after the warm-up steps (traced path
    /// only).
    pub pool_misses_after_warmup: u64,
    /// Every rank's spans (traced path only).
    pub spans: Vec<Vec<Span>>,
}

/// Whether a loopback socket can be bound here.
pub fn loopback_available() -> bool {
    TcpListener::bind("127.0.0.1:0").is_ok()
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast::<&str>()
            .map_or_else(|_| "<non-string panic>".into(), |s| (*s).to_string()),
    }
}

/// Runs `f` on `p` rank threads over loopback TCP (OS-assigned ports) and
/// returns the results in rank order. A rank that fails drops its
/// endpoint at once, so its peers' deadlines fire; every endpoint that
/// finished stays up until all ranks are done, so no late frame is lost.
fn on_tcp_ranks<T, F>(p: usize, cost: CostModel, f: F) -> Result<Vec<T>, String>
where
    T: Send,
    F: Fn(&mut Communicator) -> Result<T, String> + Sync,
{
    let listeners = (0..p)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("loopback unavailable: {e}"))?;
    let peers = listeners
        .iter()
        .map(TcpListener::local_addr)
        .collect::<std::io::Result<Vec<SocketAddr>>>()
        .map_err(|e| format!("loopback unavailable: {e}"))?;
    let all_done = Barrier::new(p);
    let (f, peers, all_done) = (&f, &peers, &all_done);
    std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                scope.spawn(move || {
                    let config = TcpConfig::fast_local();
                    let outcome = TcpTransport::establish(listener, rank, peers.clone(), config)
                        .map_err(|e| e.to_string())
                        .and_then(|transport| {
                            let mut comm = Communicator::from_transport(Box::new(transport), cost);
                            let value = catch_unwind(AssertUnwindSafe(|| f(&mut comm)))
                                .unwrap_or_else(|panic| Err(panic_message(panic)))?;
                            Ok((value, comm))
                        });
                    // On failure the endpoint is already gone here.
                    all_done.wait();
                    outcome
                        .map(|(value, _comm)| value)
                        .map_err(|e| format!("rank {rank}: {e}"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| Err(panic_message(p))))
            .collect()
    })
}

/// Runs `f` on every rank of a fresh `transport` mesh.
fn on_ranks<T, F>(cfg: &TrainConfig, transport: Transport, f: F) -> Result<Vec<T>, String>
where
    T: Send,
    F: Fn(&mut Communicator) -> Result<T, String> + Send + Sync,
{
    match transport {
        Transport::Sim => Cluster::new(cfg.workers, cfg.cost_model)
            .run_caught(f)
            .into_iter()
            .map(|rank| rank.and_then(|value| value))
            .collect(),
        Transport::Tcp => on_tcp_ranks(cfg.workers, cfg.cost_model, f),
    }
}

/// Runs one episode. `started` is when the caller began generating the
/// inputs; `build` must produce bit-identical replicas.
///
/// # Errors
///
/// Returns a description of the failure if any rank panicked, returned a
/// communication error or ended with different parameters, or if the
/// mesh could not be brought up. The mesh is torn down either way.
pub fn run<M, F>(
    cfg: &TrainConfig,
    transport: Transport,
    path: Path,
    warmup: usize,
    started: Instant,
    build: F,
    data: &dyn Dataset,
) -> Result<Episode, String>
where
    M: Model,
    F: Fn() -> M + Send + Sync,
{
    let steps = cfg.epochs * ((data.len() / cfg.workers) / cfg.batch_per_worker);
    assert!(warmup < steps, "an episode needs timed steps");
    match path {
        Path::Product => {
            let clock = StepClock::new();
            let timed = || clock.wrap(build());
            let report: TrainReport = match transport {
                Transport::Sim => catch_unwind(AssertUnwindSafe(|| {
                    train_distributed(cfg, timed, data, None)
                }))
                .map_err(panic_message)?,
                Transport::Tcp => on_tcp_ranks(cfg.workers, cfg.cost_model, |comm| {
                    train_rank(cfg, comm, timed, data, None).ok_or("left the run".into())
                })?
                .swap_remove(0),
            };
            let replicas = clock.take();
            if replicas.len() != cfg.workers
                || replicas.iter().any(|r| r.step_starts.len() != steps)
            {
                return Err(format!(
                    "observed {:?} steps per replica, expected {steps} on each of {}",
                    replicas
                        .iter()
                        .map(|r| r.step_starts.len())
                        .collect::<Vec<_>>(),
                    cfg.workers
                ));
            }
            let since = |t: Instant| (t - started).as_secs_f64();
            let timing = Timing::lockstep(
                replicas.iter().map(|r| {
                    (
                        r.step_starts.iter().map(|&t| since(t)).collect(),
                        since(r.end),
                    )
                }),
                warmup,
            );
            let prints: Vec<u64> = replicas.iter().map(|r| r.fingerprint).collect();
            Ok(Episode {
                setup_s: timing.setup_s,
                step_ms: timing.step_ms,
                window_s: timing.window_s,
                steps,
                fingerprint: common_fingerprint(&prints)?,
                sim_ms_per_step: report.sim_time_ms / steps as f64,
                wire_elems_per_step: report.elems_sent_rank0 as f64 / steps as f64,
                msgs_per_step: 0.0,
                mean_update_nnz: report.mean_update_nnz,
                final_loss: report.epochs.last().map(|e| e.train_loss),
                retransmissions: report.retransmissions as u64,
                pool_misses_after_warmup: 0,
                spans: Vec::new(),
            })
        }
        Path::Traced => {
            let ranks: Vec<TracedRank> = on_ranks(cfg, transport, |comm| {
                traced_rank(cfg, comm, build(), data, warmup, started).map_err(|e| e.to_string())
            })?;
            let prints: Vec<u64> = ranks.iter().map(|r| r.fingerprint).collect();
            let root = &ranks[0];
            let timing = Timing::lockstep(
                ranks.iter().map(|r| {
                    let steps: Vec<&Span> = r.spans.iter().filter(|s| s.parent.is_none()).collect();
                    let end = steps.last().map_or(0.0, |s| s.t1_ns as f64 / 1e9);
                    (steps.iter().map(|s| s.t0_ns as f64 / 1e9).collect(), end)
                }),
                warmup,
            );
            Ok(Episode {
                setup_s: timing.setup_s,
                step_ms: timing.step_ms,
                window_s: timing.window_s,
                steps,
                fingerprint: common_fingerprint(&prints)?,
                sim_ms_per_step: root.sim_ms / steps as f64,
                wire_elems_per_step: root.stats.elems_sent as f64 / steps as f64,
                msgs_per_step: root.stats.msgs_sent as f64 / steps as f64,
                mean_update_nnz: root.update_nnz as f64 / steps as f64,
                final_loss: None,
                retransmissions: root.stats.retransmissions as u64,
                pool_misses_after_warmup: root.pool_misses_after_warmup,
                spans: ranks.into_iter().map(|r| r.spans).collect(),
            })
        }
    }
}

/// An episode's timed window, seen from all replicas at once.
struct Timing {
    setup_s: f64,
    step_ms: Vec<f64>,
    window_s: f64,
}

impl Timing {
    /// From each replica's `(step start times, end time)`, in seconds
    /// since the episode started. A step begins when the first replica
    /// enters it, and the run ends when the first replica is done: the
    /// ranks move in lockstep through the collective, so these are the
    /// system's step boundaries, whereas one replica's own series also
    /// carries which thread the scheduler happened to run first.
    fn lockstep(replicas: impl Iterator<Item = (Vec<f64>, f64)>, warmup: usize) -> Self {
        let (starts, ends): (Vec<Vec<f64>>, Vec<f64>) = replicas.unzip();
        let earliest = |times: &mut dyn Iterator<Item = f64>| times.fold(f64::INFINITY, f64::min);
        let mut bounds: Vec<f64> = (warmup..starts[0].len())
            .map(|i| earliest(&mut starts.iter().map(|s| s[i])))
            .collect();
        bounds.push(earliest(&mut ends.iter().copied()));
        Timing {
            setup_s: bounds[0],
            step_ms: bounds.windows(2).map(|w| (w[1] - w[0]) * 1e3).collect(),
            window_s: bounds[bounds.len() - 1] - bounds[0],
        }
    }
}

fn common_fingerprint(prints: &[u64]) -> Result<u64, String> {
    match prints {
        [first, rest @ ..] if rest.iter().all(|p| p == first) => Ok(*first),
        _ => Err(format!("replicas diverged: fingerprints {prints:x?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{GradientBank, SyntheticData, SyntheticModel};
    use crate::workload::synthetic_config;

    /// Panics when one item — in rank 1's shard — is loaded.
    struct Poisoned(SyntheticData);

    impl Dataset for Poisoned {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn input_dims(&self) -> Vec<usize> {
            self.0.input_dims()
        }
        fn targets_per_item(&self) -> usize {
            self.0.targets_per_item()
        }
        fn num_classes(&self) -> usize {
            self.0.num_classes()
        }
        fn item(&self, i: usize) -> (Vec<f32>, Vec<usize>) {
            assert_ne!(i, 9, "poisoned item");
            self.0.item(i)
        }
    }

    /// A rank that dies mid-run must surface as an error — with the mesh
    /// torn down and every thread joined — not as a hang.
    #[test]
    fn a_dying_rank_fails_the_episode_on_every_path_and_transport() {
        let cfg = synthetic_config(4, 0.01);
        let inner = SyntheticData::new(4, 6);
        let bank = GradientBank::generate(3, 4096, 4);
        let data = Poisoned(inner);
        for transport in [Transport::Sim, Transport::Tcp] {
            if transport == Transport::Tcp && !loopback_available() {
                eprintln!("SKIPPED: loopback sockets unavailable");
                continue;
            }
            for path in [Path::Product, Path::Traced] {
                let started = Instant::now();
                let build = || SyntheticModel::new(bank.clone(), &inner);
                let err = run(&cfg, transport, path, 1, started, build, &data)
                    .expect_err("the poisoned item kills rank 1");
                assert!(
                    err.contains("poisoned") || err.contains("rank"),
                    "{transport:?} {path:?}: {err}"
                );
                assert!(
                    started.elapsed() < TcpConfig::fast_local().recv_deadline * 2,
                    "{transport:?} {path:?} took {:?}",
                    started.elapsed()
                );
            }
        }
    }
}
