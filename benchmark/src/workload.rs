//! The four workloads: what each feeds the product and why it is here.

use crate::episode::{self, Episode, Path, Transport};
use crate::synth::{GradientBank, SyntheticData, SyntheticModel};
use gtopk::{DensitySchedule, LrSchedule, TrainConfig};
use gtopk_data::PatternImages;
use gtopk_nn::{models, Model};
use std::time::Instant;

/// Rank threads of every workload. Wall-clock scaling across P is not
/// reported: the ranks share the box's cores.
pub const RANKS: usize = 4;

/// The model and data a workload hands to the product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inputs {
    /// `models::vgg_lite(seed, 3, 8, 10)` on `PatternImages::cifar_like`,
    /// under `TrainConfig::convergence` (paper warm-up densities).
    VggLite {
        /// Dataset size.
        items: usize,
        /// Per-worker batch.
        batch: usize,
        /// Epochs per episode.
        epochs: usize,
        /// Highest mean training loss the last epoch may show.
        max_final_loss: f64,
    },
    /// [`SyntheticModel`] of `m` parameters at constant density `rho`.
    Synthetic {
        /// Parameter count.
        m: usize,
        /// Gradient density ρ.
        rho: f64,
        /// Steps per episode, warm-up included.
        steps: usize,
    },
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
    /// What the product is given.
    pub inputs: Inputs,
    /// What carries the messages.
    pub transport: Transport,
    /// Untimed steps at the start of each episode.
    pub warmup: usize,
}

/// Every workload, in `BENCHMARK.json` order. Episode sizes put about a
/// third of a 10 s run into each episode's timed window on a 2-core box,
/// so a run sets up about three times.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "train_vgg_sim_p4",
        why: "Real training end to end: nn+tensor do ~90% of the work, comm cost is per message; select/merge changes must not move it.",
        inputs: Inputs::VggLite {
            items: 4096,
            batch: 16,
            epochs: 10,
            max_final_loss: 1e-3,
        },
        transport: Transport::Sim,
        warmup: 64,
    },
    Spec {
        name: "step25m_rho001_sim_p4",
        why: "Paper steady state (m=25M, rho=0.001): exact select and optimizer apply dominate; merge, wire and transport changes must not show.",
        inputs: Inputs::Synthetic {
            m: 25_000_000,
            rho: 0.001,
            steps: 4,
        },
        transport: Transport::Sim,
        warmup: 1,
    },
    Spec {
        name: "step1m_rho25_sim_p4",
        why: "First warm-up-epoch density (m=1M, rho=0.25): one 2x250k merge costs as much as the whole select and 1 MB moves per message.",
        inputs: Inputs::Synthetic {
            m: 1_000_000,
            rho: 0.25,
            steps: 35,
        },
        transport: Transport::Sim,
        warmup: 5,
    },
    Spec {
        name: "step1m_rho25_tcp_p4",
        why: "Same inputs as step1m_rho25_sim_p4 over loopback TCP: frame encode/decode, copies, reader hand-off and socket I/O show here only.",
        inputs: Inputs::Synthetic {
            m: 1_000_000,
            rho: 0.25,
            steps: 35,
        },
        transport: Transport::Tcp,
        warmup: 5,
    },
];

/// The configuration of a synthetic-step run on `ranks` workers: one
/// epoch of batch-1 steps at constant density `rho` and constant
/// learning rate, everything else as [`TrainConfig::convergence`] sets it.
pub fn synthetic_config(ranks: usize, rho: f64) -> TrainConfig {
    TrainConfig {
        lr: LrSchedule::constant(0.01),
        density: DensitySchedule::constant(rho),
        ..TrainConfig::convergence(ranks, 1, 1, 0.01, rho)
    }
}

impl Spec {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Steps one episode executes, warm-up included.
    pub fn steps(&self) -> usize {
        match self.inputs {
            Inputs::VggLite {
                items,
                batch,
                epochs,
                ..
            } => epochs * (items / RANKS / batch),
            Inputs::Synthetic { steps, .. } => steps,
        }
    }

    /// Parameter count `m` of the model.
    pub fn num_params(&self) -> usize {
        match self.inputs {
            Inputs::VggLite { .. } => models::vgg_lite(0, 3, 8, 10).num_params(),
            Inputs::Synthetic { m, .. } => m,
        }
    }

    /// The selection budget `k` after the density warm-up.
    pub fn base_k(&self) -> usize {
        self.config().density.k(usize::MAX, self.num_params())
    }

    /// The constant selection budget `k`, for the workloads that have one.
    pub fn constant_k(&self) -> Option<usize> {
        match self.inputs {
            Inputs::VggLite { .. } => None,
            Inputs::Synthetic { .. } => Some(self.base_k()),
        }
    }

    /// The training configuration: the product's defaults for a gTop-k
    /// run (exact selector, binomial tree, 1 GbE cost model, momentum
    /// 0.9, no faults, no modelled compute).
    pub fn config(&self) -> TrainConfig {
        match self.inputs {
            Inputs::VggLite { batch, epochs, .. } => {
                TrainConfig::convergence(RANKS, batch, epochs, 0.05, 0.005)
            }
            Inputs::Synthetic { rho, .. } => synthetic_config(RANKS, rho),
        }
    }

    /// Runs one episode from scratch — inputs generated from `seed`,
    /// replicas built, mesh brought up, every step executed — on this
    /// workload's transport, or on `transport` if given.
    ///
    /// # Errors
    ///
    /// See [`episode::run`].
    pub fn episode(
        &self,
        seed: u64,
        path: Path,
        transport: Option<Transport>,
    ) -> Result<Episode, String> {
        let started = Instant::now();
        let cfg = self.config();
        let transport = transport.unwrap_or(self.transport);
        match self.inputs {
            Inputs::VggLite { items, .. } => {
                let data = PatternImages::cifar_like(seed, items);
                let build = || models::vgg_lite(seed, 3, 8, 10);
                episode::run(&cfg, transport, path, self.warmup, started, build, &data)
            }
            Inputs::Synthetic { m, steps, .. } => {
                let bank = GradientBank::generate(seed, m, RANKS);
                let data = SyntheticData::new(RANKS, steps);
                let build = || SyntheticModel::new(bank.clone(), &data);
                episode::run(&cfg, transport, path, self.warmup, started, build, &data)
            }
        }
    }
}
