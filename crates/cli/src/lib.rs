//! Library backing the `gtopk` command-line tool.
//!
//! Subcommands:
//!
//! * `train` — run distributed S-SGD on a synthetic workload with any of
//!   the implemented aggregation algorithms;
//! * `aggregate` — time one aggregation step at paper scale on the
//!   simulated network;
//! * `sweep` — Fig.-9-style sweep of aggregation time over worker counts;
//! * `info` — describe the reproduction (paper, algorithms, models) and
//!   print the support matrix: which algorithm runs with which topology,
//!   execution mode and recovery policy;
//! * `help` — usage.
//!
//! The binary is a thin `main` over [`run`], so everything is testable.

#![warn(missing_docs)]

pub mod args;
mod commands;

pub use args::{ArgError, ParsedArgs};
pub use commands::run;

/// Usage text shown by `gtopk help` (and on argument errors).
pub const USAGE: &str = "\
gtopk — global Top-k sparsification S-SGD (ICDCS'19 reproduction)

USAGE:
  gtopk <command> [--option value | --flag]...

COMMANDS:
  train       train a model with distributed S-SGD on a simulated cluster
              (which algorithm combines with which topology, mode and
              recovery option: see `gtopk info`)
    --model      mlp | vgg | resnet | alexnet | lstm     [mlp]
    --algorithm  dense | topk | gtopk | naive | feedback | no-putback
                 | oktopk | spardl                        [gtopk]
    --workers    number of simulated workers             [4]
    --epochs     training epochs                         [10]
    --batch      per-worker batch size                   [8]
    --lr         learning rate                           [0.05]
    --density    gradient density rho                    [0.005]
    --seed       model/data seed                         [42]
    --sampled-selection N   use sampled top-k with N samples
    --overlap               pipeline per-bucket collectives behind
                            backward compute
    --buckets N             overlap buckets (0 = one per layer)    [4]
    --topology   binomial | hierarchical | ring collective plan [binomial]
    --momentum-correction   apply DGC-style momentum correction
    --clip N                clip local gradients to L2 norm N
    --mode       allreduce | ps execution mode            [allreduce]
                 (ps: bulk-sync sharded parameter server, workers push
                 k-sparse shard slices and pull dense shard updates)
    --shards S              server shard count (ps)           [workers]
    fault injection:
    --fault-seed S          deterministic fault schedule seed     [1]
    --fault-drop P          per-message drop probability in [0,1) [0]
    --fault-jitter MS       max extra per-message delay, ms       [0]
    --fault-crash R:T[,..]  kill rank R before its T-th step
    --fault-straggle R:F[,..]  slow rank R down by factor F >= 1
    --fault-checkpoint N    iterations between checkpoints        [10]
    --checkpoint-dir DIR    write durable checkpoints under DIR; a
                            killed process restarted with the same
                            arguments resumes from DIR (and, under
                            --transport tcp, rejoins the live run)
    real processes (one gtopk process per rank, TCP loopback/LAN):
    --transport  sim | tcp                               [sim]
    --rank R                this process's rank (tcp only, required)
    --listen ADDR           bind address                 [127.0.0.1:0]
    --peers A0,A1,..        all P rank addresses, in rank order
    --rendezvous DIR        exchange addresses via files in DIR
                            (alternative to --peers; OS picks ports;
                            with --checkpoint-dir it doubles as the
                            live address book for rank rejoin)

  aggregate   time one gradient aggregation at paper scale
    --workers    worker count                            [32]
    --params     model size m                            [25000000]
    --density    gradient density rho                    [0.001]
    --network    1gbe | 10gbe | ib                       [1gbe]

  sweep       aggregation time vs workers (Fig. 9 style)
    --params     model size m                            [25000000]
    --density    gradient density rho                    [0.001]
    --network    1gbe | 10gbe | ib                       [1gbe]

  info        describe the reproduction; print the support matrix
  help        this text
";
