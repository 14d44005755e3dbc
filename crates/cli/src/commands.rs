//! Subcommand implementations.

use crate::args::{ArgError, ParsedArgs};
use gtopk::{
    check_resume, train_distributed, train_rank, Algorithm, CheckpointStore, DensitySchedule,
    OverlapConfig, Topology, TrainConfig,
};
use gtopk_comm::transport::{install_leave_signals, AddrResolver, TcpConfig, TcpTransport};
use gtopk_comm::{Communicator, CostModel, FaultPlan};
use gtopk_data::{GaussianMixture, MarkovText, PatternImages};
use gtopk_nn::{models, Model};
use gtopk_perfmodel::{dense_plan_ms, gtopk_plan_ms, topk_plan_ms};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Executes a parsed command line; returns the text to print.
///
/// # Errors
///
/// Returns [`ArgError`] for unknown commands, unknown options or invalid
/// values. (The caller prints the message plus usage.)
pub fn run(parsed: &ParsedArgs) -> Result<String, ArgError> {
    match parsed.command.as_str() {
        "train" => cmd_train(parsed),
        "aggregate" => cmd_aggregate(parsed),
        "sweep" => cmd_sweep(parsed),
        "info" => Ok(cmd_info()),
        "help" | "--help" | "-h" => Ok(crate::USAGE.to_string()),
        other => Err(ArgError(format!("unknown command `{other}`"))),
    }
}

fn parse_algorithm(name: &str) -> Result<Algorithm, ArgError> {
    Ok(match name {
        "dense" => Algorithm::Dense,
        "topk" => Algorithm::TopK,
        "gtopk" => Algorithm::GTopK,
        "naive" => Algorithm::NaiveGTopK,
        "feedback" => Algorithm::GTopKFeedback,
        "no-putback" => Algorithm::GTopKNoPutback,
        "oktopk" => Algorithm::OkTopk,
        "spardl" => Algorithm::SparDl,
        other => {
            return Err(ArgError(format!(
                "unknown algorithm `{other}` (accepted values: dense, topk, \
                 gtopk, naive, feedback, no-putback, oktopk, spardl)"
            )))
        }
    })
}

fn parse_network(name: &str) -> Result<CostModel, ArgError> {
    Ok(match name {
        "1gbe" => CostModel::gigabit_ethernet(),
        "10gbe" => CostModel::ten_gigabit_ethernet(),
        "ib" => CostModel::infiniband(),
        other => return Err(ArgError(format!("unknown network `{other}`"))),
    })
}

/// Parses a `rank:value[,rank:value...]` list (used by `--fault-crash`
/// and `--fault-straggle`).
fn parse_rank_pairs<T: std::str::FromStr>(
    option: &str,
    raw: &str,
) -> Result<Vec<(usize, T)>, ArgError> {
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|part| {
            let (r, v) = part.split_once(':').ok_or_else(|| {
                ArgError(format!("--{option}: expected rank:value, got `{part}`"))
            })?;
            let rank: usize = r
                .parse()
                .map_err(|_| ArgError(format!("--{option}: invalid rank `{r}`")))?;
            let value: T = v
                .parse()
                .map_err(|_| ArgError(format!("--{option}: invalid value `{v}`")))?;
            Ok((rank, value))
        })
        .collect()
}

/// Builds the fault plan from `--fault-*` options; `None` when no fault
/// option is present.
fn parse_fault_plan(parsed: &ParsedArgs, workers: usize) -> Result<Option<FaultPlan>, ArgError> {
    let seed: u64 = parsed.get("fault-seed", 1)?;
    let drop: f64 = parsed.get("fault-drop", 0.0)?;
    let jitter: f64 = parsed.get("fault-jitter", 0.0)?;
    let crash: Vec<(usize, u64)> =
        parse_rank_pairs("fault-crash", &parsed.get_str("fault-crash", ""))?;
    let straggle: Vec<(usize, f64)> =
        parse_rank_pairs("fault-straggle", &parsed.get_str("fault-straggle", ""))?;
    if drop == 0.0 && jitter == 0.0 && crash.is_empty() && straggle.is_empty() {
        return Ok(None);
    }
    if !(0.0..1.0).contains(&drop) {
        return Err(ArgError("--fault-drop must be in [0, 1)".into()));
    }
    if !(jitter.is_finite() && jitter >= 0.0) {
        return Err(ArgError(
            "--fault-jitter must be a finite delay >= 0".into(),
        ));
    }
    let mut plan = FaultPlan::seeded(seed)
        .with_drop_prob(drop)
        .with_jitter_ms(jitter);
    for (rank, step) in crash {
        if rank >= workers {
            return Err(ArgError(format!(
                "--fault-crash: rank {rank} out of range (P = {workers})"
            )));
        }
        plan = plan.with_crash(rank, step);
    }
    for (rank, factor) in straggle {
        if rank >= workers {
            return Err(ArgError(format!(
                "--fault-straggle: rank {rank} out of range (P = {workers})"
            )));
        }
        if !(factor.is_finite() && factor >= 1.0) {
            return Err(ArgError(
                "--fault-straggle: factor must be finite and >= 1".into(),
            ));
        }
        plan = plan.with_straggler(rank, factor);
    }
    Ok(Some(plan))
}

/// How `train` obtains its communicator(s).
enum Launch {
    /// In-process simulated cluster: one thread per rank.
    Sim,
    /// This OS process is one rank of a real multi-process cluster.
    Tcp(Box<Communicator>),
}

/// Parses the `--transport`/`--rank`/`--listen`/`--peers`/`--rendezvous`
/// options into a [`Launch`]. The default (`sim`) tolerates none of the
/// TCP-only options.
///
/// `elastic` (set by `--checkpoint-dir`) switches the TCP backend to
/// its rejoin-tolerant configuration — a restarted process may dial
/// peers that are mid-training — installs the SIGINT/SIGTERM graceful-
/// LEAVE handlers, and, under `--rendezvous`, wires the address files
/// in as the live address book so survivors can redial a restarted
/// rank at its new port.
fn parse_launch(
    parsed: &ParsedArgs,
    workers: usize,
    cost: CostModel,
    elastic: bool,
) -> Result<Launch, ArgError> {
    let transport = parsed.get_str("transport", "sim");
    match transport.as_str() {
        "sim" => {
            for opt in ["rank", "listen", "peers", "rendezvous"] {
                if parsed.has_option(opt) {
                    return Err(ArgError(format!("--{opt} requires --transport tcp")));
                }
            }
            Ok(Launch::Sim)
        }
        "tcp" => {
            if !parsed.has_option("rank") {
                return Err(ArgError(
                    "--transport tcp requires --rank (this process's rank)".into(),
                ));
            }
            let rank: usize = parsed.get("rank", 0)?;
            if rank >= workers {
                return Err(ArgError(format!(
                    "--rank {rank} out of range (P = {workers})"
                )));
            }
            let listen = parsed.get_str("listen", "127.0.0.1:0");
            let listener = TcpListener::bind(&listen)
                .map_err(|e| ArgError(format!("--listen {listen}: {e}")))?;
            let peers: Vec<SocketAddr> = if parsed.has_option("peers") {
                parsed
                    .get_str("peers", "")
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|_| ArgError(format!("--peers: bad address `{s}`")))
                    })
                    .collect::<Result<_, _>>()?
            } else if parsed.has_option("rendezvous") {
                let own = listener
                    .local_addr()
                    .map_err(|e| ArgError(format!("listener address: {e}")))?;
                rendezvous_peers(&parsed.get_str("rendezvous", ""), rank, workers, own)?
            } else {
                return Err(ArgError(
                    "--transport tcp requires --peers addr0,addr1,... or --rendezvous DIR".into(),
                ));
            };
            if peers.len() != workers {
                return Err(ArgError(format!(
                    "expected {workers} peer addresses, got {}",
                    peers.len()
                )));
            }
            let config = if elastic {
                TcpConfig::elastic_local()
            } else {
                TcpConfig::fast_local()
            };
            let resolver: Option<AddrResolver> = if elastic && parsed.has_option("rendezvous") {
                let dir = std::path::PathBuf::from(parsed.get_str("rendezvous", ""));
                Some(std::sync::Arc::new(move |r| {
                    std::fs::read_to_string(dir.join(format!("rank-{r}.addr")))
                        .ok()?
                        .trim()
                        .parse()
                        .ok()
                }))
            } else {
                None
            };
            let t = TcpTransport::establish_with_resolver(listener, rank, peers, config, resolver)
                .map_err(|e| ArgError(format!("tcp transport: {e}")))?;
            if elastic {
                install_leave_signals();
            }
            Ok(Launch::Tcp(Box::new(Communicator::from_transport(
                Box::new(t),
                cost,
            ))))
        }
        other => Err(ArgError(format!(
            "unknown transport `{other}` (accepted values: sim, tcp)"
        ))),
    }
}

/// OS-assigned-port rendezvous: publish this rank's bound address as
/// `DIR/rank-R.addr` (atomically, via rename) and poll until every rank's
/// file exists. Lets launch scripts start `P` processes on port 0 with no
/// pre-agreed port list.
fn rendezvous_peers(
    dir: &str,
    rank: usize,
    workers: usize,
    own: SocketAddr,
) -> Result<Vec<SocketAddr>, ArgError> {
    if dir.is_empty() {
        return Err(ArgError("--rendezvous needs a directory path".into()));
    }
    let dir = std::path::Path::new(dir);
    let io_err = |what: &str, e: std::io::Error| ArgError(format!("rendezvous {what}: {e}"));
    std::fs::create_dir_all(dir).map_err(|e| io_err("dir", e))?;
    let tmp = dir.join(format!(".rank-{rank}.addr.tmp"));
    std::fs::write(&tmp, own.to_string()).map_err(|e| io_err("write", e))?;
    std::fs::rename(&tmp, dir.join(format!("rank-{rank}.addr")))
        .map_err(|e| io_err("publish", e))?;
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut peers: Vec<Option<SocketAddr>> = vec![None; workers];
    loop {
        for (r, slot) in peers.iter_mut().enumerate() {
            if slot.is_none() {
                if let Ok(s) = std::fs::read_to_string(dir.join(format!("rank-{r}.addr"))) {
                    *slot = s.trim().parse().ok();
                }
            }
        }
        if peers.iter().all(Option::is_some) {
            return Ok(peers.into_iter().flatten().collect());
        }
        if Instant::now() >= deadline {
            return Err(ArgError(
                "rendezvous timed out waiting for peer address files".into(),
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn cmd_train(parsed: &ParsedArgs) -> Result<String, ArgError> {
    parsed.ensure_known(&[
        "model",
        "algorithm",
        "workers",
        "epochs",
        "batch",
        "lr",
        "density",
        "seed",
        "overlap",
        "buckets",
        "momentum-correction",
        "clip",
        "transport",
        "rank",
        "listen",
        "peers",
        "rendezvous",
        "fault-seed",
        "fault-drop",
        "fault-jitter",
        "fault-crash",
        "fault-straggle",
        "fault-checkpoint",
        "checkpoint-dir",
    ])?;
    let model_name = parsed.get_str("model", "mlp");
    let algorithm = parse_algorithm(&parsed.get_str("algorithm", "gtopk"))?;
    let workers: usize = parsed.get("workers", 4)?;
    let epochs: usize = parsed.get("epochs", 10)?;
    let batch: usize = parsed.get("batch", 8)?;
    let lr: f32 = parsed.get("lr", 0.05)?;
    let density = parse_density(parsed, 0.005)?;
    let seed: u64 = parsed.get("seed", 42)?;
    if workers == 0 || epochs == 0 || batch == 0 {
        return Err(ArgError(
            "workers, epochs and batch must be positive".into(),
        ));
    }
    if !(lr.is_finite() && lr > 0.0) {
        return Err(ArgError("--lr must be positive and finite".into()));
    }

    let mut cfg = TrainConfig::convergence(workers, batch, epochs, lr, density);
    cfg.algorithm = algorithm;
    cfg.density = DensitySchedule::paper_warmup(density);
    cfg.momentum_correction = parsed.has_flag("momentum-correction");
    let clip: f32 = parsed.get("clip", 0.0)?;
    if !(clip.is_finite() && clip >= 0.0) {
        return Err(ArgError(
            "--clip must be a finite norm >= 0 (0 disables clipping)".into(),
        ));
    }
    if clip > 0.0 {
        cfg.clip_norm = Some(clip);
    }
    if parsed.has_flag("overlap") {
        // --buckets 0 means one bucket per layer; default 4 fused buckets.
        let buckets: usize = parsed.get("buckets", 4)?;
        cfg.overlap = Some(if buckets == 0 {
            OverlapConfig::per_layer()
        } else {
            OverlapConfig::buckets(buckets)
        });
    } else if parsed.has_option("buckets") {
        return Err(ArgError("--buckets requires --overlap".into()));
    }

    let tcp = parsed.get_str("transport", "sim") == "tcp";

    cfg.fault_plan = parse_fault_plan(parsed, workers)?;
    let ckpt_dir = parsed.get_str("checkpoint-dir", "");
    let elastic = !ckpt_dir.is_empty();
    if elastic {
        cfg = cfg.with_checkpoint_dir(&ckpt_dir);
    }
    // Durable checkpoints imply the recovery policy (a restart must
    // restore, and survivors must notice the death and the later rejoin),
    // and real processes die for real: both arm the checkpoint/rollback
    // policy with a fault-free plan, so organic peer death (detected by
    // the transport's deadlines and heartbeats) takes the same ULFM-style
    // recovery path as an injected crash. Over TCP only where the
    // algorithm can recover at all; fail-fast otherwise.
    let implied_plan =
        cfg.fault_plan.is_none() && (elastic || (tcp && algorithm.row().caps.recovery));
    if implied_plan {
        cfg.fault_plan = Some(FaultPlan::seeded(parsed.get("fault-seed", 1)?));
    }
    if cfg.fault_plan.is_some() {
        cfg.checkpoint_interval = parsed.get("fault-checkpoint", 10)?;
        if cfg.checkpoint_interval == 0 {
            return Err(ArgError("--fault-checkpoint must be positive".into()));
        }
    }
    // Which of these settings may be combined is the capability table's
    // call (`gtopk info` prints it), made in one place.
    cfg.validate().map_err(|e| {
        let note = if implied_plan {
            " [--checkpoint-dir and --transport tcp arm a fault plan]"
        } else {
            ""
        };
        ArgError(format!("{e}{note}"))
    })?;
    let mut launch = parse_launch(parsed, workers, cfg.cost_model, elastic)?;

    // The ranks this process trains: every one in-process, its own over
    // TCP. Their checkpoint directories must fit the run before it starts.
    let ranks = match &launch {
        Launch::Sim => 0..workers,
        Launch::Tcp(comm) => comm.rank()..comm.rank() + 1,
    };

    // Dispatches one model family to the selected launch mode: the
    // in-process cluster always yields a report; a TCP rank yields `None`
    // if it crashed or was expelled mid-run.
    macro_rules! launch_model {
        ($build:expr, $data:expr) => {{
            let build = $build;
            let data = $data;
            let model = build();
            let m = model.num_params();
            check_checkpoint_dir(&cfg, &model.param_segments(), ranks.clone())?;
            let report = match &mut launch {
                Launch::Sim => Some(train_distributed(&cfg, build, &data, None)),
                Launch::Tcp(comm) => train_rank(&cfg, comm, build, &data, None),
            };
            (report, m)
        }};
    }
    let (report, m) = match model_name.as_str() {
        "mlp" => {
            let data =
                GaussianMixture::new(seed, 64 * workers.max(4) * batch.max(8), 16, 4, 2.5, 0.5);
            launch_model!(move || models::mlp(seed, 16, 32, 4), data)
        }
        "vgg" => {
            let data = PatternImages::cifar_like(seed, 16 * workers.max(4) * batch.max(8));
            launch_model!(move || models::vgg_lite(seed, 3, 8, 10), data)
        }
        "resnet" => {
            let data = PatternImages::cifar_like(seed, 16 * workers.max(4) * batch.max(8));
            launch_model!(move || models::resnet20_lite(seed, 3, 10), data)
        }
        "alexnet" => {
            let data = PatternImages::imagenet_like(seed, 12 * workers.max(4) * batch.max(8));
            launch_model!(move || models::alex_lite(seed, 3, 16, 20), data)
        }
        "lstm" => {
            let data = MarkovText::new(seed, 16 * workers.max(4) * batch.max(8), 16, 12);
            launch_model!(move || models::lstm_lm(seed, 16, 12, 24), data)
        }
        other => return Err(ArgError(format!("unknown model `{other}`"))),
    };

    let Some(report) = report else {
        // Only reachable on a TCP rank that died or was expelled.
        let rank: usize = parsed.get("rank", 0)?;
        return Ok(format!("rank {rank} left the run (crashed or expelled)\n"));
    };
    let mut out = String::new();
    if let Launch::Tcp(comm) = &launch {
        out.push_str(&format!(
            "tcp rank {}/{} trained as one real process\n",
            comm.rank(),
            workers
        ));
    }
    out.push_str(&format!(
        "{} on {model_name} ({} parameters), P = {}, b = {batch}, rho = {density}\n",
        report.algorithm, m, report.workers
    ));
    for e in &report.epochs {
        out.push_str(&format!(
            "epoch {:3}  density {:.4}  loss {:.4}\n",
            e.epoch, e.density, e.train_loss
        ));
    }
    out.push_str(&format!(
        "rank-0 traffic: {} elements ({} KiB); simulated time {:.1} ms\n",
        report.elems_sent_rank0,
        report.elems_sent_rank0 * 4 / 1024,
        report.sim_time_ms
    ));
    if let Some(ov) = &report.overlap {
        out.push_str(&format!(
            "overlap: {} buckets, executed {:.1} ms vs serial {:.1} ms \
             ({:.2}x), analytic {:.1} ms (max dev {:.2e} ms)\n",
            ov.buckets,
            ov.executed_overlapped_ms,
            ov.analytic_serial_ms,
            ov.speedup_vs_serial(),
            ov.analytic_overlapped_ms,
            ov.max_abs_dev_ms,
        ));
    }
    if cfg.fault_tolerant() {
        out.push_str(&format!(
            "faults: {} retransmissions, {} recoveries ({:.1} ms), {}/{} ranks survived\n",
            report.retransmissions,
            report.timing.recoveries,
            report.timing.recovery_ms,
            report.survivors,
            report.workers
        ));
        for ls in &report.link_stats {
            out.push_str(&format!(
                "  link to rank {}: {} retransmissions, {} timeouts\n",
                ls.peer, ls.retransmissions, ls.timeouts
            ));
        }
    }
    Ok(out)
}

/// Refuses a run whose `--checkpoint-dir` holds, for any of `ranks`, a
/// newest generation that cannot resume it ([`check_resume`]).
fn check_checkpoint_dir(
    cfg: &TrainConfig,
    segments: &[usize],
    ranks: std::ops::Range<usize>,
) -> Result<(), ArgError> {
    let Some(dir) = &cfg.checkpoint_dir else {
        return Ok(());
    };
    let err = |e: String| ArgError(format!("--checkpoint-dir {}: {e}", dir.display()));
    for rank in ranks {
        let store = CheckpointStore::new(dir, rank).map_err(|e| err(e.to_string()))?;
        if let Some((saved, _)) = store.load_latest() {
            check_resume(cfg, segments, &saved).map_err(|e| {
                err(format!(
                    "rank {rank}'s checkpoint at iteration {} does not fit this run ({e})",
                    saved.iter
                ))
            })?;
        }
    }
    Ok(())
}

/// `--density`, which every command requires in `(0, 1]`.
fn parse_density(parsed: &ParsedArgs, default: f64) -> Result<f64, ArgError> {
    let density: f64 = parsed.get("density", default)?;
    if !(density > 0.0 && density <= 1.0) {
        return Err(ArgError("--density must be in (0, 1]".into()));
    }
    Ok(density)
}

/// The paper-scale `--params m` and `--density rho` of `aggregate` and
/// `sweep`, with the budget `k` they price.
fn parse_paper_scale(parsed: &ParsedArgs) -> Result<(usize, f64, usize), ArgError> {
    let m: usize = parsed.get("params", 25_000_000)?;
    if m == 0 {
        return Err(ArgError("--params must be >= 1".into()));
    }
    let density = parse_density(parsed, 0.001)?;
    Ok((m, density, ((m as f64 * density) as usize).max(1)))
}

fn cmd_aggregate(parsed: &ParsedArgs) -> Result<String, ArgError> {
    parsed.ensure_known(&["workers", "params", "density", "network"])?;
    let p: usize = parsed.get("workers", 32)?;
    let (m, density, k) = parse_paper_scale(parsed)?;
    let net = parse_network(&parsed.get_str("network", "1gbe"))?;
    if p == 0 {
        return Err(ArgError("workers must be positive".into()));
    }
    let dense = dense_plan_ms(&net, p, m);
    let topk = topk_plan_ms(&net, p, k);
    let gtopk = gtopk_plan_ms(&net, Topology::Binomial, p, k);
    Ok(format!(
        "P = {p}, m = {m}, rho = {density} (k = {k}), network alpha = {} ms beta = {} ms/elem\n\
         Dense  AllReduce : {dense:10.2} ms\n\
         TopK   AllReduce : {topk:10.2} ms  ({:.1}x vs dense)\n\
         gTopK  AllReduce : {gtopk:10.2} ms  ({:.1}x vs dense, {:.2}x vs TopK)\n",
        net.alpha_ms,
        net.beta_ms_per_elem,
        dense / topk,
        dense / gtopk,
        topk / gtopk,
    ))
}

fn cmd_sweep(parsed: &ParsedArgs) -> Result<String, ArgError> {
    parsed.ensure_known(&["params", "density", "network"])?;
    let (m, _, k) = parse_paper_scale(parsed)?;
    let net = parse_network(&parsed.get_str("network", "1gbe"))?;
    let mut out = format!("aggregation time (ms) vs workers — m = {m}, k = {k}\n");
    out.push_str(&format!(
        "{:>5} {:>12} {:>12} {:>12}\n",
        "P", "Dense", "TopK", "gTopK"
    ));
    for p in [2usize, 4, 8, 16, 32, 64, 128] {
        out.push_str(&format!(
            "{:>5} {:>12.2} {:>12.2} {:>12.2}\n",
            p,
            dense_plan_ms(&net, p, m),
            topk_plan_ms(&net, p, k),
            gtopk_plan_ms(&net, Topology::Binomial, p, k)
        ));
    }
    Ok(out)
}

fn cmd_info() -> String {
    let mut out = String::from(
        "gtopk — reproduction of Shi et al., \"A Distributed Synchronous SGD\n\
         Algorithm with Global Top-k Sparsification for Low Bandwidth Networks\"\n\
         (ICDCS 2019, arXiv:1901.04359)\n\nalgorithms:\n",
    );
    for alg in Algorithm::ALL {
        out.push_str(&format!("  {:20} ", alg.name()));
        out.push_str(match alg {
            Algorithm::Dense => "ring AllReduce over the dense gradient (baseline)\n",
            Algorithm::TopK => "local top-k + exact sparse sum, O(kP) (Alg. 1)\n",
            Algorithm::GTopK => "binomial-tree global top-k, O(k log P) (Alg. 3/4)\n",
            Algorithm::NaiveGTopK => "exact-sum global top-k reference (Alg. 2)\n",
            Algorithm::GTopKFeedback => "tree gTop-k + loss-free merge feedback (extension)\n",
            Algorithm::GTopKNoPutback => "ablation: gTop-k without residual put-back\n",
            Algorithm::OkTopk => "balanced split/gather with O(k) per-rank volume (zoo)\n",
            Algorithm::SparDl => "Spar-Reduce-Scatter + Spar-All-Gather, no dense tail (zoo)\n",
        });
    }
    out.push_str("\nsupport matrix (what `train` accepts, from the capability table):\n");
    out.push_str(&gtopk::capability_table());
    out.push_str("\nmodels: mlp, vgg, resnet, alexnet, lstm (scaled-down analogues)\n");
    out.push_str("networks: 1gbe (paper), 10gbe, ib\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(s: &str) -> Result<String, ArgError> {
        run(&ParsedArgs::parse(s.split_whitespace().map(String::from)).unwrap())
    }

    #[test]
    fn help_and_info_render() {
        assert!(run_line("help").unwrap().contains("USAGE"));
        let info = run_line("info").unwrap();
        assert!(info.contains("gTop-k"));
        assert!(info.contains("O(k log P)"));
    }

    #[test]
    fn aggregate_reports_all_three_algorithms() {
        let out = run_line("aggregate --workers 32 --params 1000000").unwrap();
        assert!(out.contains("Dense"));
        assert!(out.contains("gTopK"));
        assert!(out.contains("k = 1000"));
    }

    #[test]
    fn aggregate_prices_any_worker_count() {
        // The plan replays are exact at any P, folded ones included.
        let out = run_line("aggregate --workers 6 --params 1000000").unwrap();
        let net = CostModel::gigabit_ethernet();
        for (label, ms) in [
            ("Dense", dense_plan_ms(&net, 6, 1_000_000)),
            ("TopK", topk_plan_ms(&net, 6, 1000)),
            ("gTopK", gtopk_plan_ms(&net, Topology::Binomial, 6, 1000)),
        ] {
            let line = out.lines().find(|l| l.starts_with(label)).unwrap();
            assert!(line.contains(&format!("{ms:10.2} ms")), "{label}: {line}");
        }
        assert!(run_line("aggregate --workers 0").is_err());
    }

    #[test]
    fn sweep_has_a_row_per_worker_count() {
        let out = run_line("sweep --params 1000000").unwrap();
        for p in ["2", "4", "8", "16", "32", "64", "128"] {
            assert!(
                out.lines().any(|l| l.trim_start().starts_with(p)),
                "missing P={p}"
            );
        }
    }

    #[test]
    fn train_mlp_quick_run() {
        let out =
            run_line("train --model mlp --workers 2 --epochs 2 --batch 4 --density 0.05").unwrap();
        assert!(out.contains("epoch   1"), "{out}");
        assert!(out.contains("rank-0 traffic"));
    }

    #[test]
    fn train_with_overlap_reports_schedule() {
        // Every row runs bucketed, the dense ring included.
        for alg in ["gtopk", "dense"] {
            let out = run_line(&format!(
                "train --model mlp --workers 2 --epochs 2 --batch 4 --density 0.05 \
                 --algorithm {alg} --overlap --buckets 2"
            ))
            .unwrap();
            assert!(out.contains("overlap: 2 buckets"), "{alg}: {out}");
            assert!(out.contains("rank-0 traffic"), "{alg}: {out}");
        }
    }

    #[test]
    fn train_runs_the_zoo_algorithms() {
        for alg in ["oktopk", "spardl"] {
            let out = run_line(&format!(
                "train --model mlp --workers 2 --epochs 2 --batch 4 --density 0.05 \
                 --algorithm {alg}"
            ))
            .unwrap();
            assert!(out.contains("epoch   1"), "{alg}: {out}");
            assert!(out.contains("rank-0 traffic"), "{alg}: {out}");
        }
    }

    #[test]
    fn zoo_algorithms_compose_with_overlap() {
        let out = run_line(
            "train --model mlp --workers 2 --epochs 2 --batch 4 --density 0.05 \
             --algorithm oktopk --overlap --buckets 2",
        )
        .unwrap();
        assert!(out.contains("overlap: 2 buckets"), "{out}");
    }

    #[test]
    fn zoo_algorithm_rejections_are_actionable() {
        // Unknown names enumerate the full zoo.
        let err = run_line("train --algorithm ok-topk").unwrap_err();
        assert!(err.0.contains("oktopk, spardl"), "{}", err.0);
    }

    #[test]
    fn info_lists_the_zoo() {
        let info = run_line("info").unwrap();
        assert!(info.contains("Ok-Topk"), "{info}");
        assert!(info.contains("SparDL"), "{info}");
    }

    #[test]
    fn overlap_options_are_validated() {
        // Bucket count without the engine is a likely typo.
        let err = run_line("train --buckets 4").unwrap_err();
        assert!(err.0.contains("--overlap"), "{}", err.0);
    }

    #[test]
    fn train_validates_inputs() {
        assert!(run_line("train --algorithm nonsense").is_err());
        assert!(run_line("train --density 2.0").is_err());
        assert!(run_line("train --workers 0").is_err());
        assert!(run_line("train --modle mlp").is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run_line("frobnicate").is_err());
    }

    #[test]
    fn overlap_composes_with_crash_recovery_end_to_end() {
        // --overlap --buckets N --fault-crash runs through rollback and
        // shrink-and-continue in the unified loop.
        let out = run_line(
            "train --model mlp --workers 4 --epochs 2 --batch 4 --density 0.05 \
             --overlap --buckets 2 --fault-seed 3 --fault-crash 3:6 --fault-checkpoint 4",
        )
        .unwrap();
        assert!(out.contains("overlap: 2 buckets"), "{out}");
        assert!(out.contains("3/4 ranks survived"), "{out}");
    }

    #[test]
    fn train_with_crash_reports_fault_summary() {
        let out = run_line(
            "train --model mlp --workers 4 --epochs 2 --batch 4 --density 0.05 \
             --fault-seed 3 --fault-crash 3:6 --fault-checkpoint 4",
        )
        .unwrap();
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("3/4 ranks survived"), "{out}");
    }

    #[test]
    fn train_with_drops_and_straggler_completes() {
        let out = run_line(
            "train --model mlp --workers 2 --epochs 2 --batch 4 --density 0.05 \
             --fault-drop 0.1 --fault-straggle 1:2.0",
        )
        .unwrap();
        assert!(out.contains("retransmissions"), "{out}");
        assert!(out.contains("2/2 ranks survived"), "{out}");
    }

    #[test]
    fn transport_options_are_validated() {
        // TCP-only options are rejected under the default sim transport.
        for opt in [
            "--rank 0",
            "--listen 127.0.0.1:0",
            "--peers a",
            "--rendezvous d",
        ] {
            let err = run_line(&format!("train {opt}")).unwrap_err();
            assert!(err.0.contains("--transport tcp"), "{}", err.0);
        }
        // Unknown transports list the accepted values.
        let err = run_line("train --transport carrier-pigeon").unwrap_err();
        assert!(err.0.contains("sim, tcp"), "{}", err.0);
        // TCP needs a rank in range and a peer source.
        assert!(run_line("train --transport tcp").is_err());
        assert!(run_line("train --transport tcp --workers 2 --rank 5").is_err());
        let err = run_line("train --transport tcp --rank 0").unwrap_err();
        assert!(err.0.contains("--peers"), "{}", err.0);
        // Peer list length must match the worker count.
        assert!(run_line(
            "train --transport tcp --workers 4 --rank 0 --peers 127.0.0.1:1,127.0.0.1:2"
        )
        .is_err());
    }

    #[test]
    fn config_errors_surface_through_the_cli() {
        // Which settings combine is `TrainConfig::validate`'s call (the
        // capability sweep in gtopk-core walks every cell); the CLI's part
        // is to surface its text: both settings and where the matrix is.
        for (line, first, second) in [
            (
                "--algorithm no-putback --fault-crash 3:6",
                "algorithm gTop-k(no-putback)",
                "fault plan",
            ),
            (
                "--algorithm oktopk --fault-drop 0.1",
                "algorithm Ok-Topk",
                "fault plan",
            ),
            (
                "--algorithm dense --checkpoint-dir /tmp/x",
                "algorithm Dense",
                "checkpoint_dir",
            ),
        ] {
            let err = run_line(&format!("train {line}")).unwrap_err().0;
            assert!(
                err.contains(first) && err.contains(second) && err.contains("gtopk info"),
                "{line}: {err}"
            );
        }
    }

    #[test]
    fn train_with_checkpoint_dir_writes_durable_snapshots() {
        let dir = std::env::temp_dir().join(format!("gtopk-cli-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = run_line(&format!(
            "train --model mlp --workers 2 --epochs 2 --batch 4 --density 0.05 \
             --checkpoint-dir {} --fault-checkpoint 4",
            dir.display()
        ))
        .unwrap();
        assert!(out.contains("rank-0 traffic"), "{out}");
        let wrote = std::fs::read_dir(&dir)
            .map(|d| d.count() > 0)
            .unwrap_or(false);
        assert!(wrote, "no durable checkpoints under {}", dir.display());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_dir_of_another_run_shape_is_an_error_naming_the_field() {
        // Each row resumes a one-worker run's directory with one setting
        // changed; a run of the same shape resumes.
        let base = "train --workers 1 --batch 4 --density 0.05 --epochs";
        for (i, (change, field)) in [
            ("--overlap --buckets 2", Some("bucket count")),
            ("--model vgg", Some("parameter count")),
            ("--momentum-correction", Some("momentum-correction buffer")),
            ("", None),
        ]
        .into_iter()
        .enumerate()
        {
            let dir =
                std::env::temp_dir().join(format!("gtopk-cli-resume-{i}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let ckpt = format!("--checkpoint-dir {}", dir.display());
            run_line(&format!("{base} 2 {ckpt}")).unwrap();
            let resumed = run_line(&format!("{base} 3 {ckpt} {change}"));
            match field {
                Some(field) => {
                    let err = resumed.unwrap_err().0;
                    assert!(
                        err.contains("--checkpoint-dir") && err.contains(field),
                        "{change}: {err}"
                    );
                }
                None => assert!(resumed.unwrap().contains("epoch   2"), "resumes"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn the_removed_parameter_server_options_are_unknown() {
        // The parameter server is gone, and with it `--mode` (whose one
        // remaining value would be `allreduce`) and `--shards`.
        for line in [
            "train --mode ps",
            "train --mode allreduce",
            "train --shards 2",
        ] {
            let err = run_line(line).unwrap_err().0;
            let option = line.split_whitespace().nth(1).unwrap();
            assert!(
                err.contains(&format!("unknown option {option} ")),
                "{line}: {err}"
            );
        }
    }

    #[test]
    fn topology_options_are_validated() {
        // The binomial tree is the one gTop-k shape, so `--topology` is no
        // longer an option: every value, the old default included, is
        // refused as an unknown option rather than silently ignored.
        for value in ["binomial", "hierarchical", "ring", "star"] {
            let line = format!("train --topology {value}");
            let err = run_line(&line).unwrap_err().0;
            assert!(err.contains("unknown option --topology "), "{line}: {err}");
        }
    }

    #[test]
    fn fault_options_are_validated() {
        // Certain-loss links are rejected.
        assert!(run_line("train --fault-drop 1.0").is_err());
        // Malformed rank:step pairs.
        assert!(run_line("train --fault-crash 3").is_err());
        assert!(run_line("train --fault-crash a:b").is_err());
        // Out-of-range ranks and sub-unity straggle factors.
        assert!(run_line("train --workers 2 --fault-crash 5:1").is_err());
        assert!(run_line("train --fault-straggle 0:0.5").is_err());
    }

    #[test]
    fn numbers_that_would_panic_or_be_ignored_are_rejected_naming_the_flag() {
        for (line, flag) in [
            ("train --fault-jitter nan", "--fault-jitter"),
            ("train --fault-jitter inf", "--fault-jitter"),
            ("train --fault-straggle 1:inf", "--fault-straggle"),
            ("train --fault-straggle 1:nan", "--fault-straggle"),
            ("train --lr nan", "--lr"),
            ("train --lr -1", "--lr"),
            ("train --fault-crash 1:2.7", "--fault-crash"),
            ("train --fault-crash 1:-3", "--fault-crash"),
            ("train --clip nan", "--clip"),
            ("aggregate --density nan", "--density"),
            ("aggregate --density 0", "--density"),
            ("aggregate --params 0", "--params"),
            ("sweep --density 2", "--density"),
            ("sweep --params 0", "--params"),
        ] {
            let err = run_line(line).unwrap_err().0;
            assert!(err.contains(flag), "{line}: {err}");
        }
    }
}
