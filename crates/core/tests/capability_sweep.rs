//! Capability sweep: every cell of Algorithm (8) × engine {serial,
//! overlap} × recovery {off, fault plan, checkpoint dir}.
//!
//! * `TrainConfig::validate()` is `Ok` ⇒ a one-epoch mlp run at P = 4
//!   finishes with replicas consistent (`train_distributed` asserts
//!   that);
//! * `Err` ⇒ the `ConfigError` names two distinct settings, both of them
//!   settings the cell actually turned on;
//! * the accepted set equals a literal matrix transcribed from what the
//!   six scattered validators accepted before they were folded into the
//!   one table — widened since by the overlap engine running every row,
//!   so each row's overlap line equals its serial line.

use gtopk::{train_distributed, Algorithm, OverlapConfig, TrainConfig, TrainReport};
use gtopk_comm::FaultPlan;
use gtopk_data::GaussianMixture;
use gtopk_nn::models;
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Engine {
    Serial,
    Overlap,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Recovery {
    Off,
    FaultPlan,
    /// A checkpoint directory, with the fault-free plan that arms the
    /// recovery policy (what `--checkpoint-dir` builds).
    CheckpointDir,
}

const ENGINES: [Engine; 2] = [Engine::Serial, Engine::Overlap];
const RECOVERIES: [Recovery; 3] = [Recovery::Off, Recovery::FaultPlan, Recovery::CheckpointDir];

/// `#` = accepted. One line per engine (serial, overlap); per line one
/// column per recovery (off, fault plan, checkpoint dir).
const ACCEPTED: [(Algorithm, [&str; 2]); 8] = [
    (Algorithm::Dense, ["#..", "#.."]),
    (Algorithm::TopK, ["#..", "#.."]),
    (Algorithm::GTopK, ["###", "###"]),
    (Algorithm::NaiveGTopK, ["#..", "#.."]),
    (Algorithm::GTopKFeedback, ["###", "###"]),
    (Algorithm::GTopKNoPutback, ["#..", "#.."]),
    (Algorithm::OkTopk, ["#..", "#.."]),
    (Algorithm::SparDl, ["#..", "#.."]),
];

fn scratch_dir(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gtopk-sweep-{label}-{}", std::process::id()))
}

fn cell(alg: Algorithm, engine: Engine, recovery: Recovery) -> TrainConfig {
    let mut cfg = TrainConfig::convergence(4, 8, 1, 0.1, 0.05).with_algorithm(alg);
    cfg.checkpoint_interval = 2;
    match engine {
        Engine::Serial => {}
        Engine::Overlap => cfg.overlap = Some(OverlapConfig::buckets(2)),
    }
    match recovery {
        Recovery::Off => {}
        Recovery::FaultPlan => cfg.fault_plan = Some(FaultPlan::seeded(7).with_drop_prob(0.05)),
        Recovery::CheckpointDir => {
            cfg.fault_plan = Some(FaultPlan::seeded(7));
            let label = format!("{alg:?}-{engine:?}");
            cfg.checkpoint_dir = Some(scratch_dir(&label));
        }
    }
    cfg
}

/// The setting names (as `ConfigError` spells their prefix) a cell turned
/// on — an error may only blame these.
fn active_settings(engine: Engine, recovery: Recovery) -> Vec<&'static str> {
    let mut on = vec!["algorithm"];
    match engine {
        Engine::Serial => {}
        Engine::Overlap => on.push("overlap"),
    }
    match recovery {
        Recovery::Off => {}
        Recovery::FaultPlan => on.push("fault plan"),
        Recovery::CheckpointDir => on.extend(["fault plan", "checkpoint_dir"]),
    }
    on
}

fn run(cfg: &TrainConfig) -> TrainReport {
    let data = GaussianMixture::new(3, 128, 8, 4, 2.0, 0.4);
    train_distributed(cfg, || models::mlp(5, 8, 16, 4), &data, None)
}

#[test]
fn every_cell_runs_or_is_refused_naming_both_settings() {
    let mut accepted = 0;
    for (alg, want) in ACCEPTED {
        let mut got: Vec<String> = Vec::new();
        for engine in ENGINES {
            let mut line = String::new();
            for recovery in RECOVERIES {
                let cfg = cell(alg, engine, recovery);
                let what = format!("{} {engine:?} {recovery:?}", alg.name());
                match cfg.validate() {
                    Ok(()) => {
                        line.push('#');
                        accepted += 1;
                        if let Some(dir) = &cfg.checkpoint_dir {
                            let _ = std::fs::remove_dir_all(dir);
                        }
                        let report = run(&cfg);
                        assert_eq!(report.epochs.len(), 1, "{what}");
                        assert_eq!(report.survivors, 4, "{what}");
                        assert!(report.final_loss().is_finite(), "{what}");
                        if let Some(dir) = &cfg.checkpoint_dir {
                            let _ = std::fs::remove_dir_all(dir);
                        }
                    }
                    Err(err) => {
                        line.push('.');
                        let on = active_settings(engine, recovery);
                        let names = |s: &str| on.iter().any(|a| s.starts_with(a));
                        assert!(
                            names(&err.setting)
                                && names(&err.conflicts_with)
                                && err.setting != err.conflicts_with,
                            "{what}: `{err}` must name two of {on:?}"
                        );
                        assert!(!err.reason.is_empty(), "{what}");
                    }
                }
            }
            got.push(line);
        }
        assert_eq!(got, want, "{}: accepted set moved", alg.name());
        assert_eq!(got[1], got[0], "{}: overlap line", alg.name());
    }
    assert_eq!(accepted, 24);
}

#[test]
fn a_multi_rank_checkpoint_dir_needs_the_recovery_policy_up_front() {
    // Without a plan the first run would work and the *restart* would
    // die: refuse it before anything is written.
    let mut cfg = TrainConfig::convergence(4, 8, 1, 0.1, 0.05);
    cfg.checkpoint_dir = Some(scratch_dir("no-plan"));
    let err = cfg.validate().unwrap_err();
    assert_eq!(
        (err.setting.as_str(), err.conflicts_with.as_str()),
        ("checkpoint_dir", "workers 4")
    );
    // A solo run cold-resumes without any protocol.
    cfg.workers = 1;
    assert_eq!(cfg.validate(), Ok(()));
}

#[test]
fn the_design_doc_carries_the_table_the_code_renders() {
    // DESIGN.md §5 embeds `capability_table()` verbatim (it is what
    // `gtopk info` prints): a row or a rule changed in code must change
    // there too.
    let design = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design = std::fs::read_to_string(design).expect("DESIGN.md at the workspace root");
    assert!(
        design.contains(gtopk::capability_table().trim_end()),
        "DESIGN.md §5 is out of date; regenerate it from `gtopk info`"
    );
}
