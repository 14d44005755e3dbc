//! Runs every table/figure reproduction binary in sequence, writing all
//! TSVs under `results/`.
//!
//! Run: `cargo run --release -p gtopk-bench --bin run_all`

use std::process::Command;

const BINARIES: &[&str] = &[
    "table1_complexity",
    "fig01_select_k_from_kp",
    "fig05_convergence_cifar",
    "fig06_convergence_imagenet",
    "fig07_convergence_lstm",
    "fig08_p2p",
    "fig09_allreduce_time",
    "fig10_scaling_efficiency",
    "fig11_time_breakdown",
    "fig12_density_sensitivity",
    "fig13_14_batch_size",
    "table4_throughput",
    "ext_overlap",
    "ext_putback_ablation",
    "ext_hierarchical_network",
    "ext_momentum_correction",
    "ext_support_overlap",
    "ext_fault_tolerance",
    "ext_elastic",
    "bench_plans",
    "bench_zoo",
];

fn main() {
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    let mut failures = Vec::new();
    for bin in BINARIES {
        println!("\n================ {bin} ================");
        let path = exe_dir.join(bin);
        let status = Command::new(&path).status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                failures.push(*bin);
            }
            Err(e) => {
                eprintln!("{bin} failed to start: {e} (build all bins first: cargo build --release -p gtopk-bench --bins)");
                failures.push(*bin);
            }
        }
    }
    println!("\n================ summary ================");
    if failures.is_empty() {
        println!(
            "all {} experiments completed; TSVs in results/",
            BINARIES.len()
        );
    } else {
        println!("failed: {failures:?}");
        std::process::exit(1);
    }
}
