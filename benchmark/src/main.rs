//! `gtopk-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//! (see `README.md`; `run.sh` builds and calls this).

use gtopk_benchmark::host::Host;
use gtopk_benchmark::run::{end_to_end, per_layer, result_json, Outcome};
use gtopk_benchmark::workload::{Spec, WORKLOADS};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: None,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                args.workload =
                    Some(Spec::named(&value).ok_or_else(|| bad(&format!("one of {names:?}")))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("a number in (0, 60]"));
                }
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Everything but the contract's result line: provenance, every metric
/// by name with unit and sample count, failed checks.
fn describe(spec: &Spec, args: &Args, traced: bool, host: &Host, out: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# {} seed={} seconds={} trace={} episodes={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(traced),
        out.episodes.len()
    );
    let _ = writeln!(s, "# host {}", host.json());
    for m in &out.metrics {
        let _ = writeln!(
            s,
            "{:<28} {:>16.6} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &out.notes {
        let _ = writeln!(s, "# {note}");
    }
    for v in &out.violations {
        let _ = writeln!(s, "CHECK FAILED: {v}");
    }
    s
}

/// The detail file: provenance, metrics with sample counts, and every
/// episode's per-step samples (the tail the end-to-end metrics leave out).
fn detail_json(spec: &Spec, args: &Args, traced: bool, host: &Host, out: &Outcome) -> String {
    let mut s = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {},\n \"result\": {},\n \"samples\": {{",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(traced),
        host.json(),
        result_json(out)
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": {}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.samples
        );
    }
    s.push_str("},\n \"episodes\": [");
    for (i, ep) in out.episodes.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n  {{\"traced\": {}, \"setup_s\": {:?}, \"window_s\": {:?}, \"steps\": {}, \"fingerprint\": \"{:016x}\", \"step_ms\": {:?}}}",
            if i == 0 { "" } else { "," },
            !ep.spans.is_empty(),
            ep.setup_s,
            ep.window_s,
            ep.steps,
            ep.fingerprint,
            ep.step_ms
        );
    }
    s.push_str("\n ]}\n");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("gtopk-benchmark: {why}");
            eprintln!(
                "usage: gtopk-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]"
            );
            return ExitCode::from(2);
        }
    };
    let host = Host::read();
    let workloads: Vec<&Spec> = args
        .workload
        .map_or(WORKLOADS.iter().collect(), |w| vec![w]);
    let modes: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut all_correct = true;
    for spec in workloads {
        for &traced in &modes {
            let out = if traced {
                let file = args.out_dir.join(format!("trace-{}.json", spec.name));
                per_layer(spec, args.seed, args.seconds, &file)
            } else {
                end_to_end(spec, args.seed, args.seconds)
            };
            print!("{}", describe(spec, &args, traced, &host, &out));
            let detail = args.out_dir.join(format!(
                "result-{}-trace{}.json",
                spec.name,
                u8::from(traced)
            ));
            if let Err(e) = std::fs::create_dir_all(&args.out_dir).and_then(|()| {
                std::fs::write(&detail, detail_json(spec, &args, traced, &host, &out))
            }) {
                eprintln!("gtopk-benchmark: cannot write {}: {e}", detail.display());
            }
            println!("{}", result_json(&out));
            all_correct &= out.correct();
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
