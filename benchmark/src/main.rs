//! The repo's end-to-end training benchmark.
//!
//! `--workload W --seed S --seconds N --trace 0|1` runs one workload in
//! this process and prints its metrics, then one JSON result line. Without
//! `--workload` every workload runs in turn, each in a fresh child process
//! so that peak RSS and allocator state are its own.

mod e2e;
mod host;
mod layers;
mod report;
mod spans;
mod stats;
mod workloads;

use host::Fingerprint;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Workload, REFERENCE_SECONDS, WORKLOADS};

/// Where the trace files and the transient chunk cache go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
}

const USAGE: &str = "usage: harp-benchmark --seed S [--workload W] [--seconds N] [--trace 0|1]";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args { workload: None, seed: 7, seconds: REFERENCE_SECONDS, traced: false };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload = Some(workloads::find(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds expects an integer")?;
                if !(1..=60).contains(&out.seconds) {
                    return Err("--seconds must be in 1..=60".into());
                }
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(out)
}

fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let fp = Fingerprint::collect(args.seed);
    let pass = if args.traced { "traced per-layer pass" } else { "end-to-end run" };
    println!("# harp-benchmark: {} — {pass}", w.name);
    println!("# why: {}", w.why);
    let fields: Vec<String> = fp.pairs().iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# host: {}", fields.join(" "));
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("error: cannot create {}: {e}", out_dir().display());
        return ExitCode::FAILURE;
    }
    let (metrics, ops) = if args.traced {
        layers::run(w, &fp, args.seconds)
    } else {
        e2e::run(w, &fp, args.seconds)
    };
    print!("{}", report::render_table(&metrics));
    println!("ops_attempted {}  ops_failed {}", ops.attempted, ops.failed);
    println!("{}", report::result_json(&metrics, &ops));
    if report::is_correct(&metrics, &ops) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a fresh child process; children print
/// their own reports.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(w.name);
        }
        println!();
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse(&[
            "--workload",
            "yfcc_sparse_mp",
            "--seed",
            "11",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.unwrap().name, "yfcc_sparse_mp");
        assert_eq!((a.seed, a.seconds, a.traced), (11, 10, true));
        let a = parse(&["--seed", "3"]).unwrap();
        assert!(a.workload.is_none() && !a.traced && a.seed == 3);
    }

    #[test]
    fn malformed_arguments_are_rejected() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--trace", "2"],
            &["--traced"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` lists exactly the workloads and metrics the runner
    /// emits, each metric with the runner's unit and direction, so the
    /// driver never waits for a metric that does not come and the two
    /// tables cannot drift apart.
    #[test]
    fn benchmark_json_lists_what_the_runner_emits() {
        let path = format!("{}/../BENCHMARK.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        for w in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(text.contains(&entry), "{entry} is not listed");
        }
        for (name, unit, better) in e2e::METRICS {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": "
            );
            assert!(text.contains(&entry), "{entry}..}} is not listed");
        }
        for (name, unit, better) in layers::METRICS {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(text.contains(&entry), "{entry} is not listed");
        }
        assert_eq!(
            text.matches("\"name\":").count(),
            WORKLOADS.len() + e2e::METRICS.len() + layers::METRICS.len(),
            "BENCHMARK.json lists extra names"
        );
    }

    /// The benchmark must time the codegen the repo ships: its release
    /// profile is a copy of the root manifest's and may not drift from it.
    #[test]
    fn release_profile_matches_root() {
        fn release_profile(manifest: &str) -> Vec<String> {
            let text =
                std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{manifest}: {e}"));
            let mut table: Vec<String> = text
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.split('#').next().unwrap_or("").split_whitespace().collect::<String>())
                .filter(|l| !l.is_empty())
                .collect();
            table.sort();
            table
        }
        let dir = env!("CARGO_MANIFEST_DIR");
        let root = release_profile(&format!("{dir}/../Cargo.toml"));
        assert!(!root.is_empty(), "root manifest has no [profile.release] table");
        assert_eq!(release_profile(&format!("{dir}/Cargo.toml")), root);
    }
}
