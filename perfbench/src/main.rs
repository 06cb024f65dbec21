//! The Quanto pipeline benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lpl_sweep|dense_field|tenant_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload's closed loop and prints the end-to-end
//! metrics; `--trace 1` prints the per-layer breakdown instead.  Progress
//! and failures go to stderr; the last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.  See `README.md`
//! for the workloads, the metrics and which layer moves which metric.

mod checks;
mod e2e;
mod inputs;
mod stats;
mod trace;

use inputs::Workload;
use stats::Tally;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload lpl_sweep|dense_field|tenant_mix --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Temporary files (result caches) live under the directory the benchmark
    // is run from, and are removed before exit.
    let work_dir = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
    let mut tally = Tally::default();
    eprintln!(
        "perfbench: {:?} seed {} for {} s on {workers} worker(s), trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let metrics = if args.trace {
        trace::run(
            args.workload,
            args.seed,
            args.seconds,
            workers,
            &work_dir,
            &mut tally,
        )
    } else {
        e2e::run(
            args.workload,
            args.seed,
            args.seconds,
            workers,
            &work_dir,
            &mut tally,
        )
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".perfbench-work");
    for m in &metrics {
        eprintln!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  failed_frac {} ({} of {} operations)",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    for why in tally.failures.iter().take(20) {
        eprintln!("  FAILED: {why}");
    }
    println!("{}", stats::result_json(&tally, &metrics));
    ExitCode::SUCCESS
}
