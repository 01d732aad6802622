//! The end-to-end benchmark of the TreeVQA stack (see README.md in this directory and
//! `BENCHMARK.json` at the repo root).
//!
//! Run from the repo root so `.cargo/config.toml` applies:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --all [--seed N]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run --workload W --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path benchmark/Cargo.toml -- selfcheck
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.json B.json
//! ```
//!
//! Nothing here changes product code: every layer is measured from outside, by timing
//! calls into public functions.

mod host;
mod json;
mod layers;
mod metrics;
mod replay;
mod report;
mod runner;
mod stats;
mod workloads;
mod wrappers;

use report::SetArgs;
use runner::RunArgs;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Scale, RUN_SECONDS, WORKLOADS};

const USAGE: &str = "\
usage: treevqa_e2e <command> [options]

commands:
  run --workload <name> [--trace 0|1]   one workload in this process; the last line of
                                        standard output is the result as one JSON object
  run --all                             every workload, each in its own child process,
                                        untraced repeats then the traced pair
  selfcheck                             two full sets back to back, compared against the
                                        benchmark's own bounds
  compare <a.json> <b.json>             judge result set b against a (refused when the
                                        host stamps differ)

options:
  --seed <n>      workload seed (default 7; hold-out 11)
  --seconds <n>   how long one run measures: fixes the number of repeats before the
                  first one starts (default: run_seconds of BENCHMARK.json)
  --smoke         tiny sizes, one repeat, structural checks only
  --out <dir>     where result sets and trace files go (default benchmark/out)
";

const DEFAULT_SEED: u64 = 7;

struct Options {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    out_dir: PathBuf,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        scale: Scale::Full,
        out_dir: PathBuf::from("benchmark/out"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => options.workload = Some(value("--workload")?),
            "--all" => options.all = true,
            "--smoke" => options.scale = Scale::Smoke,
            "--seed" => {
                options.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                options.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number".to_string())?;
            }
            "--trace" => {
                options.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--out" => options.out_dir = PathBuf::from(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => options.positional.push(arg.clone()),
        }
    }
    if options.scale == Scale::Smoke {
        options.seconds = 0;
    }
    Ok(options)
}

fn run(command: &str, options: Options) -> Result<bool, String> {
    let set_args = SetArgs {
        seed: options.seed,
        seconds: options.seconds,
        scale: options.scale,
        out_dir: options.out_dir.clone(),
    };
    match command {
        "run" if options.all => {
            let file = format!("results-seed{}.json", options.seed);
            let set = report::run_set(&set_args, &file)?;
            Ok(report::all_correct(&set))
        }
        "run" => {
            let workload = options.workload.ok_or_else(|| {
                format!("run needs --workload <name> or --all; workloads: {WORKLOADS:?}")
            })?;
            let result = runner::run_workload(&RunArgs {
                workload: workload.clone(),
                seed: options.seed,
                seconds: options.seconds as f64,
                trace: options.trace,
                scale: options.scale,
                out_dir: options.out_dir,
            })?;
            println!(
                "{workload} seed {} ({})",
                options.seed,
                if options.trace {
                    "traced pair"
                } else {
                    "tracing off"
                }
            );
            for (def, value) in &result.metrics {
                println!("{:<36} {value:>16.4} {}", def.name, def.unit);
            }
            for note in &result.notes {
                println!("{note}");
            }
            // The result line is the last line of standard output.
            println!("{}", result.to_json().render());
            Ok(result.correct())
        }
        "selfcheck" => report::selfcheck(&set_args),
        "compare" => match options.positional.as_slice() {
            [a, b] => report::compare_files(a.as_ref(), b.as_ref()),
            _ => Err("compare takes two result files".to_string()),
        },
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    // Before anything else: the product caches these on first use.
    host::scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    if matches!(command.as_str(), "-h" | "--help" | "help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse(rest).and_then(|options| run(command, options)) {
        Ok(true) => ExitCode::SUCCESS,
        // A failed check, a metric outside its bound, or a worse result set.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
