//! Whole result sets: `run --all` (every workload in its own child process, one at a
//! time), `selfcheck` (two sets back to back, compared against the benchmark's own
//! bounds) and `compare` (two result files, refused when their host stamps differ).

use crate::host::{comparability_key, HostStamp};
use crate::json::Json;
use crate::metrics::{END_TO_END, EXACT_COUNTS};
use crate::stats::worsening;
use crate::workloads::{Scale, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

#[derive(Clone, Debug)]
pub struct SetArgs {
    pub seed: u64,
    pub seconds: u64,
    pub scale: Scale,
    pub out_dir: PathBuf,
}

/// Runs one workload in a child process and returns its parsed result line.  The child
/// inherits this process's already-scrubbed environment.
fn run_child(workload: &str, trace: bool, args: &SetArgs) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdout(Stdio::piped());
    if args.scale == Scale::Smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end before returning.
    let output = command
        .output()
        .map_err(|e| format!("starting the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("  {line}");
    }
    // Exit code 1 is a failed check: the result line is there and says so.
    if !matches!(output.status.code(), Some(0 | 1)) {
        return Err(format!(
            "the {workload} child exited with {}",
            output.status
        ));
    }
    Json::parse(last).map_err(|e| format!("the {workload} child's result line: {e}"))
}

/// Runs every workload (untraced repeats, then the traced pair) and returns the result
/// set, which is also written to `<out>/<file>`.
pub fn run_set(args: &SetArgs, file: &str) -> Result<Json, String> {
    let stamp = HostStamp::collect();
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        println!("== {workload} (tracing off)");
        let end_to_end = run_child(workload, false, args)?;
        println!("== {workload} (traced pair)");
        let per_layer = run_child(workload, true, args)?;
        let number = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let correct = [&end_to_end, &per_layer]
            .iter()
            .all(|doc| doc.get("correct").and_then(Json::as_bool) == Some(true));
        workloads.push((
            workload.to_string(),
            Json::obj([
                ("correct", Json::Bool(correct)),
                (
                    "attempted",
                    Json::Num(number(&end_to_end, "attempted") + number(&per_layer, "attempted")),
                ),
                (
                    "failed",
                    Json::Num(number(&end_to_end, "failed") + number(&per_layer, "failed")),
                ),
                (
                    "end_to_end",
                    end_to_end.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                (
                    "per_layer",
                    per_layer.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]),
        ));
    }
    let set = Json::obj([
        ("stamp", stamp.to_json()),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        (
            "scale",
            Json::str(if args.scale == Scale::Smoke {
                "smoke"
            } else {
                "full"
            }),
        ),
        (
            "bounds",
            Json::obj(END_TO_END.iter().map(|m| (m.name, Json::Num(m.bound)))),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = args.out_dir.join(file);
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, set.render_pretty()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("result set written to {}", path.display());
    Ok(set)
}

/// Whether every workload of the set passed its checks.
pub fn all_correct(set: &Json) -> bool {
    set.get("workloads")
        .and_then(Json::as_obj)
        .is_some_and(|ws| {
            ws.iter()
                .all(|(_, w)| w.get("correct").and_then(Json::as_bool) == Some(true))
        })
}

fn metric(set: &Json, workload: &str, group: &str, name: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get(group)?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Prints, per workload × end-to-end metric, both values, how much worse `b` is than
/// `a` and the bound, and returns whether every pairing is within its bound.  With
/// `symmetric` (two sets of the same code) a difference in either direction counts, and
/// the exact counts must be identical.
pub fn compare_sets(a: &Json, b: &Json, symmetric: bool) -> bool {
    let mut ok = true;
    println!(
        "{:<22} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse %", "bound %"
    );
    for workload in WORKLOADS {
        for def in END_TO_END {
            let (Some(x), Some(y)) = (
                metric(a, workload, "end_to_end", def.name),
                metric(b, workload, "end_to_end", def.name),
            ) else {
                println!("{workload:<22} {:<12} missing from a result set", def.name);
                ok = false;
                continue;
            };
            let worse = worsening(x, y, def.lower_is_better);
            let outside = if symmetric {
                worse.abs() > def.bound
            } else {
                worse > def.bound
            };
            println!(
                "{workload:<22} {:<12} {x:>14.4} {y:>14.4} {:>9.2} {:>7.0}{}",
                def.name,
                100.0 * worse,
                100.0 * def.bound,
                if outside { "  OUTSIDE" } else { "" }
            );
            ok &= !outside;
        }
    }
    if symmetric {
        for workload in WORKLOADS {
            for name in EXACT_COUNTS {
                let (x, y) = (
                    metric(a, workload, "per_layer", name),
                    metric(b, workload, "per_layer", name),
                );
                if x != y || x.is_none() {
                    println!("{workload}: exact count {name} differs: {x:?} vs {y:?}");
                    ok = false;
                }
            }
        }
        if ok {
            println!("exact counts identical: {}", EXACT_COUNTS.join(", "));
        }
    }
    ok
}

/// `selfcheck`: two full sets of the same code, back to back.
pub fn selfcheck(args: &SetArgs) -> Result<bool, String> {
    let a = run_set(args, "selfcheck-a.json")?;
    let b = run_set(args, "selfcheck-b.json")?;
    let agree = compare_sets(&a, &b, true);
    Ok(agree && all_correct(&a) && all_correct(&b))
}

/// `compare`: judges result file `b` against `a`.  `Err` when the two were not
/// measured under comparable conditions.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{}: {e}", path.display())))
    };
    let (a, b) = (load(a)?, load(b)?);
    let key = |set: &Json| comparability_key(set.get("stamp").unwrap_or(&Json::Null));
    let (key_a, key_b) = (key(&a), key(&b));
    if key_a != key_b {
        let differing: Vec<String> = key_a
            .iter()
            .zip(&key_b)
            .filter(|(x, y)| x != y)
            .map(|(x, y)| format!("{}: '{}' vs '{}'", x.0, x.1, y.1))
            .collect();
        return Err(format!(
            "refusing to compare: the host stamps differ ({})",
            differing.join("; ")
        ));
    }
    for field in ["seed", "seconds", "scale"] {
        if a.get(field) != b.get(field) {
            return Err(format!("refusing to compare: the sets differ in '{field}'"));
        }
    }
    Ok(compare_sets(&a, &b, false))
}
