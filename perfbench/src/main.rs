//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <batch-large|serve-stream|durable-ingest>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed (untimed), sets up, measures
//! for the given seconds, checks every output, and prints three JSON lines:
//! the run's provenance, a detail record (per-operation latency summaries,
//! per-phase trace tables), and finally the result object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`).  Exits 1 when a check fails.  See `README.md` beside this
//! crate for the workloads and the metric definitions.

mod batch;
mod durable;
mod inputs;
mod probe;
mod report;
mod serve;
mod spans;
mod stats;

use serde_json::{json, Value};

use report::{Metrics, Tally, WorkDir};

/// Command-line arguments of one run.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub provenance: Value,
    pub detail: Value,
    pub metrics: Metrics,
    pub tally: Tally,
}

const WORKLOADS: [&str; 3] = ["batch-large", "serve-stream", "durable-ingest"];

/// Parses the arguments; `Ok(None)` means a `--generate-into` child run,
/// which has been carried out.
fn parse_args() -> Result<Option<RunArgs>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut generate_into = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--generate-into" => generate_into = Some(std::path::PathBuf::from(value)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seed = seed.ok_or("--seed is required")?;
    if let Some(dir) = generate_into {
        inputs::generate_into(&workload, seed, &dir)
            .map_err(|e| format!("generate inputs: {e}"))?;
        return Ok(None);
    }
    Ok(Some(RunArgs {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let valid = |table: &[(&str, &str)]| {
        table
            .iter()
            .all(|(name, unit)| stats::valid_name(name) && stats::valid_unit(unit))
    };
    assert!(
        valid(&report::END_TO_END) && valid(&report::PER_LAYER),
        "metric tables hold only valid names and units"
    );
    let work = WorkDir::create(&args.workload, args.seed).expect("create the scratch directory");
    let outcome = match args.workload.as_str() {
        "batch-large" => batch::run(&args, &work),
        "serve-stream" => serve::run(&args, &work),
        _ => durable::run(&args, &work),
    };
    drop(work);

    let mut provenance = outcome.provenance;
    provenance["workload"] = json!(args.workload);
    provenance["seed"] = json!(args.seed);
    provenance["seconds"] = json!(args.seconds);
    provenance["trace"] = json!(args.trace);
    provenance["nproc"] = json!(report::nproc());
    println!("{}", json!({ "provenance": provenance }));
    println!("{}", json!({ "detail": outcome.detail }));

    let table = if args.trace {
        &report::PER_LAYER[..]
    } else {
        &report::END_TO_END[..]
    };
    let tally = outcome.tally;
    let metrics = outcome.metrics.render(table);
    let finite = table
        .iter()
        .all(|(name, _)| metrics[*name]["value"].as_f64().is_some_and(f64::is_finite));
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    if !finite {
        eprintln!("perfbench: a metric is not a finite number");
    }
    for (name, unit) in table {
        eprintln!("{name:32} {:>16} {unit}", metrics[*name]["value"]);
    }
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        })
    );
    if !correct {
        std::process::exit(1);
    }
}
