//! Run results, process probes and the output lines.

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde_json::{json, Value};

use crate::stats;

/// The end-to-end metrics every workload reports (with `--trace 0`).
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every workload reports (with `--trace 1`).
pub const PER_LAYER: [(&str, &str); 39] = [
    ("graph.pack_open_ms", "ms"),
    ("graph.snapshot_rebuild_ms", "ms"),
    ("graph.snapshot_dirty_rows", "rows"),
    ("core.diff_build_ms", "ms"),
    ("core.apply_batch_us", "us"),
    ("core.solve_iterations", "count"),
    ("core.solve_candidates", "count"),
    ("core.solve_prunes", "count"),
    ("core.prune_ratio", "ratio"),
    ("core.topk_round_ms", "ms"),
    ("core.sweep_point_ms", "ms"),
    ("densest.peel_ms", "ms"),
    ("densest.peel_vertices", "count"),
    ("dcsga.mu_sweep_self_ms", "ms"),
    ("dcsga.mu_inits", "count"),
    ("dcsga.cd_shrink_ms", "ms"),
    ("dcsga.cd_iterations", "count"),
    ("dcsga.cd_expand_ms", "ms"),
    ("dcsga.refine_ms", "ms"),
    ("server.queue_wait_p50_us", "us"),
    ("server.queue_wait_p99_us", "us"),
    ("server.job_wall_ms", "ms"),
    ("server.wire_ms", "ms"),
    ("server.read_events_per_req", "ratio"),
    ("server.write_events_per_req", "ratio"),
    ("server.cache_hit_rate", "ratio"),
    ("server.coalesced", "count"),
    ("server.shed", "count"),
    ("server.errors", "count"),
    ("protocol.parse_us", "us"),
    ("protocol.render_us", "us"),
    ("durable.write_bytes_per_update", "bytes/update"),
    ("durable.checkpoints", "count"),
    ("durable.checkpoint_write_ms", "ms"),
    ("durable.replayed_records", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.trace_dropped", "count"),
    ("quality.planted_jaccard", "ratio"),
    ("error_frac", "ratio"),
];

/// Named metric values collected by a workload.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Renders exactly the metrics of `table`; a missing one renders as 0
    /// (the workload does not exercise that layer).
    pub fn render(&self, table: &[(&'static str, &'static str)]) -> Value {
        let mut out = serde_json::Map::new();
        for &(name, unit) in table {
            let value = self.0.get(name).copied().unwrap_or(0.0);
            out.insert(name.to_string(), json!({ "value": value, "unit": unit }));
        }
        Value::Object(out)
    }
}

/// Counts of checked operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: check failed: {what}");
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Durations in seconds as milliseconds.
pub fn to_ms(seconds: impl IntoIterator<Item = f64>) -> Vec<f64> {
    seconds.into_iter().map(|s| s * 1e3).collect()
}

/// Median in milliseconds of durations given in seconds.
pub fn median_ms(seconds: &[f64]) -> f64 {
    stats::median(seconds).unwrap_or(f64::NAN) * 1e3
}

/// A latency summary for the detail line: median, quartiles and the tail
/// rule's percentile with its sample counts (all in milliseconds).
pub fn latency_summary(ms: &[f64]) -> Value {
    let mut summary = json!({
        "samples": ms.len(),
        "p50": stats::median(ms),
        "spread": stats::relative_spread(ms),
    });
    if let Some([q1, _, q3]) = stats::quartiles(ms) {
        summary["q1"] = json!(q1);
        summary["q3"] = json!(q3);
    }
    match stats::tail(ms) {
        Some(tail) => {
            summary["tail"] = json!(tail.value);
            summary["tail_percentile"] = json!(tail.percentile);
            summary["tail_beyond"] = json!(tail.beyond);
        }
        None => summary["tail"] = Value::Null,
    }
    summary
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Resets the peak-RSS mark to the current RSS, so input generation does not
/// count towards `peak_rss_mb`.  Best effort: kernels without the reset keep
/// the old mark.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Bytes this process has caused to be sent to storage (`write_bytes`).
pub fn write_bytes() -> u64 {
    proc_field("/proc/self/io", "write_bytes").unwrap_or(0)
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(workload: &str, seed: u64) -> std::io::Result<WorkDir> {
        let root = std::env::current_dir()?
            .join(".perfbench-work")
            .join(format!("{workload}-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir(root))
    }

    /// A fresh empty subdirectory.
    pub fn subdir(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a scratch subdirectory");
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Removes the shared parent only when no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Aggregate CPU time counters of the machine (`/proc/stat`, in ticks).
pub struct CpuTimes(Vec<u64>);

impl CpuTimes {
    pub fn now() -> CpuTimes {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields = text
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|field| field.parse().ok())
            .collect();
        CpuTimes(fields)
    }

    /// Share of the non-idle CPU time since `earlier` that the hypervisor
    /// stole (runnable virtual CPUs not running): how much host contention
    /// slowed the run.
    pub fn steal_frac_since(&self, earlier: &CpuTimes) -> f64 {
        let delta =
            |i: usize| self.0.get(i).copied().unwrap_or(0) - earlier.0.get(i).copied().unwrap_or(0);
        // user, nice, system, irq, softirq, steal
        let busy: u64 = [0, 1, 2, 5, 6, 7].into_iter().map(delta).sum();
        if busy == 0 {
            0.0
        } else {
            delta(7) as f64 / busy as f64
        }
    }
}

/// A run's end-to-end figures as measured, with the host steal of the
/// phases they were measured in.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub setup_steal: f64,
    pub ops_per_s: f64,
    pub op_steal: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Sets the end-to-end metrics, with times scaled by the share of busy
    /// CPU time the host did not steal (the time the run would take on an
    /// uncontended machine), and records the unadjusted figures in `detail`.
    pub fn report(self, metrics: &mut Metrics, detail: &mut Value) {
        let setup_s = stats::median(&self.setup_s).expect("set-up ran");
        metrics.set("setup_s", setup_s * (1.0 - self.setup_steal));
        metrics.set("ops_per_s", self.ops_per_s / (1.0 - self.op_steal));
        metrics.set("peak_rss_mb", self.peak_rss_mb);
        detail["unadjusted"] = json!({
            "setup_s": setup_s,
            "setup_s_samples": self.setup_s,
            "setup_steal_frac": self.setup_steal,
            "ops_per_s": self.ops_per_s,
            "steal_frac": self.op_steal,
        });
    }
}

/// Tracing overhead: the traced over the untraced median, each scaled by
/// its phase's unstolen share, minus one.
pub fn trace_overhead(traced: f64, traced_steal: f64, untraced: f64, untraced_steal: f64) -> f64 {
    traced * (1.0 - traced_steal) / (untraced * (1.0 - untraced_steal)) - 1.0
}

/// The machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(stats::valid_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "duplicate {name}");
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark directory");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        for workload in spec["workloads"].as_array().unwrap() {
            assert!(stats::valid_name(workload["name"].as_str().unwrap()));
        }
    }

    #[test]
    fn steal_adjustment_scales_times_by_the_unstolen_share() {
        let mut metrics = Metrics::default();
        let mut detail = json!({});
        EndToEnd {
            setup_s: vec![0.3, 0.1, 0.2],
            setup_steal: 0.5,
            ops_per_s: 30.0,
            op_steal: 0.25,
            peak_rss_mb: 12.0,
        }
        .report(&mut metrics, &mut detail);
        assert_eq!(metrics.get("setup_s"), Some(0.1));
        assert_eq!(metrics.get("ops_per_s"), Some(40.0));
        assert_eq!(metrics.get("peak_rss_mb"), Some(12.0));
        assert_eq!(detail["unadjusted"]["setup_s"], 0.2);
        assert_eq!(detail["unadjusted"]["ops_per_s"], 30.0);
        // 12 ms at 50 % steal against 8 ms at no steal: 6 / 8 - 1.
        assert_eq!(trace_overhead(12.0, 0.5, 8.0, 0.0), -0.25);
    }

    #[test]
    fn steal_share_counts_busy_time_only() {
        // user nice system idle iowait irq softirq steal
        let before = CpuTimes(vec![100, 0, 10, 500, 5, 0, 0, 10]);
        let after = CpuTimes(vec![160, 0, 20, 900, 9, 0, 0, 40]);
        // Busy: 60 + 10 + 30 stolen = 100; idle and iowait do not count.
        assert_eq!(after.steal_frac_since(&before), 0.3);
        assert_eq!(before.steal_frac_since(&before), 0.0);
    }

    #[test]
    fn tally_counts_failures() {
        let mut tally = Tally::default();
        tally.check(true, "a");
        tally.check(false, "b");
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.error_frac(), 0.5);
    }
}
