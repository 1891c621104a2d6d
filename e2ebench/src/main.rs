//! End-to-end benchmark of CAE-Ensemble.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload fleet_steady --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Drives the public APIs of `cae-core`, `cae-serve`, `cae-adapt`,
//! `cae-data` and `cae-metrics` from one process on generated inputs, checks
//! the outputs, and prints one JSON object as the last line of standard
//! output: the end-to-end metrics with `--trace 0`, the per-layer metrics of
//! a traced run with `--trace 1`. The workloads, phases and metrics are
//! described in `README.md` next to this package's manifest.

mod probes;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Bench, Metric, SPECS};

/// End-to-end metrics, each printed by every workload with `--trace 0`.
pub const E2E_METRICS: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("obs_per_s", "1/s"),
    ("obs_latency_p50_ms", "ms"),
    ("recover_s", "s"),
    ("adapt_s", "s"),
    ("fit_s", "s"),
    ("score_obs_per_s", "1/s"),
    ("roc_auc", "ratio"),
    ("pr_auc", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, each printed by every workload with `--trace 1`:
/// name, unit, and the end-to-end metric and workload it should move. A
/// metric a workload has no samples for reads 0.
pub const LAYER_METRICS: [(&str, &str, &str); 56] = [
    (
        "serve.push_ns_p50",
        "ns",
        "obs_latency_p50_ms @ fleet_steady",
    ),
    (
        "serve.tick_ms_p50",
        "ms",
        "obs_per_s, obs_latency_* @ fleet_steady",
    ),
    (
        "serve.tick_ms_p99",
        "ms",
        "obs_per_s, obs_latency_* @ fleet_steady",
    ),
    (
        "serve.tick_ms_p99_refit",
        "ms",
        "obs_latency_p50_ms, tail loop.latency_ms_p95 @ fleet_drift",
    ),
    ("serve.tick_self_ms_p50", "ms", "obs_per_s @ fleet_steady"),
    (
        "serve.windows_per_tick",
        "count",
        "obs_per_s @ fleet_steady",
    ),
    ("serve.batch_fill", "ratio", "obs_per_s @ fleet_steady"),
    ("serve.skipped_windows", "count", "failed share @ both"),
    ("serve.shed_windows", "count", "failed share @ both"),
    ("serve.suppressed_scores", "count", "failed share @ both"),
    ("serve.snapshot_ms", "ms", "recover_s @ fleet_steady"),
    ("serve.restore_ms", "ms", "recover_s @ fleet_steady"),
    ("serve.replay_ms", "ms", "recover_s @ fleet_steady"),
    ("serve.swap_us", "us", "adapt_s @ fleet_drift"),
    ("serve.self_pct", "%", "obs_per_s @ fleet_steady"),
    (
        "core.score_windows_ms_p50_b64",
        "ms",
        "obs_per_s @ fleet_steady; no change in fit_s",
    ),
    (
        "core.score_windows_ms_p50_b32",
        "ms",
        "obs_per_s @ fleet_steady; no change in fit_s",
    ),
    ("core.score_series_s", "s", "score_obs_per_s @ fleet_steady"),
    (
        "core.train_step_ms",
        "ms",
        "fit_s @ fleet_steady, adapt_s @ fleet_drift",
    ),
    ("core.ckpt_save_ms", "ms", "setup_s @ both"),
    (
        "core.ckpt_load_ms",
        "ms",
        "setup_s, recover_s @ fleet_steady",
    ),
    ("core.self_pct", "%", "fit_s @ fleet_steady"),
    (
        "autograd.backward_ms",
        "ms",
        "fit_s @ fleet_steady, adapt_s @ fleet_drift",
    ),
    ("nn.adam_step_ms", "ms", "fit_s @ fleet_steady"),
    (
        "tensor.gemm_packed_per_window",
        "count",
        "obs_per_s @ fleet_steady",
    ),
    (
        "tensor.gemm_scalar_per_window",
        "count",
        "obs_per_s @ fleet_steady",
    ),
    (
        "tensor.gemm_packed_per_fit",
        "count",
        "fit_s @ fleet_steady",
    ),
    (
        "tensor.pool_busy_pct",
        "%",
        "obs_per_s @ fleet_steady, fit_s @ fleet_steady",
    ),
    ("tensor.scratch_pooled_mb", "MB", "peak_rss_mb @ both"),
    (
        "tensor.conv1d_causal_us",
        "us",
        "obs_per_s @ fleet_steady, fit_s @ fleet_steady",
    ),
    (
        "tensor.conv1d_same_us",
        "us",
        "obs_per_s @ fleet_steady, fit_s @ fleet_steady",
    ),
    (
        "tensor.bmm_nt_us",
        "us",
        "obs_per_s @ fleet_steady, fit_s @ fleet_steady",
    ),
    (
        "tensor.softmax_last_us",
        "us",
        "obs_per_s @ fleet_steady, fit_s @ fleet_steady",
    ),
    (
        "tensor.conv1d_kernel_grad_us",
        "us",
        "fit_s @ fleet_steady, adapt_s @ fleet_drift",
    ),
    (
        "data.journal_append_ns_p50",
        "ns",
        "obs_latency_p50_ms, tail loop.latency_ms_p95 @ fleet_steady (small)",
    ),
    (
        "data.journal_append_ns_p99",
        "ns",
        "obs_latency_p50_ms, tail loop.latency_ms_p95 @ fleet_steady (small)",
    ),
    (
        "data.journal_sync_ms_p50",
        "ms",
        "obs_latency_p50_ms, tail loop.latency_ms_p95 @ fleet_steady (small)",
    ),
    (
        "data.journal_sync_ms_p99",
        "ms",
        "obs_latency_p50_ms, tail loop.latency_ms_p95 @ fleet_steady (small)",
    ),
    (
        "data.journal_bytes_per_obs",
        "count",
        "recover_s @ fleet_steady",
    ),
    ("data.journal_read_ms", "ms", "recover_s @ fleet_steady"),
    ("data.gen_s", "s", "setup_s @ both"),
    (
        "data.self_pct",
        "%",
        "obs_latency_p50_ms, tail loop.latency_ms_p95 @ fleet_steady",
    ),
    (
        "adapt.observe_ns_p99",
        "ns",
        "obs_latency_p50_ms, tail loop.latency_ms_p95 @ fleet_drift",
    ),
    (
        "adapt.poll_ns_p99",
        "ns",
        "obs_latency_p50_ms, tail loop.latency_ms_p95 @ fleet_drift",
    ),
    ("adapt.refit_s_p50", "s", "adapt_s @ fleet_drift"),
    ("adapt.refit_s_mean", "s", "adapt_s @ fleet_drift"),
    (
        "adapt.refits_started",
        "count",
        "failed share @ fleet_drift",
    ),
    (
        "adapt.refits_completed",
        "count",
        "failed share @ fleet_drift",
    ),
    (
        "adapt.self_pct",
        "%",
        "obs_latency_p50_ms, tail loop.latency_ms_p95 @ fleet_drift",
    ),
    ("bench.self_pct", "%", "none: the harness's own share"),
    (
        "loop.latency_ms_p95",
        "ms",
        "failed share (latency limit) @ both",
    ),
    (
        "loop.latency_ms_p99",
        "ms",
        "failed share (latency limit) @ both",
    ),
    (
        "loop.lateness_ms_p99",
        "ms",
        "obs_latency_p50_ms, tail loop.latency_ms_p95 @ both",
    ),
    (
        "loop.max_backlog",
        "count",
        "obs_latency_p50_ms, tail loop.latency_ms_p95 @ both",
    ),
    (
        "obs.trace_overhead_pct",
        "%",
        "none: cost of the traced run's spans",
    ),
    (
        "proc.cpu_util",
        "ratio",
        "obs_per_s @ fleet_steady, fit_s @ fleet_steady",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: cae-e2ebench --workload <fleet_steady|fleet_drift> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20).max(1),
        trace,
    })
}

/// CPU model, cores, active SIMD path and tensor-pool threads, so results
/// from different hosts are never compared as like for like.
fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    format!(
        "{{\"cpu_model\":\"{}\",\"nproc\":{nproc},\"simd\":\"{}\",\"par_threads\":{}}}",
        cpu.replace('\\', "\\\\").replace('"', "\\\""),
        cae_tensor::simd::active_name(),
        cae_tensor::par::threads()
    )
}

/// Formats a measured value with all its digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(wanted: &[(&str, &str)], measured: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let m = measured
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.unit != unit {
            return Err(format!(
                "metric {name} measured in {} instead of {unit}",
                m.unit
            ));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(m.value)
        ));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = SPECS.iter().find(|s| s.name == args.workload).copied() else {
        eprintln!("unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    cae_tensor::par::use_all_cores();
    let host = host_fingerprint();
    eprintln!("host {host}");

    let work = PathBuf::from(".bench_work").join(format!("{}-{}", spec.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let mut bench = Bench::new(spec, args.seed, args.seconds, args.trace, work.clone());
    bench.run();
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");

    for note in &bench.notes {
        eprintln!("{note}");
    }
    for what in &bench.ledger.failed_checks {
        eprintln!("CHECK FAILED: {what}");
    }
    if args.trace {
        let out = PathBuf::from(".bench_out");
        let path = out.join(format!("trace-{}-seed{}.jsonl", spec.name, args.seed));
        let body = format!("{{\"host\":{host}}}\n{}", bench.tracer.to_json_lines());
        match std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => eprintln!(
                "{} spans written to {}",
                bench.tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
        for (layer, ns) in trace::layer_self_ns(bench.tracer.spans()) {
            eprintln!("self time {layer}: {:.3} s", ns as f64 / 1e9);
        }
        for &(name, unit, _) in &LAYER_METRICS {
            if !bench.layer.iter().any(|m| m.name == name) {
                bench.layer.push(Metric {
                    name,
                    value: 0.0,
                    unit,
                });
                eprintln!("{name}: no samples in this workload (reads 0)");
            }
        }
    }
    let metrics = if args.trace {
        let wanted: Vec<(&str, &str)> = LAYER_METRICS.iter().map(|&(n, u, _)| (n, u)).collect();
        metrics_json(&wanted, &bench.layer)
    } else {
        metrics_json(&E2E_METRICS, &bench.e2e)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("host {host}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        bench.ledger.correct(),
        bench.ledger.attempted,
        bench.ledger.failed
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in E2E_METRICS {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for (name, unit, _) in LAYER_METRICS {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let listed = json.matches("\"better\"").count();
        assert_eq!(listed, E2E_METRICS.len() + LAYER_METRICS.len());
        for spec in SPECS {
            assert!(json.contains(&format!("\"name\": \"{}\"", spec.name)));
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = E2E_METRICS.iter().map(|&(n, _)| n).collect();
        names.extend(LAYER_METRICS.iter().map(|&(n, _, _)| n));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }

    #[test]
    fn metrics_json_reports_missing_and_misunited_metrics() {
        let measured = vec![Metric {
            name: "setup_s",
            value: 1.25,
            unit: "s",
        }];
        assert_eq!(
            metrics_json(&[("setup_s", "s")], &measured).unwrap(),
            "{\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}"
        );
        assert!(metrics_json(&[("fit_s", "s")], &measured).is_err());
        assert!(metrics_json(&[("setup_s", "ms")], &measured).is_err());
    }
}
