//! Host-clock benchmark of the TVM + NeuroPilot reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile-sweep|zoo-infer|showcase-serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run sets its workload up at least
//! 15 times (and for at least two seconds), measures whole rounds of
//! requests for the given seconds, checks every output, and prints a full record (with
//! provenance and the workload's own metric names) followed by the
//! one-line result: end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`. A traced run measures its first half with
//! tracing off and its second half with the benchmark's spans on, then
//! writes the spans to `perfbench/out/`. Any failed request makes the
//! command exit 1.

mod common;
mod compile_sweep;
mod layers;
mod showcase_serve;
mod zoo_infer;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use common::{emit, parse_args, Metric, Trace};

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
/// Each traced run prints all of them; a layer that the workload's
/// traced run does not exercise reads 0 (see `perfbench/METRICS.md`).
const PER_LAYER: [(&str, &str); 32] = [
    ("frontends.import_ms", "ms"),
    ("relay.prepare_ms", "ms"),
    ("byoc.partition_ms", "ms"),
    ("byoc.codegen_ms", "ms"),
    ("neuropilot.convert_ms", "ms"),
    ("neuropilot.compile_ms", "ms"),
    ("runtime.graph_build_ms", "ms"),
    ("hwsim.estimate_ms", "ms"),
    ("byoc.build_ms", "ms"),
    ("byoc.build_other_ms", "ms"),
    ("relay.calls_in", "count"),
    ("relay.calls_prepared", "count"),
    ("byoc.subgraphs", "count"),
    ("byoc.offload_frac", "frac"),
    ("byoc.rejected", "count"),
    ("runtime.run_ms", "ms"),
    ("neuropilot.execute_ms", "ms"),
    ("byoc.run_other_ms", "ms"),
    ("tensor.conv2d_f32.gmac_s", "GMAC/s"),
    ("tensor.qconv2d.gmac_s", "GMAC/s"),
    ("tensor.dense_f32.gmac_s", "GMAC/s"),
    ("tensor.macs_per_infer", "MAC"),
    ("tensor.bytes_per_infer", "B"),
    ("vision.process_frame_ms", "ms"),
    ("serving.contention_ms", "ms"),
    ("vision.preprocess_ms", "ms"),
    ("vision.model_runs_per_frame", "count"),
    ("byoc.cache.hit_rate", "frac"),
    ("observe.frame_overhead_ms", "ms"),
    ("trace.overhead.latency_ms.gmean", "ms"),
    ("trace.overhead.latency_ms.tail10_mean", "ms"),
    ("trace.overhead.throughput_per_s", "1/s"),
];

/// Put measured per-layer metrics in canonical order, 0 for the rest.
fn canonical(measured: Vec<Metric>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map(|m| {
                    assert_eq!(m.unit, unit, "{name} unit");
                    m.value
                })
                .unwrap_or(0.0);
            common::metric(name, value, unit)
        })
        .collect()
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                common::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut trace = Trace::new(epoch, args.trace);
    let result = match args.workload.as_str() {
        "compile-sweep" => compile_sweep::run(&args, epoch, &mut trace),
        "zoo-infer" => zoo_infer::run(&args, epoch, &mut trace),
        _ => showcase_serve::run(&args, epoch, &mut trace),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        out.per_layer = canonical(std::mem::take(&mut out.per_layer));
        let path = PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.json",
            args.workload, args.seed
        ));
        if let Err(e) = trace.write_json(&path) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    emit(&args, &out, &trace.self_times());
    for f in out.failures.iter().take(20) {
        eprintln!("failed: {f}");
    }
    if out.failed > 0 || out.sent == 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
