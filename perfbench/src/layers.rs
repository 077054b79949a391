//! Layer probes shared by the workloads: model sources and their import,
//! the build decomposed into its public stage calls, kernel rates on a
//! model's own layer shapes, and per-inference work counts.
//!
//! Every time here comes from the benchmark timing a public call of one
//! crate; the crates themselves carry no extra instrumentation.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use tvm_neuropilot::byoc::{relay_build, BuildError, CompiledModel, NeuronModule, TargetMode};
use tvm_neuropilot::frontends::keras::{from_keras, KerasModel};
use tvm_neuropilot::frontends::pytorch::{from_pytorch, TracedModule};
use tvm_neuropilot::frontends::tflite::{from_tflite, TfliteModel};
use tvm_neuropilot::hwsim::CostModel;
use tvm_neuropilot::models::{anti_spoofing, emotion, object_detection};
use tvm_neuropilot::neuropilot::support::first_unsupported;
use tvm_neuropilot::neuropilot::{convert_function, CompiledNetwork, NeuronSupport};
use tvm_neuropilot::relay::expr::{CallTarget, ExprKind, Module};
use tvm_neuropilot::relay::passes::{fold_constants, partition_graph, simplify};
use tvm_neuropilot::relay::visit::topo_order;
use tvm_neuropilot::relay::{infer_types, Interpreter, OpKind, TensorType, Type};
use tvm_neuropilot::runtime::work::relay_work_item;
use tvm_neuropilot::runtime::{ExecutorGraph, GraphExecutor, ModuleRegistry};
use tvm_neuropilot::tensor::kernels::{conv2d_f32, dense_f32, qconv2d, QConvQuant};
use tvm_neuropilot::tensor::Tensor;

use crate::common::{metric, Metric, Trace};

/// A model as the program receives it: a frontend artifact that each
/// build imports, or a module already in Relay (the Table-1 zoo).
pub enum Source {
    Keras(KerasModel),
    Torch(TracedModule, Vec<(String, Vec<usize>)>),
    Tflite(TfliteModel),
    Relay(Module),
}

impl Source {
    /// The three showcase models as their origin frameworks' artifacts,
    /// with the names the figures use. Seeds follow `Showcase::new`.
    pub fn showcase(seed: u64) -> Vec<(String, Source)> {
        vec![
            (
                "anti-spoofing".to_string(),
                Source::Torch(
                    anti_spoofing::traced_deepixbis(seed.wrapping_add(1)),
                    vec![("%x".to_string(), vec![1, 3, 32, 32])],
                ),
            ),
            (
                "mobilenet-ssd-quant".to_string(),
                Source::Tflite(object_detection::tflite_mobilenet_ssd(seed)),
            ),
            (
                "emotion-detection".to_string(),
                Source::Keras(emotion::keras_emotion_model(seed.wrapping_add(2))),
            ),
        ]
    }

    /// Import through the model's frontend; `None` for Relay sources,
    /// which need no import.
    pub fn import(&self) -> Option<Module> {
        let imported = match self {
            Source::Keras(k) => from_keras(k),
            Source::Torch(t, shapes) => from_pytorch(t, shapes),
            Source::Tflite(t) => from_tflite(t),
            Source::Relay(_) => return None,
        };
        Some(imported.expect("showcase artifacts import"))
    }
}

/// What one traced build measured, ms, beside the spans it recorded.
#[derive(Default, Clone)]
pub struct BuildRecord {
    pub compiled: bool,
    pub import_ms: f64,
    pub build_ms: f64,
    pub estimate_ms: f64,
    pub prepare_ms: f64,
    pub partition_ms: f64,
    pub codegen_ms: f64,
    pub convert_ms: f64,
    pub compile_ms: f64,
    pub graph_build_ms: f64,
    pub calls_in: usize,
    pub calls_prepared: usize,
    /// `(subgraphs, offloaded calls, host calls)` for BYOC builds.
    pub partition: Option<(usize, usize, usize)>,
}

impl BuildRecord {
    /// The disjoint stage calls `relay_build` is made of.
    pub fn stages_ms(&self) -> f64 {
        self.prepare_ms
            + self.partition_ms
            + self.codegen_ms
            + self.convert_ms
            + self.compile_ms
            + self.graph_build_ms
    }
}

/// Import (if needed), `relay_build` and `estimate_us`, each timed as a
/// child span of `parent`. Returns the build result, the simulated µs of
/// a compiled model, and the module that was built.
pub fn timed_build(
    tr: &mut Trace,
    parent: Option<usize>,
    request: u64,
    source: &Source,
    mode: TargetMode,
    cost: &CostModel,
    rec: &mut BuildRecord,
) -> (
    Result<CompiledModel, BuildError>,
    Option<f64>,
    Option<Module>,
) {
    let imported = match source {
        Source::Relay(_) => None,
        _ => {
            let s = tr.open("frontends.import", parent, request);
            let m = source.import();
            tr.close(s);
            rec.import_ms = tr.dur_ms(s);
            m
        }
    };
    let module = match (&imported, source) {
        (Some(m), _) => m,
        (None, Source::Relay(m)) => m,
        (None, _) => unreachable!("non-Relay sources always import"),
    };
    let s = tr.open("byoc.build", parent, request);
    let built = relay_build(module, mode, cost.clone());
    tr.close(s);
    rec.build_ms = tr.dur_ms(s);
    let mut us = None;
    if let Ok(c) = &built {
        let s = tr.open("hwsim.estimate", parent, request);
        us = Some(c.estimate_us());
        tr.close(s);
        rec.estimate_ms = tr.dur_ms(s);
        rec.compiled = true;
    }
    (built, us, imported)
}

/// Replay a compiling build stage by stage, in `relay_build`'s order,
/// timing each public call as a child of a `byoc.build.replay` span.
/// What `relay_build` does between these calls (input-name collection,
/// artifact export) is left over as `byoc.build_other_ms`.
pub fn replay_build(
    tr: &mut Trace,
    request: u64,
    module: &Module,
    mode: TargetMode,
    cost: &CostModel,
    rec: &mut BuildRecord,
) {
    let replay = tr.open("byoc.build.replay", None, request);
    let root = Some(replay);
    rec.calls_in = module.main().num_calls();
    let s = tr.open("relay.prepare", root, request);
    let prepared = fold_constants(&simplify(module));
    tr.close(s);
    rec.prepare_ms = tr.dur_ms(s);
    rec.calls_prepared = prepared.main().num_calls();
    match mode {
        TargetMode::TvmOnly => {
            let s = tr.open("runtime.graph_build", root, request);
            let graph = ExecutorGraph::build(&prepared).expect("graph lowers");
            let ex = GraphExecutor::new(graph, ModuleRegistry::new(), cost.clone());
            tr.close(s);
            rec.graph_build_ms = tr.dur_ms(s);
            black_box(ex.expect("executor links"));
        }
        TargetMode::Byoc(policy) => {
            let s = tr.open("byoc.partition", root, request);
            let (partitioned, report) =
                partition_graph(&prepared, &NeuronSupport).expect("partition succeeds");
            tr.close(s);
            rec.partition_ms = tr.dur_ms(s);
            rec.partition = Some((
                report.num_subgraphs,
                report.offloaded_calls,
                report.host_calls,
            ));
            let s = tr.open("runtime.graph_build", root, request);
            let graph = ExecutorGraph::build(&partitioned).expect("graph lowers");
            tr.close(s);
            rec.graph_build_ms = tr.dur_ms(s);
            let mut registry = ModuleRegistry::new();
            for name in partitioned.external_functions() {
                let s = tr.open("byoc.codegen", root, request);
                let m =
                    NeuronModule::codegen(name, &partitioned.functions[name], policy, cost.clone());
                tr.close(s);
                rec.codegen_ms += tr.dur_ms(s);
                registry.register(Box::new(m.expect("codegen succeeds")));
            }
            let s = tr.open("runtime.graph_build", root, request);
            let ex = GraphExecutor::new(graph, registry, cost.clone());
            tr.close(s);
            rec.graph_build_ms += tr.dur_ms(s);
            black_box(ex.expect("executor links"));
        }
        TargetMode::NeuroPilotOnly(policy) => {
            assert!(first_unsupported(prepared.main()).is_none());
            let s = tr.open("neuropilot.convert", root, request);
            let graph = convert_function(prepared.main()).expect("conversion succeeds");
            tr.close(s);
            rec.convert_ms = tr.dur_ms(s);
            let s = tr.open("neuropilot.compile", root, request);
            let net = CompiledNetwork::compile(graph, policy, cost.clone());
            tr.close(s);
            rec.compile_ms = tr.dur_ms(s);
            black_box(net.expect("planning succeeds"));
        }
    }
    tr.close(replay);
}

/// Compile-stage per-layer metrics: means per compiling build, the IR
/// sizes, partition shape, and the number of distinct rejected pairs.
pub fn build_metrics(records: &[BuildRecord], rejected_pairs: usize) -> Vec<Metric> {
    let built: Vec<&BuildRecord> = records.iter().filter(|r| r.compiled).collect();
    let n = built.len().max(1) as f64;
    let avg = |f: &dyn Fn(&BuildRecord) -> f64| built.iter().map(|r| f(r)).sum::<f64>() / n;
    let byoc: Vec<(usize, usize, usize)> = built.iter().filter_map(|r| r.partition).collect();
    let offloaded: usize = byoc.iter().map(|p| p.1).sum();
    let host: usize = byoc.iter().map(|p| p.2).sum();
    vec![
        metric("frontends.import_ms", avg(&|r| r.import_ms), "ms"),
        metric("relay.prepare_ms", avg(&|r| r.prepare_ms), "ms"),
        metric("byoc.partition_ms", avg(&|r| r.partition_ms), "ms"),
        metric("byoc.codegen_ms", avg(&|r| r.codegen_ms), "ms"),
        metric("neuropilot.convert_ms", avg(&|r| r.convert_ms), "ms"),
        metric("neuropilot.compile_ms", avg(&|r| r.compile_ms), "ms"),
        metric("runtime.graph_build_ms", avg(&|r| r.graph_build_ms), "ms"),
        metric("hwsim.estimate_ms", avg(&|r| r.estimate_ms), "ms"),
        metric("byoc.build_ms", avg(&|r| r.build_ms), "ms"),
        metric(
            "byoc.build_other_ms",
            avg(&|r| r.build_ms - r.stages_ms()),
            "ms",
        ),
        metric("relay.calls_in", avg(&|r| r.calls_in as f64), "count"),
        metric(
            "relay.calls_prepared",
            avg(&|r| r.calls_prepared as f64),
            "count",
        ),
        metric(
            "byoc.subgraphs",
            byoc.iter().map(|p| p.0 as f64).sum::<f64>() / byoc.len().max(1) as f64,
            "count",
        ),
        metric(
            "byoc.offload_frac",
            offloaded as f64 / (offloaded + host).max(1) as f64,
            "frac",
        ),
        metric("byoc.rejected", rejected_pairs as f64, "count"),
    ]
}

/// Kernel throughput accumulators: `(MACs, seconds)` per kernel.
#[derive(Default)]
pub struct KernelRates {
    pub conv2d_f32: (u64, f64),
    pub qconv2d: (u64, f64),
    pub dense_f32: (u64, f64),
}

impl KernelRates {
    /// Call every conv / quantized conv / dense kernel of `module`'s
    /// prepared graph directly, on the exact arguments an inference on
    /// `inputs` gives it, `reps` times each.
    pub fn add_model(&mut self, module: &Module, inputs: &HashMap<String, Tensor>, reps: usize) {
        let prepared = fold_constants(&simplify(module));
        let types = infer_types(&prepared).expect("prepared module type-checks");
        let (_, env) = Interpreter::new(&prepared)
            .run_with_trace(inputs)
            .expect("reference run succeeds");
        for e in topo_order(&prepared.main().body) {
            let ExprKind::Call(call) = &e.kind else {
                continue;
            };
            let CallTarget::Op(op) = &call.target else {
                continue;
            };
            if !matches!(op, OpKind::Conv2d(_) | OpKind::QnnConv2d(_) | OpKind::Dense) {
                continue;
            }
            let args: Vec<&Tensor> = call
                .args
                .iter()
                .map(|a| env[&a.id].tensor().expect("kernel args are tensors"))
                .collect();
            let arg_tys: Vec<&TensorType> = call
                .args
                .iter()
                .filter_map(|a| types[&a.id].tensor())
                .collect();
            let out_ty = types[&e.id].tensor().expect("kernel output is a tensor");
            let macs = relay_work_item(op, &arg_tys, out_ty).macs;
            let bias = args.get(2).copied();
            let t0 = Instant::now();
            for _ in 0..reps {
                let out = match op {
                    OpKind::Conv2d(a) => conv2d_f32(args[0], args[1], bias, &a.to_kernel()),
                    OpKind::QnnConv2d(a) => qconv2d(
                        args[0],
                        args[1],
                        bias,
                        &a.conv.to_kernel(),
                        &QConvQuant {
                            input: a.input_q,
                            weight: a.weight_q,
                            output: a.output_q,
                            out_dtype: a.out_dtype,
                        },
                    ),
                    _ => dense_f32(args[0], args[1], bias),
                };
                black_box(out.expect("kernel runs"));
            }
            let secs = t0.elapsed().as_secs_f64();
            let slot = match op {
                OpKind::Conv2d(_) => &mut self.conv2d_f32,
                OpKind::QnnConv2d(_) => &mut self.qconv2d,
                _ => &mut self.dense_f32,
            };
            slot.0 += macs * reps as u64;
            slot.1 += secs;
        }
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let rate = |(macs, secs): (u64, f64)| {
            if secs > 0.0 {
                macs as f64 / secs / 1e9
            } else {
                0.0
            }
        };
        vec![
            metric("tensor.conv2d_f32.gmac_s", rate(self.conv2d_f32), "GMAC/s"),
            metric("tensor.qconv2d.gmac_s", rate(self.qconv2d), "GMAC/s"),
            metric("tensor.dense_f32.gmac_s", rate(self.dense_f32), "GMAC/s"),
        ]
    }
}

/// MACs and bytes moved by one inference of `module`, summed over the
/// prepared graph's ops through the runtime's own work estimator.
pub fn work_per_infer(module: &Module) -> (u64, u64) {
    let prepared = fold_constants(&simplify(module));
    let types = infer_types(&prepared).expect("prepared module type-checks");
    let (mut macs, mut bytes) = (0u64, 0u64);
    for e in topo_order(&prepared.main().body) {
        let ExprKind::Call(call) = &e.kind else {
            continue;
        };
        let CallTarget::Op(op) = &call.target else {
            continue;
        };
        let mut arg_tys: Vec<&TensorType> = Vec::new();
        for a in &call.args {
            match &types[&a.id] {
                Type::Tensor(t) => arg_tys.push(t),
                Type::Tuple(fields) => arg_tys.extend(fields.iter().filter_map(|f| f.tensor())),
            }
        }
        if arg_tys.is_empty() {
            continue;
        }
        let Some(out_ty) = types[&e.id].tensor() else {
            continue;
        };
        let w = relay_work_item(op, &arg_tys, out_ty);
        macs += w.macs;
        bytes += w.bytes_in + w.bytes_out;
    }
    (macs, bytes)
}
