//! `zoo-infer`: one client runs single-stream inference over every
//! (Table-1 zoo model, permutation) pair that compiles, in seeded order.
//! The kernels, the graph executor and the Neuron runtime do the work.

use std::collections::HashMap;
use std::time::Instant;

use tvm_neuropilot::byoc::{relay_build, BuildError, CompiledModel, Permutation};
use tvm_neuropilot::hwsim::CostModel;
use tvm_neuropilot::models::{zoo, Model};
use tvm_neuropilot::relay::interp::Value;
use tvm_neuropilot::relay::Interpreter;
use tvm_neuropilot::tensor::Tensor;

use crate::common::{
    derive, end_to_end, mean, metric, ms, overhead, peak_rss_mb, percentile, set_up_repeatedly,
    shuffled, Args, Metric, Outcome, Phase, Trace,
};
use crate::layers::{
    build_metrics, replay_build, timed_build, work_per_infer, BuildRecord, KernelRates, Source,
};

struct Zoo {
    models: Vec<Model>,
    /// `(model index, permutation, compiled model)` for every pair that
    /// compiles; NeuroPilot-only builds of models with unsupported ops
    /// are refused at build time and never requested.
    pairs: Vec<(usize, Permutation, CompiledModel)>,
}

fn set_up(seed: u64, cost: &CostModel) -> Zoo {
    let models = zoo::zoo(derive(seed, 2));
    let mut pairs = Vec::new();
    for (i, m) in models.iter().enumerate() {
        for p in Permutation::ALL {
            match relay_build(&m.module, p.mode(), cost.clone()) {
                Ok(c) => pairs.push((i, p, c)),
                Err(BuildError::Unsupported(_)) => {}
                Err(e) => panic!("{} fails to build for {p}: {e}", m.name),
            }
        }
    }
    Zoo { models, pairs }
}

fn flatten(v: Value, out: &mut Vec<Tensor>) {
    match v {
        Value::Tensor(t) => out.push(t),
        Value::Tuple(vs) => vs.into_iter().for_each(|v| flatten(v, out)),
    }
}

/// Per-layer times of one traced request, ms.
#[derive(Default)]
struct RunRecord {
    whole_ms: f64,
    runtime_ms: Option<f64>,
    execute_ms: Option<f64>,
}

/// One measured phase plus what the output check needs.
struct InferPhase {
    phase: Phase,
    /// `(round, model index, request index in the phase, outputs)` of
    /// every completed request.
    served: Vec<(u64, usize, usize, Vec<Tensor>)>,
    runs: Vec<RunRecord>,
    /// Inferences per model index.
    per_model: Vec<u64>,
}

pub fn run(args: &Args, epoch: Instant, trace: &mut Trace) -> Result<Outcome, String> {
    let cost = CostModel::default();
    let (mut zoo, setup_s, first_setup_s) = set_up_repeatedly(epoch, || set_up(args.seed, &cost));
    let mut out = Outcome::default();

    let plain_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut plain = infer_loop(
        args,
        &mut zoo,
        plain_s,
        0,
        &mut Trace::new(epoch, false),
        &mut out,
    );
    let rss = peak_rss_mb();
    let mut traced = if args.trace {
        let first_round = plain.phase.rounds as u64;
        Some(infer_loop(
            args,
            &mut zoo,
            args.seconds / 2.0,
            first_round,
            trace,
            &mut out,
        ))
    } else {
        None
    };

    // Output check, outside every timed window: each output must be
    // bit-identical to the Relay interpreter's on the same input.
    for p in std::iter::once(&mut plain).chain(traced.as_mut()) {
        check(args, &zoo, p, &mut out);
    }
    let latencies = plain.phase.latencies();
    out.end_to_end = end_to_end(setup_s, rss, &plain.phase);
    out.detail = vec![
        metric("setup_s.first", first_setup_s, "s"),
        metric("infer_ms.p50", percentile(&latencies, 50.0), "ms"),
        metric("infer_ms.p90", percentile(&latencies, 90.0), "ms"),
        metric("infer_per_s", plain.phase.rate(), "1/s"),
        metric("inferences", latencies.len() as f64, "count"),
        metric("rounds", plain.phase.rounds as f64, "count"),
    ];

    let Some(traced) = traced else {
        return Ok(out);
    };
    out.per_layer = layers(args, &zoo, &cost, &plain, &traced, trace);
    Ok(out)
}

fn input_for(args: &Args, model: &Model, round: u64, index: usize) -> Tensor {
    model.sample_input(derive(args.seed, (round << 8) | index as u64))
}

/// Whole rounds over every compiled pair in seeded order until `seconds`
/// have passed. Each round draws one fresh seeded input per model, shared
/// by that model's permutations (so one reference run checks them all).
fn infer_loop(
    args: &Args,
    zoo: &mut Zoo,
    seconds: f64,
    first_round: u64,
    tr: &mut Trace,
    out: &mut Outcome,
) -> InferPhase {
    let mut requests = Vec::new();
    let mut served = Vec::new();
    let mut runs = Vec::new();
    let mut per_model = vec![0u64; zoo.models.len()];
    let mut replay_s = 0.0;
    let start = Instant::now();
    let mut round = first_round;
    while start.elapsed().as_secs_f64() - replay_s < seconds {
        let inputs: Vec<HashMap<String, Tensor>> = zoo
            .models
            .iter()
            .enumerate()
            .map(|(i, m)| m.inputs_from(input_for(args, m, round, i)))
            .collect();
        for &k in &shuffled(zoo.pairs.len(), derive(args.seed, 2000 + round)) {
            let (mi, _, compiled) = &mut zoo.pairs[k];
            let request = requests.len() as u64;
            let root = tr.open("request", None, request);
            let t0 = Instant::now();
            let s = tr.open("byoc.run", Some(root), request);
            let result = compiled.run(&inputs[*mi]);
            tr.close(s);
            let dt = ms(t0.elapsed());
            tr.close(root);
            match result {
                Ok((outs, _)) => {
                    served.push((round, *mi, requests.len(), outs));
                    requests.push((k, dt));
                    per_model[*mi] += 1;
                }
                Err(e) => {
                    requests.push((k, f64::INFINITY));
                    out.tally(false, || format!("{}: {e}", zoo.models[*mi].name));
                    continue;
                }
            }
            if tr.enabled() {
                let r0 = Instant::now();
                let mut rec = RunRecord {
                    whole_ms: tr.dur_ms(s),
                    ..RunRecord::default()
                };
                replay_run(tr, request, compiled, &inputs[*mi], &mut rec);
                runs.push(rec);
                replay_s += r0.elapsed().as_secs_f64();
            }
        }
        round += 1;
    }
    InferPhase {
        phase: Phase {
            requests,
            clients: 1,
            rounds: (round - first_round) as usize,
            window_s: start.elapsed().as_secs_f64() - replay_s,
        },
        served,
        runs,
        per_model,
    }
}

/// Replay one inference through the public calls `CompiledModel::run`
/// is made of, timing the runtime calls; the input clones stay outside.
fn replay_run(
    tr: &mut Trace,
    request: u64,
    compiled: &mut CompiledModel,
    inputs: &HashMap<String, Tensor>,
    rec: &mut RunRecord,
) {
    let replay = tr.open("byoc.run.replay", None, request);
    let root = Some(replay);
    match compiled {
        CompiledModel::Tvm {
            executor,
            input_names,
            ..
        } => {
            let mut total = 0.0;
            for name in input_names.iter() {
                let v = inputs[name].clone();
                let s = tr.open("runtime.set_input", root, request);
                executor.set_input(name, v).expect("input binds");
                tr.close(s);
                total += tr.dur_ms(s);
            }
            let s = tr.open("runtime.run", root, request);
            executor.run().expect("executor runs");
            tr.close(s);
            total += tr.dur_ms(s);
            for i in 0..executor.num_outputs() {
                let s = tr.open("runtime.get_output", root, request);
                std::hint::black_box(executor.get_output(i).expect("output exists"));
                tr.close(s);
                total += tr.dur_ms(s);
            }
            rec.runtime_ms = Some(total);
        }
        CompiledModel::Neuron {
            network,
            input_names,
        } => {
            let ordered: Vec<Tensor> = input_names.iter().map(|n| inputs[n].clone()).collect();
            let s = tr.open("neuropilot.execute", root, request);
            std::hint::black_box(network.execute(&ordered).expect("network executes"));
            tr.close(s);
            rec.execute_ms = Some(tr.dur_ms(s));
        }
    }
    tr.close(replay);
}

/// Check every served output; a mismatching request fails and its
/// latency becomes `+inf`.
fn check(args: &Args, zoo: &Zoo, p: &mut InferPhase, out: &mut Outcome) {
    let mut reference: HashMap<(u64, usize), Vec<Tensor>> = HashMap::new();
    for (round, mi, index, outs) in &p.served {
        let want = reference.entry((*round, *mi)).or_insert_with(|| {
            let m = &zoo.models[*mi];
            let inputs = m.inputs_from(input_for(args, m, *round, *mi));
            let mut v = Vec::new();
            flatten(
                Interpreter::new(&m.module)
                    .run(&inputs)
                    .expect("reference run succeeds"),
                &mut v,
            );
            v
        });
        let ok = want.len() == outs.len() && want.iter().zip(outs).all(|(a, b)| a.bit_eq(b));
        if !ok {
            p.phase.requests[*index].1 = f64::INFINITY;
        }
        out.tally(ok, || {
            format!(
                "{} round {round}: output differs from the interpreter",
                zoo.models[*mi].name
            )
        });
    }
}

fn layers(
    args: &Args,
    zoo: &Zoo,
    cost: &CostModel,
    plain: &InferPhase,
    traced: &InferPhase,
    tr: &mut Trace,
) -> Vec<Metric> {
    // The set-up builds, replayed stage by stage.
    let mut records = Vec::new();
    let mut rejected = 0;
    for (i, m) in zoo.models.iter().enumerate() {
        let source = Source::Relay(m.module.clone());
        for p in Permutation::ALL {
            let request = 1_000_000 + (i * 7) as u64 + p as u64;
            let mut rec = BuildRecord::default();
            let (built, _, _) = timed_build(tr, None, request, &source, p.mode(), cost, &mut rec);
            if built.is_ok() {
                replay_build(tr, request, &m.module, p.mode(), cost, &mut rec);
            } else {
                rejected += 1;
            }
            records.push(rec);
        }
    }
    let mut out = build_metrics(&records, rejected);

    let runs = &traced.runs;
    let tvm: Vec<f64> = runs.iter().filter_map(|r| r.runtime_ms).collect();
    let np: Vec<f64> = runs.iter().filter_map(|r| r.execute_ms).collect();
    let other: Vec<f64> = runs
        .iter()
        .map(|r| r.whole_ms - r.runtime_ms.unwrap_or(0.0) - r.execute_ms.unwrap_or(0.0))
        .collect();
    out.push(metric("runtime.run_ms", mean(&tvm), "ms"));
    out.push(metric("neuropilot.execute_ms", mean(&np), "ms"));
    out.push(metric("byoc.run_other_ms", mean(&other), "ms"));

    let mut rates = KernelRates::default();
    for (i, m) in zoo.models.iter().enumerate() {
        rates.add_model(&m.module, &m.inputs_from(input_for(args, m, 0, i)), 1);
    }
    out.extend(rates.metrics());

    let work: Vec<(u64, u64)> = zoo
        .models
        .iter()
        .map(|m| work_per_infer(&m.module))
        .collect();
    let n: u64 = traced.per_model.iter().sum::<u64>().max(1);
    let weighted = |f: fn(&(u64, u64)) -> u64| {
        work.iter()
            .zip(&traced.per_model)
            .map(|(w, &c)| f(w) as f64 * c as f64)
            .sum::<f64>()
            / n as f64
    };
    out.push(metric("tensor.macs_per_infer", weighted(|w| w.0), "MAC"));
    out.push(metric("tensor.bytes_per_infer", weighted(|w| w.1), "B"));
    out.extend(overhead(&plain.phase, &traced.phase));
    out
}
