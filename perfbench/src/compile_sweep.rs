//! `compile-sweep`: one client imports, compiles and estimates the 13
//! models of Figs. 4 and 6 under the seven permutations, in seeded order.
//! The compiler layers do all the work; the kernels do none.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use tvm_neuropilot::byoc::{BuildError, Permutation};
use tvm_neuropilot::hwsim::CostModel;
use tvm_neuropilot::models::zoo;

use crate::common::{
    derive, end_to_end, metric, ms, overhead, peak_rss_mb, percentile, set_up_repeatedly, shuffled,
    Args, Metric, Outcome, Phase, Trace,
};
use crate::layers::{build_metrics, replay_build, timed_build, BuildRecord, Source};

/// What a sweep phase found beside its timings.
struct Findings {
    /// Distinct `(model, permutation)` pairs refused as `Unsupported`.
    rejected_pairs: BTreeSet<(String, String)>,
    /// Compiling requests whose simulated time matched its bar only up
    /// to rounding.
    ulp_diffs: u64,
}

struct Sweep {
    /// `(figure, model name, source)`; the figure names the BENCH file
    /// holding the model's simulated bars.
    models: Vec<(&'static str, String, Source)>,
    cost: CostModel,
}

fn set_up(seed: u64) -> Sweep {
    let mut models: Vec<(&'static str, String, Source)> = Source::showcase(derive(seed, 1))
        .into_iter()
        .map(|(name, src)| ("fig4", name, src))
        .collect();
    for m in zoo::zoo(derive(seed, 2)) {
        models.push(("fig6", m.name, Source::Relay(m.module)));
    }
    Sweep {
        models,
        cost: CostModel::default(),
    }
}

/// The bench harness's metric-key spelling of a label.
fn key_part(s: &str) -> String {
    s.to_lowercase()
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|p| !p.is_empty())
        .collect::<Vec<_>>()
        .join("-")
}

/// Simulated ms of every bar in the checked-in figure baselines, keyed
/// by `(figure, model, permutation)`; a missing key is a missing bar.
fn expected_bars() -> Result<HashMap<String, f64>, String> {
    let mut bars = HashMap::new();
    for fig in ["fig4", "fig6"] {
        let path = format!("BENCH_{fig}.json");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let v = serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))?;
        let metrics = v
            .get("metrics")
            .and_then(|m| m.as_object())
            .ok_or_else(|| format!("{path}: no metrics object"))?;
        for (k, entry) in metrics {
            if let Some(median) = entry.get("median").and_then(|m| m.as_f64()) {
                bars.insert(k.clone(), median);
            }
        }
    }
    Ok(bars)
}

pub fn run(args: &Args, epoch: Instant, trace: &mut Trace) -> Result<Outcome, String> {
    let (sweep, setup_s, first_setup_s) = set_up_repeatedly(epoch, || set_up(args.seed));
    let bars = expected_bars()?;
    let expected: Vec<Vec<Option<f64>>> = sweep
        .models
        .iter()
        .map(|(fig, name, _)| {
            Permutation::ALL
                .iter()
                .map(|p| {
                    bars.get(&format!(
                        "{fig}.{}.{}.ms",
                        key_part(name),
                        key_part(p.label())
                    ))
                    .copied()
                })
                .collect()
        })
        .collect();

    let mut out = Outcome::default();
    if !args.trace {
        let (phase, found) = sweep_loop(
            args,
            &sweep,
            &expected,
            args.seconds,
            &mut Trace::new(epoch, false),
            &mut out,
            None,
        );
        out.end_to_end = end_to_end(setup_s, peak_rss_mb(), &phase);
        out.detail = detail(&phase, first_setup_s, found.ulp_diffs);
        return Ok(out);
    }

    // Traced run: the first half untraced, the second half traced with
    // each compiling request replayed stage by stage after it completes.
    let (plain, found) = sweep_loop(
        args,
        &sweep,
        &expected,
        args.seconds / 2.0,
        &mut Trace::new(epoch, false),
        &mut out,
        None,
    );
    let mut records = Vec::new();
    let (traced, traced_found) = sweep_loop(
        args,
        &sweep,
        &expected,
        args.seconds / 2.0,
        trace,
        &mut out,
        Some(&mut records),
    );
    out.end_to_end = end_to_end(setup_s, peak_rss_mb(), &plain);
    out.detail = detail(
        &plain,
        first_setup_s,
        found.ulp_diffs + traced_found.ulp_diffs,
    );

    let mut layers = build_metrics(&records, traced_found.rejected_pairs.len());
    layers.extend(overhead(&plain, &traced));
    out.per_layer = layers;
    Ok(out)
}

fn detail(p: &Phase, first_setup_s: f64, ulp_diffs: u64) -> Vec<Metric> {
    let latencies = p.latencies();
    vec![
        metric("setup_s.first", first_setup_s, "s"),
        metric("build_ms.p50", percentile(&latencies, 50.0), "ms"),
        metric("build_ms.p99", percentile(&latencies, 99.0), "ms"),
        metric("builds_per_s", p.rate(), "1/s"),
        metric("builds", latencies.len() as f64, "count"),
        metric("rounds", p.rounds as f64, "count"),
        metric("sim_ms.ulp_diffs", ulp_diffs as f64, "count"),
    ]
}

/// Whether a simulated time matches its figure bar. Some BYOC bars are
/// recomputed a few ulps away from the checked-in values (`bench
/// --workload fig4` does not reproduce `BENCH_fig4.json` bit for bit
/// either), so equality is taken up to floating-point rounding; the
/// count of bars that differ in their last bits is reported as
/// `sim_ms.ulp_diffs`.
fn same_bar(ms: f64, bar: f64) -> bool {
    (ms - bar).abs() <= 1e-12 * bar.abs()
}

/// Run whole rounds of all 13 × 7 pairs until `seconds` have passed.
/// With `records`, each compiling request is replayed stage by stage
/// after its latency is taken; replay time is left out of the window.
fn sweep_loop(
    args: &Args,
    sweep: &Sweep,
    expected: &[Vec<Option<f64>>],
    seconds: f64,
    tr: &mut Trace,
    out: &mut Outcome,
    mut records: Option<&mut Vec<BuildRecord>>,
) -> (Phase, Findings) {
    let pairs: Vec<(usize, usize)> = (0..sweep.models.len())
        .flat_map(|m| (0..Permutation::ALL.len()).map(move |p| (m, p)))
        .collect();
    let mut requests = Vec::new();
    let mut rounds = 0;
    let mut rejected_pairs = BTreeSet::new();
    let mut ulp_diffs = 0u64;
    let mut replay_s = 0.0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() - replay_s < seconds {
        for &i in &shuffled(pairs.len(), derive(args.seed, 1000 + rounds as u64)) {
            let (m, p) = pairs[i];
            let (_, name, source) = &sweep.models[m];
            let perm = Permutation::ALL[p];
            let request = out.sent;
            out.sent += 1;
            let root = tr.open("request", None, request);
            let mut rec = BuildRecord::default();
            let t0 = Instant::now();
            let (built, us, imported) = timed_build(
                tr,
                Some(root),
                request,
                source,
                perm.mode(),
                &sweep.cost,
                &mut rec,
            );
            let dt = ms(t0.elapsed());
            tr.close(root);
            match (&built, expected[m][p]) {
                (Ok(_), Some(bar)) if us.is_some_and(|u| same_bar(u / 1000.0, bar)) => {
                    out.succeeded += 1;
                    requests.push((i, dt));
                    if us.map(|u| u / 1000.0) != Some(bar) {
                        ulp_diffs += 1;
                    }
                }
                (Err(BuildError::Unsupported(_)), None) => {
                    out.rejected += 1;
                    rejected_pairs.insert((name.clone(), perm.label().to_string()));
                }
                (result, bar) => {
                    out.failed += 1;
                    requests.push((i, f64::INFINITY));
                    out.failures.push(format!(
                        "{name} / {}: built {:?} simulated {:?} ms, expected {:?}",
                        perm.label(),
                        result.as_ref().err().map(|e| e.to_string()),
                        us.map(|u| u / 1000.0),
                        bar
                    ));
                }
            }
            if let (Some(recs), Ok(_)) = (records.as_deref_mut(), &built) {
                let r0 = Instant::now();
                let module = match (&imported, source) {
                    (Some(m), _) => m,
                    (None, Source::Relay(m)) => m,
                    (None, _) => unreachable!("non-Relay sources always import"),
                };
                replay_build(tr, request, module, perm.mode(), &sweep.cost, &mut rec);
                recs.push(rec);
                replay_s += r0.elapsed().as_secs_f64();
            }
        }
        rounds += 1;
    }
    let phase = Phase {
        requests,
        clients: 1,
        rounds,
        window_s: start.elapsed().as_secs_f64() - replay_s,
    };
    (
        phase,
        Findings {
            rejected_pairs,
            ulp_diffs,
        },
    )
}
