//! `showcase-serve`: the Fig. 1 app serving a seeded 64×64 video clip
//! through the `SessionPool`, one closed-loop client. The traced run adds
//! a pass with two clients (one per core) for `serving.contention_ms`.

use std::hint::black_box;
use std::slice::from_ref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tvm_neuropilot::byoc::{ArtifactCache, TargetMode};
use tvm_neuropilot::hwsim::CostModel;
use tvm_neuropilot::models::{anti_spoofing, emotion, object_detection, Model};
use tvm_neuropilot::observe::{ObserveConfig, ObservePlane};
use tvm_neuropilot::serving::{serving_rotation, SessionPool};
use tvm_neuropilot::telemetry;
use tvm_neuropilot::vision::detect::texture_energy;
use tvm_neuropilot::vision::frame::FACE_SIZE;
use tvm_neuropilot::vision::{luminance_saliency, match_faces, Frame, FrameResult, SyntheticVideo};

use crate::common::{
    derive, end_to_end, mean, metric, ms, overhead, peak_rss_mb, percentile, set_up_repeatedly,
    Args, Metric, Outcome, Phase, Trace,
};
use crate::layers::{
    build_metrics, replay_build, timed_build, work_per_infer, BuildRecord, KernelRates, Source,
};

/// Frames in the clip; a multiple of the scene cycle (4) and of the
/// serving rotation (2), so every pass over it is the same mix of work.
const CLIP: usize = 64;
/// Closed-loop clients of the timed loop. With two (`nproc` on the 2-core
/// host), two frames' 2-thread kernels share the two vCPUs, and the spread
/// over seeds of every latency metric doubled on the shared host.
const CLIENTS: usize = 1;
/// Clients of the traced run's contention pass: one per core.
const CONTENDED_CLIENTS: usize = 2;

struct Serve {
    pool: SessionPool,
    clip: Vec<Frame>,
    /// Artifact-cache hit rate right after pool stand-up.
    stand_up_hit_rate: f64,
}

fn set_up(seed: u64, cost: &CostModel) -> Serve {
    let cache = Arc::new(ArtifactCache::new(usize::MAX));
    let pool = SessionPool::new(derive(seed, 1), &serving_rotation(), cost, cache);
    let stand_up_hit_rate = pool.cache().stats().hit_rate();
    let clip = SyntheticVideo::new(derive(seed, 4), 64, 64).frames(CLIP);
    Serve {
        pool,
        clip,
        stand_up_hit_rate,
    }
}

pub fn run(args: &Args, epoch: Instant, trace: &mut Trace) -> Result<Outcome, String> {
    let cost = CostModel::default();
    let (serve, setup_s, first_setup_s) = set_up_repeatedly(epoch, || set_up(args.seed, &cost));

    // Reference: every clip frame served alone, at concurrency 1.
    let reference: Vec<FrameResult> = serve
        .clip
        .iter()
        .map(|f| {
            let r = serve.pool.serve(from_ref(f), 1);
            r.into_iter().next().expect("one result per frame")
        })
        .collect();

    let mut out = Outcome::default();
    let plain_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (plain, _) = serve_loop(
        &serve,
        &reference,
        plain_s,
        CLIENTS,
        &Trace::new(epoch, false),
        &mut out,
    );
    out.end_to_end = end_to_end(setup_s, peak_rss_mb(), &plain);
    let latencies = plain.latencies();
    out.detail = vec![
        metric("setup_s.first", first_setup_s, "s"),
        metric("frame_ms.p50", percentile(&latencies, 50.0), "ms"),
        metric("frame_ms.p95", percentile(&latencies, 95.0), "ms"),
        metric("fps", plain.rate(), "1/s"),
        metric("frames", latencies.len() as f64, "count"),
        metric("rounds", plain.rounds as f64, "count"),
    ];
    if !args.trace {
        return Ok(out);
    }
    let (traced, client_traces) = serve_loop(
        &serve,
        &reference,
        args.seconds / 2.0,
        CLIENTS,
        trace,
        &mut out,
    );
    for t in client_traces {
        trace.absorb(t);
    }
    out.per_layer = layers(
        args, &serve, &cost, &reference, &plain, &traced, trace, &mut out,
    );
    Ok(out)
}

/// `clients` closed-loop clients pull frame numbers from a shared cursor;
/// frame `k` is clip frame `k % CLIP`. Once `seconds` have passed, no new
/// pass over the clip starts, so every run serves whole passes (at least
/// one); a pass is a round.
fn serve_loop(
    serve: &Serve,
    reference: &[FrameResult],
    seconds: f64,
    clients: usize,
    tr: &Trace,
    out: &mut Outcome,
) -> (Phase, Vec<Trace>) {
    let next = AtomicUsize::new(0);
    let stop = AtomicUsize::new(usize::MAX);
    let start = Instant::now();
    // Per client: `(frame number, latency ms, completion s)` and its spans.
    type Served = Vec<(usize, f64, f64)>;
    let per_client: Vec<(Served, Trace)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (next, stop) = (&next, &stop);
                let mut ctr = tr.fork();
                scope.spawn(move || {
                    let mut served = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        if start.elapsed().as_secs_f64() >= seconds {
                            stop.fetch_min(k.div_ceil(CLIP) * CLIP, Ordering::SeqCst);
                        }
                        if k >= stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let frame = &serve.clip[k % CLIP];
                        let root = ctr.open("request", None, k as u64);
                        let t0 = Instant::now();
                        let s = ctr.open("serving.serve", Some(root), k as u64);
                        let result = serve.pool.serve(from_ref(frame), 1);
                        ctr.close(s);
                        let dt = ms(t0.elapsed());
                        ctr.close(root);
                        let ok = result.len() == 1 && result[0] == reference[k % CLIP];
                        let dt = if ok { dt } else { f64::INFINITY };
                        served.push((k, dt, start.elapsed().as_secs_f64()));
                    }
                    (served, ctr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut served = Vec::new();
    let mut client_traces = Vec::new();
    for (s, t) in per_client {
        served.extend(s);
        client_traces.push(t);
    }
    served.sort_by_key(|s| s.0);
    for &(k, dt, _) in &served {
        out.tally(dt.is_finite(), || {
            format!(
                "frame {k} (clip frame {}) differs from its result served alone",
                k % CLIP
            )
        });
    }
    let phase = Phase {
        requests: served.iter().map(|s| (s.0 % CLIP, s.1)).collect(),
        clients,
        rounds: served.len() / CLIP,
        window_s: served.iter().map(|s| s.2).fold(0.0, f64::max),
    };
    (phase, client_traces)
}

#[allow(clippy::too_many_arguments)]
fn layers(
    args: &Args,
    serve: &Serve,
    cost: &CostModel,
    reference: &[FrameResult],
    plain: &Phase,
    traced: &Phase,
    tr: &mut Trace,
    out: &mut Outcome,
) -> Vec<Metric> {
    // The pool's set-up builds, replayed stage by stage: each distinct
    // (model, mode) of the rotation, imported from its artifact.
    let sources = Source::showcase(derive(args.seed, 1));
    let mut builds: Vec<(usize, TargetMode)> = Vec::new();
    for a in serving_rotation() {
        for b in [(1, a.obj), (0, a.spoof), (2, a.emotion)] {
            if !builds.contains(&b) {
                builds.push(b);
            }
        }
    }
    let mut records = Vec::new();
    for (k, &(i, mode)) in builds.iter().enumerate() {
        let request = 2_000_000 + k as u64;
        let mut rec = BuildRecord::default();
        let (built, _, imported) =
            timed_build(tr, None, request, &sources[i].1, mode, cost, &mut rec);
        built.expect("showcase builds compile");
        let module = imported.expect("showcase sources import");
        replay_build(tr, request, &module, mode, cost, &mut rec);
        records.push(rec);
    }
    let mut metrics = build_metrics(&records, 0);

    // Kernels on the showcase shapes.
    let seed = derive(args.seed, 1);
    let models: [Model; 3] = [
        object_detection::mobilenet_ssd_model(seed),
        anti_spoofing::anti_spoofing_model(seed.wrapping_add(1)),
        emotion::emotion_model(seed.wrapping_add(2)),
    ];
    let mut rates = KernelRates::default();
    for m in &models {
        rates.add_model(&m.module, &m.sample_inputs(derive(args.seed, 3)), 10);
    }
    metrics.extend(rates.metrics());

    // Work per model run, over the clip's mix of runs.
    let work: Vec<(u64, u64)> = models.iter().map(|m| work_per_infer(&m.module)).collect();
    let (mut runs, mut macs, mut bytes) = (0u64, 0u64, 0u64);
    for r in reference {
        let faces = r.faces.len() as u64;
        let emotions = r.faces.iter().filter(|f| f.emotion.is_some()).count() as u64;
        runs += 1 + faces + emotions;
        macs += work[0].0 + faces * work[1].0 + emotions * work[2].0;
        bytes += work[0].1 + faces * work[1].1 + emotions * work[2].1;
    }
    metrics.push(metric(
        "tensor.macs_per_infer",
        macs as f64 / runs as f64,
        "MAC",
    ));
    metrics.push(metric(
        "tensor.bytes_per_infer",
        bytes as f64 / runs as f64,
        "B",
    ));

    // Uncontended service time: `Showcase::process_frame`, one client.
    let mut alone = Vec::new();
    for (f, want) in serve.clip.iter().zip(reference) {
        let session = serve.pool.session_for(f.index);
        let root = tr.open("vision.process_frame", None, f.index as u64);
        let t0 = Instant::now();
        let r = session.process_frame(f);
        alone.push(ms(t0.elapsed()));
        tr.close(root);
        out.tally(&r == want, || {
            format!("clip frame {}: process_frame differs", f.index)
        });
    }
    let process_ms = mean(&alone);
    metrics.push(metric("vision.process_frame_ms", process_ms, "ms"));
    // Contended frame time: the passes over the clip started within 1 s,
    // with a client per core.
    let (contended, client_traces) =
        serve_loop(serve, reference, 1.0, CONTENDED_CLIENTS, &tr.fork(), out);
    for t in client_traces {
        tr.absorb(t);
    }
    metrics.push(metric(
        "serving.contention_ms",
        mean(&contended.latencies()) - process_ms,
        "ms",
    ));

    // The app's own image processing around the models.
    let mut pre = Vec::new();
    for f in &serve.clip {
        let s = tr.open("vision.preprocess", None, f.index as u64);
        let t0 = Instant::now();
        let objects = luminance_saliency(f, 4, 1.8);
        for bbox in match_faces(f, 0.6)
            .into_iter()
            .filter(|b| objects.iter().any(|o| o.overlaps(b)))
        {
            black_box(f.crop_resized(bbox.tuple(), 32, 32));
            black_box(texture_energy(
                &f.gray_crop_resized(bbox.tuple(), FACE_SIZE),
            ));
            black_box(f.gray_crop_resized(bbox.tuple(), 48));
        }
        pre.push(ms(t0.elapsed()));
        tr.close(s);
    }
    metrics.push(metric("vision.preprocess_ms", mean(&pre), "ms"));
    metrics.push(metric(
        "vision.model_runs_per_frame",
        runs as f64 / reference.len() as f64,
        "count",
    ));
    metrics.push(metric(
        "byoc.cache.hit_rate",
        serve.stand_up_hit_rate,
        "frac",
    ));

    // Observation cost: `serve_observed` against `serve`, alternating.
    let plane = Arc::new(ObservePlane::new(ObserveConfig::default()).expect("in-memory plane"));
    let (mut plain_s, mut observed_s) = (0.0, 0.0);
    for _ in 0..2 {
        let t0 = Instant::now();
        black_box(serve.pool.serve(&serve.clip, 1));
        plain_s += t0.elapsed().as_secs_f64();
        telemetry::enable();
        telemetry::reset();
        plane.install();
        let t0 = Instant::now();
        let observed = serve.pool.serve_observed(&serve.clip, 1, &plane);
        observed_s += t0.elapsed().as_secs_f64();
        ObservePlane::uninstall();
        telemetry::disable();
        telemetry::reset();
        if observed.len() != reference.len() {
            out.tally(false, || "serve_observed lost frames".to_string());
        }
        for (f, (got, want)) in observed.iter().zip(reference).enumerate() {
            out.tally(got == want, || {
                format!("clip frame {f}: serve_observed changed the result")
            });
        }
    }
    metrics.push(metric(
        "observe.frame_overhead_ms",
        (observed_s - plain_s) * 1e3 / (2 * CLIP) as f64,
        "ms",
    ));
    metrics.extend(overhead(plain, traced));
    metrics
}
