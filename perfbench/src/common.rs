//! Shared plumbing: arguments, seeds, statistics, the in-memory span
//! recorder, provenance and the result record.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde_json::{json, Map, Value};

/// The workloads. `BENCHMARK.json` lists the last two; compile-sweep runs
/// ungated (see `METRICS.md`).
pub const WORKLOADS: [&str; 3] = ["compile-sweep", "zoo-infer", "showcase-serve"];

/// Each run repeats its set-up at least this many times, and for at
/// least `SETUP_MIN_S`; `setup_s` is the median.
const SETUP_REPEATS: usize = 15;
const SETUP_MIN_S: f64 = 2.0;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload '{value}' (expected one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Derive an independent sub-seed (splitmix64 of `seed` and `tag`).
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates permutation of `0..n`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = derive(state, i as u64);
        let j = (state % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Set the workload up repeatedly, dropping each before the next, and
/// return the last one with the median set-up time and the first set-up's
/// time, both in seconds. The first set-up is timed from process start.
pub fn set_up_repeatedly<T>(epoch: Instant, mut set_up: impl FnMut() -> T) -> (T, f64, f64) {
    let mut times = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while times.len() < SETUP_REPEATS || started.elapsed().as_secs_f64() < SETUP_MIN_S {
        let t0 = if times.is_empty() {
            epoch
        } else {
            Instant::now()
        };
        drop(last.take());
        last = Some(set_up());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        last.expect("set up at least once"),
        median(&times),
        times[0],
    )
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolated percentile (`p` in `[0, 100]`) of unsorted
/// samples. A failed request is recorded as `+inf`, so it misses every
/// latency limit.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi || s[hi] == s[lo] {
        return s[lo];
    }
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Process high-water resident set, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// In-memory span recorder. Spans are recorded by the benchmark around
/// its calls into each crate; nothing inside the crates is instrumented.
/// One recorder per thread; [`Trace::absorb`] merges them.
pub struct Trace {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

/// Id handed out by a disabled recorder.
const NO_SPAN: usize = usize::MAX;

impl Trace {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Trace {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if id != NO_SPAN {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A recorder for another thread, sharing this one's epoch and switch.
    pub fn fork(&self) -> Trace {
        Trace::new(self.epoch, self.enabled)
    }

    /// Move another recorder's spans into this one, re-basing parents.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn dur_ms(&self, id: usize) -> f64 {
        if id == NO_SPAN {
            return 0.0;
        }
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Total and self time (span minus its children) per span name, ms,
    /// with the span count, sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += (s.end_ns - s.start_ns) as f64 / 1e6;
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (usize, f64, f64)> =
            Default::default();
        for (i, s) in self.spans.iter().enumerate() {
            let total = (s.end_ns - s.start_ns) as f64 / 1e6;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total - child_ms[i];
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, s))| (n, c, t, s))
            .collect()
    }

    /// Write the spans as JSON (one object per span).
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id,
                    "name": s.name,
                    "start_us": s.start_ns as f64 / 1e3,
                    "end_us": s.end_ns as f64 / 1e3,
                    "parent": s.parent,
                    "request": s.request,
                })
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, json!({ "spans": spans }).to_string())
    }
}

/// The requests one measured phase completed. An item is one unit of
/// the workload's mix (a `(model, permutation)` pair, or a clip frame);
/// every phase runs whole rounds, each item once per round, so every
/// item has samples.
pub struct Phase {
    /// `(item, latency ms)` per request, in request order; a failed
    /// request is `+inf`.
    pub requests: Vec<(usize, f64)>,
    /// Closed-loop clients that sent the requests.
    pub clients: usize,
    /// Whole rounds run.
    pub rounds: usize,
    /// Wall time of the phase, s, without any replays done in it.
    pub window_s: f64,
}

impl Phase {
    pub fn latencies(&self) -> Vec<f64> {
        self.requests.iter().map(|r| r.1).collect()
    }

    /// Requests completed per second of the phase's wall time.
    pub fn rate(&self) -> f64 {
        self.requests.len() as f64 / self.window_s
    }

    /// Each item's median latency, or `+inf` if any of its requests
    /// failed. The median does not shift with the number of samples an
    /// item has, which a faster host raises; a lower quantile would, and
    /// a run that fits one more zoo-infer round would read faster.
    fn item_latencies(&self) -> Vec<f64> {
        let mut by_item: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for &(item, ms) in &self.requests {
            by_item.entry(item).or_default().push(ms);
        }
        by_item
            .values()
            .map(|v| {
                if v.iter().any(|x| x.is_infinite()) {
                    f64::INFINITY
                } else {
                    median(v)
                }
            })
            .collect()
    }

    /// Geometric mean over items of their median latency.
    pub fn gmean_ms(&self) -> f64 {
        gmean(&self.item_latencies())
    }

    /// Mean of the slowest tenth of the items' median latencies.
    pub fn tail10_mean_ms(&self) -> f64 {
        tail_mean(&self.item_latencies())
    }

    /// Requests per second over one round at the items' median
    /// latencies. In a closed loop without think time, throughput is
    /// clients / mean latency (Little's law).
    pub fn throughput(&self) -> f64 {
        self.clients as f64 * 1e3 / mean(&self.item_latencies())
    }
}

/// Traced minus untraced, for the request metrics both phases measure.
pub fn overhead(plain: &Phase, traced: &Phase) -> Vec<Metric> {
    vec![
        metric(
            "trace.overhead.latency_ms.gmean",
            traced.gmean_ms() - plain.gmean_ms(),
            "ms",
        ),
        metric(
            "trace.overhead.latency_ms.tail10_mean",
            traced.tail10_mean_ms() - plain.tail10_mean_ms(),
            "ms",
        ),
        metric(
            "trace.overhead.throughput_per_s",
            traced.throughput() - plain.throughput(),
            "1/s",
        ),
    ]
}

/// One named number with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
    /// Pairs refused as `Unsupported` where the figures have no bar
    /// (compile-sweep only); neither succeeded nor failed.
    pub rejected: u64,
    /// The `end_to_end` metrics of `BENCHMARK.json`.
    pub end_to_end: Vec<Metric>,
    /// The workload's own names for its end-to-end numbers.
    pub detail: Vec<Metric>,
    /// The `per_layer` metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    pub failures: Vec<String>,
}

impl Outcome {
    /// Count one checked request.
    pub fn tally(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        self.sent += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
            self.failures.push(failure());
        }
    }
}

/// Geometric mean: every request's relative change counts alike, and
/// it has no cliff where a percentile falls between two groups of
/// differently sized requests.
pub fn gmean(samples: &[f64]) -> f64 {
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// Mean of the slowest tenth of the samples.
pub fn tail_mean(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| b.total_cmp(a));
    let k = (s.len() / 10).max(1);
    s[..k].iter().sum::<f64>() / k as f64
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(setup_s: f64, peak_rss_mb: f64, phase: &Phase) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric("latency_ms.gmean", phase.gmean_ms(), "ms"),
        metric("latency_ms.tail10_mean", phase.tail10_mean_ms(), "ms"),
        metric("throughput_per_s", phase.throughput(), "1/s"),
    ]
}

fn metrics_json(ms: &[Metric]) -> Value {
    Value::Object(
        ms.iter()
            .map(|m| (m.name.clone(), json!({ "value": m.value, "unit": m.unit })))
            .collect(),
    )
}

/// Host and build provenance carried by every result record.
fn provenance_json(seed: u64) -> Value {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    json!({
        "git_rev": git_rev(),
        "nproc": nproc,
        "cpu_model": cpu,
        "rustc": env!("PERFBENCH_RUSTC_VERSION"),
        "seed": seed,
    })
}

/// The checked-out revision, read from `.git` without running git; a
/// source tree without `.git` reports `unknown`.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Print the full record, then the one-line result the contract asks for
/// as the last line of standard output.
pub fn emit(args: &Args, out: &Outcome, self_times: &[(&'static str, usize, f64, f64)]) {
    let self_time: Map = self_times
        .iter()
        .map(|&(name, count, total, own)| {
            (
                name.to_string(),
                json!({ "count": count, "total_ms": total, "self_ms": own }),
            )
        })
        .collect();
    let mut all = out.end_to_end.clone();
    all.extend(out.detail.iter().cloned());
    all.extend(out.per_layer.iter().cloned());
    let failures: Vec<&String> = out.failures.iter().take(20).collect();
    let record = json!({
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance_json(args.seed),
        "requests": json!({
            "sent": out.sent,
            "succeeded": out.succeeded,
            "failed": out.failed,
            "rejected": out.rejected,
        }),
        "metrics": metrics_json(&all),
        "self_time": Value::Object(self_time),
        "failures": failures,
    });
    println!("{}", json!({ "record": record }));
    let reported = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!(
        "{}",
        json!({
            "correct": out.failed == 0,
            "attempted": out.sent.max(1),
            "failed": out.failed,
            "metrics": metrics_json(reported),
        })
    );
}
