//! End-to-end k-NN benchmark for trajsim.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! generates the workload's inputs from the seed, times set-up and a
//! closed-loop query phase, checks every answer against the exact ones,
//! and prints its metrics; the last line of standard output is one JSON
//! object. `--trace 1` instead times the calls into each crate from the
//! outside and prints the per-layer metrics. See README.md.

mod calib;
mod golden;
mod percentile;
mod trace;
mod workload;

use percentile::Samples;
use std::fs::{self, File};
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{json_number, Tracer};
use trajsim_core::{max_std_dev, Dataset, MatchThreshold, Trajectory2, TrajectoryArena};
use trajsim_distance::{EdrWorkspace, QueryContext};
use trajsim_histogram::TrajectoryHistogram;
use trajsim_prune::{CandidateSource, CombinedConfig, CombinedKnn, KnnEngine, KnnResult};
use trajsim_qgram::SortedMeans;
use workload::Spec;

const USAGE: &str = "usage: perfbench --workload <uniform_knn|uniform_batch|clustered_art> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Neighbours per query.
const K: usize = 10;
/// Worker threads, pinned rather than detected; fewer if the machine
/// has fewer cores.
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Requests the timed phase must complete so that p95 has ten samples
/// beyond it; the phase runs past `--seconds` (up to 3×) to reach it.
const MIN_REQUESTS: usize = 200;
/// Untimed warm-up before the timed phase.
const WARMUP: Duration = Duration::from_millis(500);
/// Request time after which the closed loop times a reference chunk.
const CHUNK_EVERY: Duration = Duration::from_millis(25);
/// Reference chunks on each side of a request that give its host speed.
const CHUNK_HALF_WINDOW: usize = 4;
/// Reference chunks timed before the first set-up and after each one.
const SETUP_CHUNKS: usize = 9;
/// Times the traced run builds the engine and repeats its parts.
const BUILD_ROUNDS: usize = 2;
/// Trajectory pairs timed for `distance.edr_ns_per_cell`.
const EDR_SAMPLE_PAIRS: usize = 400;

/// (name, value, unit) of one reported metric.
type Metric = (&'static str, f64, &'static str);

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = parse_args(&argv).and_then(|args| run(&args)) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        };
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        if slot.replace(value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    fn need<'a>(v: Option<&'a str>, flag: &str) -> Result<&'a str, String> {
        v.ok_or_else(|| format!("missing {flag}\n{USAGE}"))
    }
    let number = |v: &str, flag: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag}: not a non-negative integer: {v:?}"))
    };
    let seconds = number(need(seconds, "--seconds")?, "--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=600 (got {seconds})"));
    }
    let trace = match need(trace, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1 (got {other:?})")),
    };
    Ok(Args {
        spec: workload::find(need(workload, "--workload")?)?,
        seed: number(need(seed, "--seed")?, "--seed")?,
        seconds,
        trace,
    })
}

/// Deletes the per-run dataset file however the run ends.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

/// What every run, traced or not, learns about the query phase.
struct Phase {
    /// Wall time of each request, in ms; traced runs keep only the
    /// untraced half here.
    latencies_ms: Vec<f64>,
    /// For each entry of `latencies_ms`, the median time of the
    /// reference chunks timed around that request, in ms.
    chunk_ms: Vec<f64>,
    /// (pool index, distances) of every answered query.
    answered: Vec<(usize, Vec<usize>)>,
    wall_s: f64,
}

fn run(args: &Args) -> Result<(), String> {
    let spec = args.spec;
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = THREADS.min(available);
    trajsim_parallel::set_num_threads(threads);

    let work = bench_dir().join("work");
    fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;

    let calib_start = calib::calibrate();
    let (ds, queries) = spec.inputs(args.seed);
    let data = TempFile(work.join(format!(
        "{}-{}-{}.bin",
        spec.name,
        args.seed,
        std::process::id()
    )));
    let file = File::create(&data.0).map_err(|e| format!("create {}: {e}", data.0.display()))?;
    let mut out = BufWriter::new(file);
    trajsim_io::write_binary(&mut out, &ds).map_err(|e| e.to_string())?;
    out.flush()
        .map_err(|e| format!("write {}: {e}", data.0.display()))?;
    drop(ds);

    println!(
        "perfbench {} seed={} threads={threads} (pinned; {available} available) n={} pool={} k={K} {}",
        spec.name,
        args.seed,
        spec.n,
        spec.pool,
        match spec.batch {
            Some(b) => format!("batch={b}"),
            None => "per-query".to_string(),
        }
    );
    let mut metrics: Vec<Metric> = Vec::new();
    let (phase, ds, eps) = if args.trace {
        traced(args, &data.0, &queries, threads, &mut metrics)?
    } else {
        untraced(args, &data.0, &queries, threads, &mut metrics)?
    };
    let calib_end = calib::calibrate();
    let calib_ms = (calib_start + calib_end) / 2.0;
    if args.trace {
        metrics.push(("bench.calib_ms", calib_ms, "ms"));
    }

    let failed = check_answers(spec, args.seed, &ds, eps, &queries, &phase.answered)?;
    let attempted = phase.answered.len();
    if !args.trace {
        metrics.extend(end_to_end(&phase)?);
    }
    println!(
        "  failed_frac {:.4} ({failed} of {attempted} queries)",
        failed as f64 / attempted as f64
    );
    println!("  bench.calib_ms {calib_ms:.3} (start {calib_start:.3}, end {calib_end:.3})");
    for (name, value, unit) in &metrics {
        println!("  {name:<34} {value:>14.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

/// The benchmark's directory: inputs, answers and traces stay inside it.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn load(path: &Path) -> Result<(Dataset<2>, MatchThreshold), String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let ds: Dataset<2> =
        trajsim_io::read_binary(BufReader::new(file)).map_err(|e| e.to_string())?;
    // The CLI's default threshold: a quarter of the largest per-dimension σ.
    let sigma = max_std_dev(ds.trajectories()).map_err(|e| e.to_string())?;
    let eps = MatchThreshold::new(sigma * 0.25).map_err(|e| e.to_string())?;
    Ok((ds, eps))
}

/// The configuration `trajsim knn` builds: HQN, per-dimension
/// histograms, q = 1, 100 triangle references.
fn config() -> CombinedConfig {
    CombinedConfig {
        max_triangle: 100,
        ..Default::default()
    }
}

fn build<'a>(spec: &Spec, ds: &'a Dataset<2>, eps: MatchThreshold) -> CombinedKnn<'a, 2> {
    let engine = CombinedKnn::build(ds, eps, config());
    if spec.index {
        engine.with_index()
    } else {
        engine
    }
}

/// One request: a `knn` call, or a `knn_batch` call over the next
/// `batch` pool queries. Returns (pool index, result) per query.
fn request(
    spec: &Spec,
    engine: &CombinedKnn<'_, 2>,
    queries: &[Trajectory2],
    next: &mut usize,
) -> Vec<(usize, KnnResult)> {
    let start = *next % queries.len();
    match spec.batch {
        None => {
            *next += 1;
            vec![(start, engine.knn(&queries[start], K))]
        }
        Some(b) => {
            *next += b;
            let results = engine.knn_batch(&queries[start..start + b], K);
            (start..start + b).zip(results).collect()
        }
    }
}

/// Threads a request runs on: `knn_batch` spreads its queries over the
/// pinned threads, `knn` answers one query on the calling thread.
fn request_threads(spec: &Spec, threads: usize) -> usize {
    if spec.batch.is_some() {
        threads
    } else {
        1
    }
}

/// Runs requests back to back (one client, one request in flight) for
/// `seconds`, or longer until [`MIN_REQUESTS`] have completed, after
/// an untimed warm-up. `serve(i)` answers the `i`-th request (`None`
/// during warm-up) and returns its answers and whether it counts towards
/// the latency samples.
///
/// Between requests, once [`CHUNK_EVERY`] of request time has passed
/// since the last one, the loop times a reference chunk on
/// `chunk_threads` threads; a request's host speed is the median of the
/// [`CHUNK_HALF_WINDOW`] chunks on each side of it.
fn closed_loop(
    seconds: u64,
    chunk_threads: usize,
    mut serve: impl FnMut(Option<usize>) -> (Vec<(usize, Vec<usize>)>, bool),
) -> Phase {
    let warm = Instant::now();
    let mut first = true;
    while first || warm.elapsed() < WARMUP {
        black_box(serve(None));
        first = false;
    }
    let mut i = 0;
    let limit = Duration::from_secs(seconds);
    let mut phase = Phase {
        latencies_ms: Vec::new(),
        chunk_ms: Vec::new(),
        answered: Vec::new(),
        wall_s: 0.0,
    };
    // `chunks[s]` was timed just before the requests of segment s.
    let mut chunks = vec![calib::chunk_on(chunk_threads)];
    let mut segments = Vec::new();
    let mut since_chunk = Duration::ZERO;
    let t0 = Instant::now();
    while t0.elapsed() < limit || (i < MIN_REQUESTS && t0.elapsed() < 3 * limit) {
        let t = Instant::now();
        let (answers, sampled) = serve(Some(i));
        let took = t.elapsed();
        if sampled {
            phase.latencies_ms.push(took.as_secs_f64() * 1e3);
            segments.push(chunks.len() - 1);
        }
        phase.answered.extend(answers);
        i += 1;
        since_chunk += took;
        if since_chunk >= CHUNK_EVERY {
            chunks.push(calib::chunk_on(chunk_threads));
            since_chunk = Duration::ZERO;
        }
    }
    phase.wall_s = t0.elapsed().as_secs_f64();
    chunks.push(calib::chunk_on(chunk_threads));
    phase.chunk_ms = segments
        .iter()
        .map(|&s| {
            let lo = (s + 1).saturating_sub(CHUNK_HALF_WINDOW);
            let hi = (s + 1 + CHUNK_HALF_WINDOW).min(chunks.len());
            Samples::new(chunks[lo..hi].to_vec()).median()
        })
        .collect();
    phase
}

fn untraced(
    args: &Args,
    path: &Path,
    queries: &[Trajectory2],
    threads: usize,
    metrics: &mut Vec<Metric>,
) -> Result<(Phase, Dataset<2>, MatchThreshold), String> {
    let spec = args.spec;
    // Each set-up is rescaled by the reference chunks timed just before
    // and just after it, on the threads its reference matrix uses.
    let mut setup_s = Vec::new();
    let mut setup_raw_s = Vec::new();
    let mut before = calib::chunks(SETUP_CHUNKS, threads);
    let mut timed = |s: f64| {
        let after = calib::chunks(SETUP_CHUNKS, threads);
        setup_raw_s.push(s);
        setup_s.push(calib::at_nominal(s, (before + after) / 2.0));
        before = after;
    };
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let (ds, eps) = load(path)?;
        black_box(build(spec, &ds, eps));
        timed(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let (ds, eps) = load(path)?;
    let engine = build(spec, &ds, eps);
    timed(t.elapsed().as_secs_f64());

    let mut next = 0;
    let phase = closed_loop(args.seconds, request_threads(spec, threads), |_| {
        let answers = request(spec, &engine, queries, &mut next)
            .into_iter()
            .map(|(q, r)| (q, r.distances()))
            .collect();
        (answers, true)
    });
    let peak_rss_mb = peak_rss_kb()? / 1024.0;
    drop(engine);
    let setup_median = Samples::new(setup_s.clone()).median();
    println!("  setup_s samples {setup_s:.3?} (wall {setup_raw_s:.3?})");
    metrics.extend([
        ("setup_s", setup_median, "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ]);
    Ok((phase, ds, eps))
}

/// Throughput and exact latency percentiles of the query phase, each
/// request's time rescaled by the host speed around it. Throughput is
/// queries over the summed request times; the reference chunks between
/// requests are not part of it.
fn end_to_end(phase: &Phase) -> Result<[Metric; 3], String> {
    let rescaled: Vec<f64> = phase
        .latencies_ms
        .iter()
        .zip(&phase.chunk_ms)
        .map(|(&ms, &chunk)| calib::at_nominal(ms, chunk))
        .collect();
    let busy_s = rescaled.iter().sum::<f64>() / 1e3;
    let samples = Samples::new(rescaled);
    let p50 = samples.percentile(50.0)?;
    let p95 = samples.percentile(95.0)?;
    let qps = phase.answered.len() as f64 / busy_s;
    let wall = Samples::new(phase.latencies_ms.clone());
    println!(
        "  closed loop: 1 client, {} requests, {} queries in {:.3} s; latency samples n={}",
        phase.latencies_ms.len(),
        phase.answered.len(),
        phase.wall_s,
        samples.count()
    );
    println!(
        "  as measured, not rescaled: qps {:.3} (over the whole loop), p50 {:.3} ms, p95 {:.3} ms; \
         reference chunk median {:.4} ms (nominal {})",
        phase.answered.len() as f64 / phase.wall_s,
        wall.percentile(50.0)?,
        wall.percentile(95.0)?,
        Samples::new(phase.chunk_ms.clone()).median(),
        calib::NOMINAL_MS
    );
    Ok([
        ("qps", qps, "1/s"),
        ("latency_p50_ms", p50, "ms"),
        ("latency_p95_ms", p95, "ms"),
    ])
}

/// Time the calling thread has spent on a CPU, in ns (Linux
/// `schedstat`); 0 where the kernel does not report it.
fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// High-water mark of this process's resident set (Linux `VmHWM`).
fn peak_rss_kb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Compares every answered query with the exact answers: the
/// committed ones in `golden/`, else those an earlier run cached in
/// `work/answers/`, else a fresh sequential scan, which is then cached.
fn check_answers(
    spec: &Spec,
    seed: u64,
    ds: &Dataset<2>,
    eps: MatchThreshold,
    queries: &[Trajectory2],
    answered: &[(usize, Vec<usize>)],
) -> Result<usize, String> {
    let key = spec.answers_key(seed);
    let fingerprint = workload::fingerprint(ds, queries);
    let dir = bench_dir();
    let cache = golden::path(&dir.join("work").join("answers"), &key);
    for path in [golden::path(&dir.join("golden"), &key), cache.clone()] {
        match golden::read(&path)? {
            Some(g)
                if g.fingerprint == fingerprint && g.k == K && g.answers.len() == queries.len() =>
            {
                return Ok(golden::mismatches(&g.answers, answered));
            }
            Some(_) => eprintln!(
                "perfbench: {} was made from other inputs; ignoring it",
                path.display()
            ),
            None => {}
        }
    }
    let g = golden::Golden {
        fingerprint,
        k: K,
        answers: golden::compute(ds, eps, queries, K),
    };
    golden::write(&cache, &key, &g)?;
    Ok(golden::mismatches(&g.answers, answered))
}

/// Global counters read around each traced engine call.
const COUNTERS: [&str; 4] = [
    "art.nodes_visited",
    "art.postings_scanned",
    trajsim_prune::BATCH_SHARED_SIGNATURE_EVALS,
    "parallel.worker_busy_ns",
];

fn counters() -> [u64; 4] {
    let m = trajsim_obs::metrics::global();
    COUNTERS.map(|name| m.counter(name).get())
}

/// `useful / attempts`, or 0 when nothing was attempted.
fn ratio(useful: f64, attempts: f64) -> f64 {
    if attempts > 0.0 {
        useful / attempts
    } else {
        0.0
    }
}

/// The traced run: set-up with each build step re-timed from the
/// outside, then a query phase whose requests alternate between untraced
/// and traced, so that the tracing overhead is measured under the same
/// host speed.
fn traced(
    args: &Args,
    path: &Path,
    queries: &[Trajectory2],
    threads: usize,
    metrics: &mut Vec<Metric>,
) -> Result<(Phase, Dataset<2>, MatchThreshold), String> {
    let spec = args.spec;
    let mut tr = Tracer::new();
    let (ds, eps) = tr.span("io.load", 0, |_| load(path)).0?;
    let n = ds.len();
    // Build, then repeat its parts; twice over, so that host drift
    // falls on both alike. Set-up metrics are per round.
    let mut built = None;
    let mut pmatrix = Vec::new();
    for _ in 0..BUILD_ROUNDS {
        built = Some(
            tr.span("prune.build", 0, |_| CombinedKnn::build(&ds, eps, config()))
                .0,
        );
        pmatrix = tr.span("build.parts", 0, |tr| build_parts(tr, &ds, eps)).0;
    }
    let engine = built.expect("at least one build round");

    // The index is built on every workload so that its cost on each
    // layout is reported; only clustered_art queries through it.
    let engine = if spec.index {
        tr.span("art.build", 0, |_| engine.with_index()).0
    } else {
        let spare = CombinedKnn::with_pmatrix(&ds, eps, config(), pmatrix);
        drop(tr.span("art.build", 0, |_| spare.with_index()));
        engine
    };

    let arena = TrajectoryArena::from_dataset(&ds);
    let (cells, _) = tr.span("distance.edr_sample", 0, |_| edr_sample(&arena, eps));

    // Query phase: blocks of SPAN queries, one from each length band,
    // alternate between untraced and traced, so both halves answer the
    // same mix of queries.
    let per_block = workload::SPAN / spec.batch.unwrap_or(1);
    let mut next = 0;
    let (mut plain_s, mut plain_q, mut traced_s, mut traced_q) = (0.0, 0usize, 0.0, 0usize);
    let phase = closed_loop(args.seconds, request_threads(spec, threads), |i| {
        let plain = i.is_none_or(|i| (i / per_block).is_multiple_of(2));
        let t = Instant::now();
        let out: Vec<(usize, Vec<usize>)> = if plain {
            request(spec, &engine, queries, &mut next)
                .into_iter()
                .map(|(q, r)| (q, r.distances()))
                .collect()
        } else {
            let id = i.expect("warm-up requests are untraced") as u64 + 1;
            traced_request(spec, &engine, queries, &mut next, id, &mut tr)
        };
        let s = t.elapsed().as_secs_f64();
        match (i, plain) {
            (None, _) => {}
            (Some(_), true) => (plain_s, plain_q) = (plain_s + s, plain_q + out.len()),
            (Some(_), false) => (traced_s, traced_q) = (traced_s + s, traced_q + out.len()),
        }
        (out, plain)
    });

    let layers = tr.layers();
    let ms = |name: &str| layers.get(name).map_or(0.0, |l| l.total_ns as f64 / 1e6);
    let mut sum = std::collections::BTreeMap::<&str, f64>::new();
    for s in tr.spans() {
        for (k, v) in &s.counts {
            *sum.entry(k).or_default() += v;
        }
    }
    let c = |name: &str| sum.get(name).copied().unwrap_or(0.0);
    let tq = c("queries");
    let per_query = |v: f64| ratio(v, tq);
    let per_round = |v: f64| v / BUILD_ROUNDS as f64;
    let parts =
        ms("core.arena") + ms("distance.pmatrix") + ms("histogram.embed") + ms("qgram.means");
    let busy_ns = c("busy_ns");
    let knn_wall_ns = layers.get("prune.knn").map_or(0.0, |l| l.total_ns as f64);

    println!(
        "  per-layer self time (traced set-up and {} traced requests):",
        layers.get("request").map_or(0, |l| l.spans)
    );
    println!(
        "    {:<26} {:>7} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, l) in &layers {
        println!(
            "    {name:<26} {:>7} {:>12.3} {:>12.3}",
            l.spans,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6
        );
    }
    let trace_path = bench_dir()
        .join("work")
        .join(format!("trace-{}-{}.json", spec.name, args.seed));
    fs::write(&trace_path, tr.to_json())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    println!("  spans written to {}", trace_path.display());

    metrics.extend([
        ("io.load_ms", ms("io.load"), "ms"),
        ("core.arena_ms", per_round(ms("core.arena")), "ms"),
        (
            "distance.pmatrix_ms",
            per_round(ms("distance.pmatrix")),
            "ms",
        ),
        ("distance.pmatrix_edrs", per_round(c("edrs")), "count"),
        (
            "distance.edr_ns_per_cell",
            ratio(ms("distance.edr_sample") * 1e6, cells as f64),
            "ns",
        ),
        ("histogram.embed_ms", per_round(ms("histogram.embed")), "ms"),
        ("qgram.means_ms", per_round(ms("qgram.means")), "ms"),
        ("art.build_ms", ms("art.build"), "ms"),
        (
            "art.nodes_visited",
            per_query(c("art.nodes_visited")),
            "count",
        ),
        (
            "art.postings_scanned",
            per_query(c("art.postings_scanned")),
            "count",
        ),
        (
            "art.touched_frac",
            ratio(c("candidates"), tq * n as f64),
            "fraction",
        ),
        ("prune.build_ms", per_round(ms("prune.build")), "ms"),
        (
            "prune.build_remainder_frac",
            ratio(ms("prune.build") - parts, ms("prune.build")),
            "fraction",
        ),
        (
            "prune.candgen_us",
            per_query(ms("prune.candgen") * 1e3),
            "us",
        ),
        ("prune.candidates", per_query(c("candidates")), "count"),
        (
            "prune.stage.histogram_ns",
            per_query(ms("prune.stage.histogram") * 1e6),
            "ns",
        ),
        (
            "prune.stage.qgram_ns",
            per_query(ms("prune.stage.qgram") * 1e6),
            "ns",
        ),
        (
            "prune.stage.triangle_ns",
            per_query(ms("prune.stage.triangle") * 1e6),
            "ns",
        ),
        (
            "prune.stage.refine_ns",
            per_query(ms("prune.stage.refine") * 1e6),
            "ns",
        ),
        (
            "prune.stage.other_ns",
            per_query(ms("prune.stage.other") * 1e6),
            "ns",
        ),
        (
            "prune.hist_exact_pruned_frac",
            ratio(c("hist_in") - c("hist_out"), c("hist_in")),
            "fraction",
        ),
        (
            "prune.qgram_pruned_frac",
            ratio(c("qgram_in") - c("qgram_out"), c("qgram_in")),
            "fraction",
        ),
        (
            "prune.triangle_pruned_frac",
            ratio(c("tri_in") - c("tri_out"), c("tri_in")),
            "fraction",
        ),
        (
            "prune.refine_useful_frac",
            ratio(c("returned"), c("edr_computed")),
            "fraction",
        ),
        ("prune.edr_computed", per_query(c("edr_computed")), "count"),
        ("prune.dp_cells", per_query(c("dp_cells")), "count"),
        (
            "prune.pruning_power",
            ratio(c("pruned"), tq * n as f64),
            "fraction",
        ),
        (
            "batch.shared_signature_evals",
            ratio(
                c(trajsim_prune::BATCH_SHARED_SIGNATURE_EVALS),
                layers.get("prune.knn").map_or(0.0, |l| l.spans as f64),
            ),
            "count",
        ),
        (
            "parallel.utilization",
            ratio(busy_ns, knn_wall_ns * threads as f64),
            "fraction",
        ),
        (
            "bench.trace_overhead_frac",
            1.0 - ratio(
                ratio(traced_q as f64, traced_s),
                ratio(plain_q as f64, plain_s),
            ),
            "fraction",
        ),
    ]);
    Ok((phase, ds, eps))
}

/// The parts of `CombinedKnn::build`, each repeated through its crate's
/// public functions: two arenas, the reference pmatrix rows, the
/// per-dimension histograms and the q-gram means. Returns the pmatrix.
fn build_parts(tr: &mut Tracer, ds: &Dataset<2>, eps: MatchThreshold) -> Vec<Vec<usize>> {
    let n = ds.len();
    tr.span("core.arena", 0, |_| {
        black_box(TrajectoryArena::from_dataset(ds))
    });
    let (arena, _) = tr.span("core.arena", 0, |_| TrajectoryArena::from_dataset(ds));
    let refs: Vec<usize> = (0..config().max_triangle.min(n)).collect();
    let (pmatrix, span) = tr.span("distance.pmatrix", 0, |_| {
        trajsim_parallel::par_map_with(
            &refs,
            || EdrWorkspace::with_capacity(arena.max_len()),
            |ws, _, &r| {
                let ctx = QueryContext::new(arena.view(r), eps);
                (0..arena.len())
                    .map(|s| ctx.edr(arena.view(s), ws))
                    .collect::<Vec<usize>>()
            },
        )
    });
    tr.count(span, "edrs", (refs.len() * n) as f64);
    tr.span("histogram.embed", 0, |_| {
        black_box(
            ds.iter()
                .map(|(_, t)| {
                    (0..2)
                        .map(|d| TrajectoryHistogram::<2>::build_projected(t, eps, d))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>(),
        )
    });
    tr.span("qgram.means", 0, |_| {
        black_box(
            ds.iter()
                .map(|(_, t)| SortedMeans::build(t, config().qgram_q))
                .collect::<Vec<_>>(),
        )
    });
    pmatrix
}

/// Direct `QueryContext::edr` calls over a fixed sample of pairs;
/// returns the DP cells (m × n summed) they cover.
fn edr_sample(arena: &TrajectoryArena<2>, eps: MatchThreshold) -> u64 {
    let mut ws = EdrWorkspace::with_capacity(arena.max_len());
    let n = arena.len() as u64;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut pick = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n) as usize
    };
    let mut cells = 0u64;
    for _ in 0..EDR_SAMPLE_PAIRS {
        let (r, s) = (pick(), pick());
        let ctx = QueryContext::new(arena.view(r), eps);
        black_box(ctx.edr(arena.view(s), &mut ws));
        cells += (arena.len_of(r) * arena.len_of(s)) as u64;
    }
    cells
}

/// One traced request: candidate generation for each of its queries,
/// then the engine call, with the engine's own per-query stage totals
/// laid end to end inside the call's span (the engine reports stage
/// totals, not their intervals).
fn traced_request(
    spec: &Spec,
    engine: &CombinedKnn<'_, 2>,
    queries: &[Trajectory2],
    next: &mut usize,
    id: u64,
    tr: &mut Tracer,
) -> Vec<(usize, Vec<usize>)> {
    let (out, _) = tr.span("request", id, |tr| {
        let start = *next % queries.len();
        for q in &queries[start..start + spec.batch.unwrap_or(1)] {
            let (cands, span) = tr.span("prune.candgen", id, |_| engine.generate(q));
            tr.count(span, "candidates", cands.candidates.len() as f64);
        }
        let before = counters();
        let cpu_before = thread_cpu_ns();
        let (results, span) = tr.span("prune.knn", id, |_| request(spec, engine, queries, next));
        let cpu_after = thread_cpu_ns();
        let after = counters();
        let mut t0 = tr.spans()[span].start_ns;
        let mut stage = |tr: &mut Tracer, name, ns: u64| {
            tr.reported(span, name, t0, ns);
            t0 += ns;
        };
        let mut sum = trajsim_prune::StageTimings::default();
        for (_, r) in &results {
            sum.accumulate(&r.stats.timings);
        }
        let other = sum.total_ns.saturating_sub(
            sum.histogram.filter_ns + sum.qgram.filter_ns + sum.triangle.filter_ns + sum.refine_ns,
        );
        stage(tr, "prune.stage.histogram", sum.histogram.filter_ns);
        stage(tr, "prune.stage.qgram", sum.qgram.filter_ns);
        stage(tr, "prune.stage.triangle", sum.triangle.filter_ns);
        stage(tr, "prune.stage.refine", sum.refine_ns);
        stage(tr, "prune.stage.other", other);
        let total = |f: fn(&KnnResult) -> f64| results.iter().map(|(_, r)| f(r)).sum::<f64>();
        let counts = [
            ("queries", results.len() as f64),
            ("returned", total(|r| r.neighbors.len() as f64)),
            ("edr_computed", total(|r| r.stats.edr_computed as f64)),
            ("dp_cells", total(|r| r.stats.dp_cells as f64)),
            ("pruned", total(|r| r.stats.pruned() as f64)),
            ("hist_in", sum.histogram.candidates_in as f64),
            ("hist_out", sum.histogram.candidates_out as f64),
            ("qgram_in", sum.qgram.candidates_in as f64),
            ("qgram_out", sum.qgram.candidates_out as f64),
            ("tri_in", sum.triangle.candidates_in as f64),
            ("tri_out", sum.triangle.candidates_out as f64),
        ];
        for (name, v) in counts {
            tr.count(span, name, v);
        }
        for (i, name) in COUNTERS.iter().enumerate() {
            let delta = (after[i] - before[i]) as f64;
            tr.count(
                span,
                if *name == "parallel.worker_busy_ns" {
                    "pool_busy_ns"
                } else {
                    name
                },
                delta,
            );
        }
        // Busy: the pool workers' time plus the calling thread's own
        // time on a CPU (its serial work; it sleeps while a pool runs).
        let caller = cpu_after.saturating_sub(cpu_before) as f64;
        tr.count(span, "busy_ns", (after[3] - before[3]) as f64 + caller);
        results
    });
    out.into_iter().map(|(q, r)| (q, r.distances())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Layout;

    const TINY: Spec = Spec {
        name: "tiny",
        layout: Layout::Uniform,
        n: 48,
        pool: 16,
        batch: None,
        index: false,
    };

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_and_workload_names_are_checked() {
        let ok = args(&[
            "--workload",
            "clustered_art",
            "--seed",
            "4",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (ok.spec.name, ok.seed, ok.seconds, ok.trace),
            ("clustered_art", 4, 2, true)
        );
        let bad = [
            vec![
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            vec![
                "--workload",
                "uniform_knn",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--fast",
                "1",
            ],
            vec![
                "--workload",
                "uniform_knn",
                "--seed",
                "-1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            vec![
                "--workload",
                "uniform_knn",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            vec![
                "--workload",
                "uniform_knn",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            vec!["--workload", "uniform_knn", "--seed", "1", "--seconds", "1"],
            vec![
                "--workload",
                "uniform_knn",
                "--seed",
                "1",
                "--seed",
                "2",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            vec!["--workload"],
        ];
        for list in bad {
            assert!(args(&list).is_err(), "accepted {list:?}");
        }
        let err = args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .err();
        assert!(err.unwrap().contains("unknown workload"));
    }

    /// Runs the closed loop on a tiny workload, adding 1 to the nearest
    /// distance of every answer to pool query `perturb`; returns
    /// (failed, attempted).
    fn tiny_run(perturb: Option<usize>) -> (usize, usize) {
        let (ds, queries) = TINY.inputs(5);
        let eps = MatchThreshold::new(max_std_dev(ds.trajectories()).unwrap() * 0.25).unwrap();
        let engine = build(&TINY, &ds, eps);
        let exact = golden::compute(&ds, eps, &queries, K);
        let mut next = 0;
        let phase = closed_loop(1, 1, |_| {
            let answers = request(&TINY, &engine, &queries, &mut next)
                .into_iter()
                .map(|(q, r)| {
                    let mut d = r.distances();
                    if Some(q) == perturb {
                        d[0] += 1;
                    }
                    (q, d)
                })
                .collect();
            (answers, true)
        });
        (
            golden::mismatches(&exact, &phase.answered),
            phase.answered.len(),
        )
    }

    #[test]
    fn an_injected_wrong_answer_is_counted_as_failed() {
        let (failed, attempted) = tiny_run(None);
        assert_eq!(failed, 0);
        assert!(attempted >= TINY.pool);
        let (failed, attempted) = tiny_run(Some(3));
        // Pool query 3 comes round once per pass over the 16.
        assert!(failed > 0);
        assert!(
            failed.abs_diff(attempted / 16) <= 1,
            "{failed} of {attempted}"
        );
    }
}
