//! # trajsim-parallel
//!
//! Data-parallel primitives for the trajsim workspace, built on
//! `std::thread::scope` — no external runtime. Provides what rayon's
//! `par_iter().map().collect()` would: [`par_map`] over a slice and
//! [`par_for`] over an index range, both with **dynamic chunking** (a
//! shared atomic cursor hands out small index blocks, so uneven work —
//! e.g. early-abandoned EDR computations — balances across threads).
//!
//! The thread count is resolved per call by [`num_threads`]:
//! [`set_num_threads`] override, else the `TRAJSIM_THREADS` environment
//! variable, else `std::thread::available_parallelism`
//! ([`num_threads_with_source`] also reports which of the three won).
//! With one thread (or one item) everything degrades to the serial loop,
//! so callers can use these primitives unconditionally.
//!
//! Calls made from inside a pool worker run serially on that worker:
//! a k-NN query that parallelizes its own scan can itself be mapped over
//! in parallel without spawning `threads²` threads. [`run_serial`] gives
//! callers the same behaviour on demand.
//!
//! Every genuinely parallel pool run feeds the `trajsim-obs` global
//! metrics registry — `parallel.pool_runs`, `parallel.tasks`, summed
//! `parallel.worker_busy_ns` / `parallel.worker_idle_ns`, and a
//! `parallel.worker_tasks` histogram of per-worker task counts (load
//! balance) — and emits a `parallel.pool` debug trace event. The serial
//! fallback of `par_map`/`par_for` records nothing; [`par_chunks`] — the
//! dataset-chunk scheduler the batched k-NN path runs on — records its
//! pool metrics even when it degrades to one thread, so shared-scan
//! busy/idle accounting is always present in metric snapshots.
//!
//! Worker panics propagate to the caller (matching rayon).

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread is a pool worker (or inside [`run_serial`]):
    /// parallel calls it makes take their serial fallback.
    static SERIAL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True on a pool worker or inside [`run_serial`].
fn nested() -> bool {
    SERIAL.with(|s| s.get())
}

/// Runs `f` with every parallel call it makes on the calling thread:
/// inside, [`num_threads`] is 1 and `par_*` take their serial fallback.
/// Pool workers run their tasks this way, so nested parallel calls never
/// oversubscribe the cores; tests use it to pin work to one thread
/// without touching the process-wide override.
pub fn run_serial<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            SERIAL.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SERIAL.with(|s| s.replace(true)));
    f()
}

/// Forces the number of worker threads used by this crate; `0` restores
/// automatic selection.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Where the resolved thread count came from, in resolution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadSource {
    /// A [`set_num_threads`] override is in effect.
    Override,
    /// The `TRAJSIM_THREADS` environment variable.
    Env,
    /// `std::thread::available_parallelism` (or 1 if unavailable).
    Auto,
}

impl ThreadSource {
    /// Stable lowercase label for reports and JSON ("override" / "env" /
    /// "auto").
    pub fn as_str(&self) -> &'static str {
        match self {
            ThreadSource::Override => "override",
            ThreadSource::Env => "env",
            ThreadSource::Auto => "auto",
        }
    }
}

/// The number of worker threads parallel calls will use:
/// [`set_num_threads`] override, else `TRAJSIM_THREADS`, else
/// `available_parallelism` (at least 1) — and 1 on a pool worker or
/// inside [`run_serial`].
pub fn num_threads() -> usize {
    if nested() {
        return 1;
    }
    num_threads_with_source().0
}

/// [`num_threads`] plus which resolution step produced the count — the
/// CLI and bench harness report both so measurements are attributable.
pub fn num_threads_with_source() -> (usize, ThreadSource) {
    let over = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if over > 0 {
        return (over, ThreadSource::Override);
    }
    if let Some(n) = std::env::var("TRAJSIM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return (n, ThreadSource::Env);
    }
    let auto = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    (auto, ThreadSource::Auto)
}

/// Elapsed nanoseconds since `start`, saturating into `u64`.
#[inline]
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Worker epilogue, called on the worker's own thread so sinks that
/// capture thread ids (the profile collector) attribute the record to
/// the right worker: a span-shaped `parallel.worker` debug record with
/// the worker's busy time and task count.
fn record_worker(busy_ns: u64, tasks: u64) {
    if trajsim_obs::enabled(trajsim_obs::Level::Debug) {
        trajsim_obs::emit_span(
            trajsim_obs::Level::Debug,
            "parallel.worker",
            busy_ns,
            &[
                ("tasks", tasks.into()),
                ("thread", trajsim_obs::thread_id().into()),
            ],
        );
    }
}

/// Pool-run epilogue: global metrics plus a `parallel.pool` trace event.
/// `busy_ns` is summed across workers; idle is the pool's wall time the
/// workers did not spend busy (`threads × wall − busy`, saturating).
fn record_pool(tasks: usize, threads: usize, wall_ns: u64, busy_ns: u64, worker_tasks: &[u64]) {
    let m = trajsim_obs::metrics::global();
    m.counter("parallel.pool_runs").inc();
    m.counter("parallel.tasks").add(tasks as u64);
    m.counter("parallel.worker_busy_ns").add(busy_ns);
    let idle_ns = (wall_ns * threads as u64).saturating_sub(busy_ns);
    m.counter("parallel.worker_idle_ns").add(idle_ns);
    let per_worker = m.histogram_with_bounds(
        "parallel.worker_tasks",
        (0..16).map(|i| 1u64 << i).collect(),
    );
    for &t in worker_tasks {
        per_worker.record(t);
    }
    trajsim_obs::event!(
        trajsim_obs::Level::Debug,
        "parallel.pool",
        tasks = tasks,
        threads = threads,
        wall_ns = wall_ns,
        busy_ns = busy_ns,
        idle_ns = idle_ns,
    );
}

/// How many indices a worker claims per grab: small enough to balance
/// uneven work, large enough to keep cursor contention negligible.
fn block_size(n: usize, threads: usize) -> usize {
    (n / (threads * 8)).clamp(1, 1024)
}

/// Applies `f(index, &item)` to every item, in parallel, returning the
/// results in item order. Equivalent to
/// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()`.
///
/// # Panics
///
/// Re-raises a panic from any invocation of `f`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(items, || (), move |(), i, t| f(i, t))
}

/// [`par_map`] with per-worker scratch state: every worker calls `init()`
/// exactly once when it starts and passes the resulting value, mutably, to
/// each `f(&mut scratch, index, &item)` it executes. The serial fallback
/// creates one scratch and reuses it for every item.
///
/// This is how the k-NN engines keep the refine stage allocation-free: the
/// scratch is an `EdrWorkspace` (DP rows + bit-vectors) that warms up on a
/// worker's first item and is reused across the whole batch, however the
/// dynamic chunking distributes the items.
///
/// # Panics
///
/// Re-raises a panic from any invocation of `init` or `f`.
pub fn par_map_with<T, S, R, INIT, F>(items: &[T], init: INIT, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        let mut scratch = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut scratch, i, t))
            .collect();
    }

    let t_pool = Instant::now();
    let cursor = AtomicUsize::new(0);
    let busy_total = AtomicU64::new(0);
    let block = block_size(n, threads);
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    SERIAL.with(|s| s.set(true));
                    let t_worker = Instant::now();
                    let mut scratch = init();
                    let mut out = Vec::new();
                    loop {
                        let start = cursor.fetch_add(block, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for (i, item) in items
                            .iter()
                            .enumerate()
                            .take((start + block).min(n))
                            .skip(start)
                        {
                            out.push((i, f(&mut scratch, i, item)));
                        }
                    }
                    let busy = elapsed_ns(t_worker);
                    busy_total.fetch_add(busy, Ordering::Relaxed);
                    record_worker(busy, out.len() as u64);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    let worker_tasks: Vec<u64> = buckets.iter().map(|b| b.len() as u64).collect();
    record_pool(
        n,
        threads,
        elapsed_ns(t_pool),
        busy_total.load(Ordering::Relaxed),
        &worker_tasks,
    );

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index visited exactly once"))
        .collect()
}

/// Dataset-chunk scheduling: splits `0..n` into contiguous ranges of at
/// most `chunk_len` indices and runs `f(&mut scratch, range)` over them,
/// returning one result per chunk in chunk order. A shared atomic cursor
/// hands out whole chunks, so uneven chunk cost balances dynamically;
/// every worker calls `init()` once for its scratch (an `EdrWorkspace` in
/// the batched k-NN scan).
///
/// This is the scheduling shape for shared-work batched queries: the task
/// unit is a *candidate range* scanned against all live queries, not one
/// query. Unlike [`par_map`], the one-thread/one-chunk fallback still
/// records the pool metrics (`parallel.pool_runs`, `parallel.tasks`,
/// `parallel.worker_busy_ns`/`idle_ns`, `parallel.worker_tasks`), with
/// busy equal to wall — callers report shared-scan worker accounting
/// unconditionally, whatever the machine's core count. A nested call
/// (from a pool worker) records nothing: its time is the enclosing
/// worker's busy time.
///
/// # Panics
///
/// Panics if `chunk_len == 0`; re-raises a panic from `init` or `f`.
pub fn par_chunks<S, R, INIT, F>(n: usize, chunk_len: usize, init: INIT, f: F) -> Vec<R>
where
    R: Send,
    INIT: Fn() -> S + Sync,
    F: Fn(&mut S, std::ops::Range<usize>) -> R + Sync,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    let chunks = n.div_ceil(chunk_len);
    let range_of = |c: usize| (c * chunk_len)..((c + 1) * chunk_len).min(n);
    let threads = num_threads().min(chunks.max(1));
    if threads <= 1 || chunks <= 1 {
        let t_pool = Instant::now();
        let mut scratch = init();
        let out: Vec<R> = (0..chunks).map(|c| f(&mut scratch, range_of(c))).collect();
        // A nested call's time is already the enclosing worker's busy time.
        if !nested() {
            let wall = elapsed_ns(t_pool);
            record_worker(wall, chunks as u64);
            record_pool(chunks, 1, wall, wall, &[chunks as u64]);
        }
        return out;
    }

    let t_pool = Instant::now();
    let cursor = AtomicUsize::new(0);
    let busy_total = AtomicU64::new(0);
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    SERIAL.with(|s| s.set(true));
                    let t_worker = Instant::now();
                    let mut scratch = init();
                    let mut out = Vec::new();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= chunks {
                            break;
                        }
                        out.push((c, f(&mut scratch, range_of(c))));
                    }
                    let busy = elapsed_ns(t_worker);
                    busy_total.fetch_add(busy, Ordering::Relaxed);
                    record_worker(busy, out.len() as u64);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    let worker_tasks: Vec<u64> = buckets.iter().map(|b| b.len() as u64).collect();
    record_pool(
        chunks,
        threads,
        elapsed_ns(t_pool),
        busy_total.load(Ordering::Relaxed),
        &worker_tasks,
    );

    let mut slots: Vec<Option<R>> = (0..chunks).map(|_| None).collect();
    for (c, r) in buckets.into_iter().flatten() {
        slots[c] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every chunk dispensed exactly once"))
        .collect()
}

/// Applies `f(i)` to every `i in 0..n`, in parallel, returning the
/// results in index order — [`par_map`] without a backing slice (e.g.
/// triangular matrix rows of varying length).
///
/// # Panics
///
/// Re-raises a panic from any invocation of `f`.
pub fn par_for_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    par_map(&indices, |_, &i| f(i))
}

/// Runs `f(i)` for every `i in 0..n`, in parallel, with the same dynamic
/// chunking as [`par_map`]. Use when results land in shared state
/// (atomics, pre-split slices) instead of a returned `Vec`.
///
/// # Panics
///
/// Re-raises a panic from any invocation of `f`.
pub fn par_for<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = num_threads().min(n.max(1));
    if threads <= 1 || n <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }

    let t_pool = Instant::now();
    let cursor = AtomicUsize::new(0);
    let busy_total = AtomicU64::new(0);
    let block = block_size(n, threads);
    let worker_tasks: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    SERIAL.with(|s| s.set(true));
                    let t_worker = Instant::now();
                    let mut done = 0u64;
                    loop {
                        let start = cursor.fetch_add(block, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + block).min(n);
                        for i in start..end {
                            f(i);
                        }
                        done += (end - start) as u64;
                    }
                    let busy = elapsed_ns(t_worker);
                    busy_total.fetch_add(busy, Ordering::Relaxed);
                    record_worker(busy, done);
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    record_pool(
        n,
        threads,
        elapsed_ns(t_pool),
        busy_total.load(Ordering::Relaxed),
        &worker_tasks,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_in_order() {
        let items: Vec<u64> = (0..997).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        let parallel = par_map(&items, |_, &x| x * x + 1);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn par_map_passes_indices() {
        let items = vec!["a", "b", "c", "d"];
        let got = par_map(&items, |i, s| format!("{i}{s}"));
        assert_eq!(got, ["0a", "1b", "2c", "3d"]);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(&[] as &[u8], |_, &x| x), Vec::<u8>::new());
        assert_eq!(par_map(&[5u8], |i, &x| (i, x)), vec![(0, 5)]);
    }

    #[test]
    fn par_map_with_initializes_one_scratch_per_worker() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(4);
        let _guard = ResetThreads;
        let inits = AtomicUsize::new(0);
        let items: Vec<u64> = (0..500).collect();
        let got = par_map_with(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u64>::new()
            },
            |scratch, _, &x| {
                scratch.push(x); // scratch persists across this worker's items
                x * 2
            },
        );
        let want: Vec<u64> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(got, want);
        let created = inits.load(Ordering::Relaxed);
        assert!(
            (1..=4).contains(&created),
            "scratch created once per worker, got {created}"
        );
    }

    #[test]
    fn par_map_with_serial_fallback_reuses_one_scratch() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(1);
        let _guard = ResetThreads;
        let inits = AtomicUsize::new(0);
        let items: Vec<u64> = (0..100).collect();
        let got = par_map_with(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |acc, _, &x| {
                *acc += x;
                *acc
            },
        );
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        // Running sum proves the same scratch flowed through every item.
        assert_eq!(got[99], (0..100).sum::<u64>());
    }

    #[test]
    fn par_chunks_returns_chunk_results_in_order() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(4);
        let _guard = ResetThreads;
        let got = par_chunks(23, 5, || (), |(), r| (r.start, r.end));
        assert_eq!(got, vec![(0, 5), (5, 10), (10, 15), (15, 20), (20, 23)]);
        // One chunk or zero items: still well-formed.
        assert_eq!(par_chunks(3, 10, || (), |(), r| r.len()), vec![3]);
        assert_eq!(
            par_chunks(0, 10, || (), |(), r| r.len()),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn par_chunks_covers_every_index_once_with_worker_scratch() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(3);
        let _guard = ResetThreads;
        let inits = AtomicUsize::new(0);
        let hits: Vec<AtomicUsize> = (0..217).map(|_| AtomicUsize::new(0)).collect();
        let sums = par_chunks(
            217,
            7,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |acc, r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                    *acc += 1;
                }
                *acc // running count proves scratch persists per worker
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(sums.len(), 217usize.div_ceil(7));
        let created = inits.load(Ordering::Relaxed);
        assert!(
            (1..=3).contains(&created),
            "one scratch per worker: {created}"
        );
    }

    #[test]
    fn par_chunks_records_pool_metrics_even_in_serial_mode() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(1);
        let _guard = ResetThreads;
        let m = trajsim_obs::metrics::global();
        let runs_before = m.counter("parallel.pool_runs").get();
        let tasks_before = m.counter("parallel.tasks").get();
        let busy_before = m.counter("parallel.worker_busy_ns").get();
        let _ = par_chunks(40, 8, || (), |(), r| r.len());
        assert_eq!(m.counter("parallel.pool_runs").get(), runs_before + 1);
        assert_eq!(m.counter("parallel.tasks").get(), tasks_before + 5);
        assert!(m.counter("parallel.worker_busy_ns").get() > busy_before);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn par_chunks_rejects_zero_chunk_len() {
        let _ = par_chunks(10, 0, || (), |(), r| r.len());
    }

    #[test]
    fn par_for_map_matches_serial() {
        let got = par_for_map(10, |i| vec![i; i]);
        let want: Vec<Vec<usize>> = (0..10).map(|i| vec![i; i]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_for_covers_every_index_once() {
        let n = 1234;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn uneven_work_still_completes() {
        let items: Vec<usize> = (0..64).collect();
        let got = par_map(&items, |_, &x| {
            // Skewed workload: later items cost much more.
            (0..x * x).map(|v| v as u64).sum::<u64>()
        });
        assert_eq!(got.len(), 64);
        assert_eq!(got[2], 1 + 2 + 3);
    }

    #[test]
    fn nested_calls_run_serially_on_the_worker() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(2);
        let _guard = ResetThreads;
        let outer: Vec<u64> = (0..8).collect();
        let got = par_map(&outer, |_, &x| {
            let me = std::thread::current().id();
            assert_eq!(num_threads(), 1, "a worker sees one thread");
            let inner: Vec<u64> = (0..50).collect();
            let threads = par_map(&inner, |_, _| std::thread::current().id());
            let chunk_threads = par_chunks(50, 7, || (), |(), _| std::thread::current().id());
            let hits = AtomicUsize::new(0);
            par_for(50, |_| {
                assert_eq!(std::thread::current().id(), me);
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert!(threads.iter().chain(&chunk_threads).all(|&t| t == me));
            let sums: u64 = par_map(&inner, |_, &y| x * y).iter().sum();
            (sums, hits.load(Ordering::Relaxed))
        });
        let want: Vec<(u64, usize)> = outer
            .iter()
            .map(|&x| ((0..50).map(|y| x * y).sum(), 50))
            .collect();
        assert_eq!(got, want);
        // The worker flag does not leak to the calling thread.
        assert_eq!(num_threads(), 2);
    }

    #[test]
    fn run_serial_pins_calls_to_the_calling_thread() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(4);
        let _guard = ResetThreads;
        let me = std::thread::current().id();
        let items: Vec<u64> = (0..200).collect();
        let got = run_serial(|| {
            assert_eq!(num_threads(), 1);
            par_map(&items, |_, &x| (std::thread::current().id(), x + 1))
        });
        assert!(got.iter().all(|&(t, _)| t == me));
        assert_eq!(got[199].1, 200);
        assert_eq!(num_threads(), 4, "the pin ends with the closure");
    }

    /// Serializes the tests that touch the global thread override.
    static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn worker_panic_propagates() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(2);
        let guard = ResetThreads;
        let items: Vec<usize> = (0..100).collect();
        let _ = par_map(&items, |_, &x| {
            assert!(x != 50, "boom");
            x
        });
        drop(guard);
    }

    #[test]
    fn thread_override_round_trips() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(3);
        let _guard = ResetThreads;
        assert_eq!(num_threads(), 3);
    }

    #[test]
    fn thread_source_tracks_the_override() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(5);
        let _guard = ResetThreads;
        assert_eq!(num_threads_with_source(), (5, ThreadSource::Override));
        assert_eq!(ThreadSource::Override.as_str(), "override");
        set_num_threads(0);
        // Without an override the source is Env or Auto depending on the
        // ambient environment — never Override.
        let (n, source) = num_threads_with_source();
        assert!(n >= 1);
        assert_ne!(source, ThreadSource::Override);
    }

    #[test]
    fn pool_runs_feed_the_global_metrics() {
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(4);
        let _guard = ResetThreads;
        let m = trajsim_obs::metrics::global();
        let runs_before = m.counter("parallel.pool_runs").get();
        let tasks_before = m.counter("parallel.tasks").get();
        let items: Vec<u64> = (0..321).collect();
        let _ = par_map(&items, |_, &x| x + 1);
        assert_eq!(m.counter("parallel.pool_runs").get(), runs_before + 1);
        assert_eq!(m.counter("parallel.tasks").get(), tasks_before + 321);
        assert!(m.counter("parallel.worker_busy_ns").get() > 0);
    }

    #[test]
    fn worker_records_carry_thread_ids() {
        use std::sync::{Arc, Mutex};
        let _lock = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(3);
        let _guard = ResetThreads;

        type WorkerFields = (Option<u64>, Option<u64>, Option<u64>);
        #[derive(Default)]
        struct Cap {
            workers: Mutex<Vec<WorkerFields>>,
        }
        impl trajsim_obs::Sink for Cap {
            fn emit(&self, r: &trajsim_obs::Record<'_>) {
                if r.name != "parallel.worker" {
                    return;
                }
                let field = |key: &str| {
                    r.fields
                        .iter()
                        .find(|(k, _)| *k == key)
                        .map(|(_, v)| match v {
                            trajsim_obs::FieldValue::U64(x) => *x,
                            _ => panic!("{key} should be u64"),
                        })
                };
                self.workers
                    .lock()
                    .unwrap()
                    .push((r.elapsed_ns, field("tasks"), field("thread")));
            }
        }

        let cap = Arc::new(Cap::default());
        trajsim_obs::set_sink(Some(cap.clone() as Arc<dyn trajsim_obs::Sink>));
        trajsim_obs::set_level(trajsim_obs::Level::Debug);
        let items: Vec<u64> = (0..500).collect();
        let _ = par_map(&items, |_, &x| x * 3);
        trajsim_obs::set_level(trajsim_obs::Level::Off);
        trajsim_obs::set_sink(None);

        let workers = cap.workers.lock().unwrap();
        assert!(workers.len() >= 3, "one record per worker, got {workers:?}");
        let mut tasks_sum = 0;
        let mut threads = std::collections::BTreeSet::new();
        for (elapsed, tasks, thread) in workers.iter() {
            assert!(elapsed.is_some(), "worker records are span-shaped");
            tasks_sum += tasks.expect("tasks field");
            threads.insert(thread.expect("thread field"));
        }
        assert_eq!(tasks_sum, 500, "workers account for every task");
        assert!(threads.len() >= 2, "records come from distinct threads");
    }

    /// Restores automatic thread selection even if a test panics.
    struct ResetThreads;

    impl Drop for ResetThreads {
        fn drop(&mut self) {
            set_num_threads(0);
        }
    }
}
