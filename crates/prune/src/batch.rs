//! Shared plumbing for batched (shared-work) k-NN execution.
//!
//! Engines that override [`crate::KnnEngine::knn_batch`] with a real
//! shared-scan implementation (the sequential scan and the combined
//! engine) walk the dataset **once per batch**: workers claim contiguous
//! candidate chunks (`trajsim_parallel::par_chunks`), load each
//! candidate's signature — arena block, sorted q-gram means, histogram
//! embedding, pmatrix row — a single time, and run the inner loop over
//! the batch's queries against it. Per-query best-k bounds are merged
//! through `trajsim_distance::BatchContext`'s shared atomics.
//!
//! ## Batch stats accounting
//!
//! Each query of a batch still gets its own [`crate::QueryStats`]:
//! counters (`edr_computed`, `dp_cells`, per-filter candidate flow and
//! prune credit) are exact per query, while the wall-clock timing fields
//! that are *shared work* — setup, the batched filter passes, and the
//! end-to-end total — are **amortized**: each query carries `1/N` of the
//! batch's measurement (remainders spread one nanosecond at a time so
//! nothing is lost). Accumulating all `N` per-query stats therefore
//! reproduces the batch totals exactly once — no double-counted wall
//! time or dp_cells. The combined engine clocks each refine
//! individually, so its per-query `refine_ns` is exact (summed across
//! workers, it may exceed the amortized total, as in the parallel scan);
//! the batched sequential scan's whole traversal *is* refinement, so its
//! worker busy time is amortized like the other shared measurements.

use crate::result::Neighbor;

/// Gauge: number of queries in the most recent batched k-NN call.
pub const BATCH_SIZE: &str = "batch.size";

/// Counter: candidate signatures evaluated once for a whole batch
/// (instead of once per query). Each unit saved `batch.size − 1`
/// re-evaluations over the per-query path.
pub const BATCH_SHARED_SIGNATURE_EVALS: &str = "batch.shared_signature_evals";

/// Counter: batched k-NN calls that took a shared-scan path.
pub const BATCH_RUNS: &str = "batch.runs";

/// Hands out process-unique batch ids, stamped on every flight record of
/// a shared-scan batch so recordings can group the queries one traversal
/// answered together. Starts at 1 — 0 never appears, so a recording's
/// `batch` field is always meaningful when present.
pub(crate) fn next_batch_id() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// `idx`'s amortized share of a batch-level total split over `parts`
/// queries: `total / parts`, with the remainder spread one unit at a time
/// over the first queries so the shares sum back to `total` exactly.
pub(crate) fn amortize(total: u64, parts: usize, idx: usize) -> u64 {
    debug_assert!(idx < parts);
    let parts = parts as u64;
    total / parts + u64::from((idx as u64) < total % parts)
}

/// Merges per-chunk partial top-k lists of one query into its final
/// neighbor list: ascending `(dist, id)`, an id listed by several
/// partials kept once, truncated to `k`. Equal to the serial result
/// because serial tie-breaking is insertion order, which is ascending id.
pub(crate) fn merge_partials<I>(k: usize, partials: I) -> Vec<Neighbor>
where
    I: IntoIterator<Item = Vec<Neighbor>>,
{
    let mut merged: Vec<Neighbor> = partials.into_iter().flatten().collect();
    merged.sort_by_key(|nb| (nb.dist, nb.id));
    merged.dedup();
    merged.truncate(k);
    merged
}

/// Batch epilogue mirroring `finish_query`: records the batch-level
/// shared-work metrics and emits a `knn.batch` debug span.
pub(crate) fn finish_batch(engine: &str, size: usize, shared_signature_evals: u64, wall_ns: u64) {
    let m = trajsim_obs::metrics::global();
    m.counter(BATCH_RUNS).inc();
    m.gauge(BATCH_SIZE).set(size as i64);
    m.counter(BATCH_SHARED_SIGNATURE_EVALS)
        .add(shared_signature_evals);
    if trajsim_obs::enabled(trajsim_obs::Level::Debug) {
        trajsim_obs::emit_span(
            trajsim_obs::Level::Debug,
            "knn.batch",
            wall_ns,
            &[
                ("engine", engine.into()),
                ("size", size.into()),
                ("shared_signature_evals", shared_signature_evals.into()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amortize_shares_sum_back_to_the_total() {
        for (total, parts) in [(0u64, 3usize), (10, 3), (9, 3), (1, 4), (1000, 7)] {
            let sum: u64 = (0..parts).map(|i| amortize(total, parts, i)).sum();
            assert_eq!(sum, total, "total {total} over {parts}");
            // Shares differ by at most one unit.
            let shares: Vec<u64> = (0..parts).map(|i| amortize(total, parts, i)).collect();
            let (lo, hi) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
            assert!(hi - lo <= 1, "uneven shares {shares:?}");
        }
    }

    #[test]
    fn merge_partials_sorts_ties_by_id_and_truncates() {
        let a = vec![Neighbor { id: 5, dist: 2 }, Neighbor { id: 1, dist: 4 }];
        let b = vec![Neighbor { id: 3, dist: 2 }, Neighbor { id: 0, dist: 9 }];
        let got = merge_partials(3, [a, b]);
        assert_eq!(
            got,
            vec![
                Neighbor { id: 3, dist: 2 },
                Neighbor { id: 5, dist: 2 },
                Neighbor { id: 1, dist: 4 },
            ]
        );
        assert!(merge_partials(2, Vec::<Vec<Neighbor>>::new()).is_empty());
    }
}
