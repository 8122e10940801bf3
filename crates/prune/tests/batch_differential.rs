//! Differential tests for the shared-work batched k-NN paths: for every
//! engine with a batched implementation and every filter order,
//! `knn_batch` must return, per query, exactly the distance multiset of
//! per-query `knn` on randomized datasets. Neighbor ids may permute among
//! equal distances (early abandoning drops ties in a schedule-dependent
//! way); distances may not change.
//!
//! The combined engine's per-query `knn` is its batched scan with a batch
//! of one, so the last tests hold that one cascade to the serial
//! sequential scan's neighbours, ids included, in every configuration it
//! can take — six filter orders, the exact
//! max-flow histogram stage on or off, with and without the ART index, on
//! one thread or two, `k` up to and past the database size — and check
//! that it accounts for every id once and times every stage it runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajsim_core::{Dataset, MatchThreshold, Trajectory2};
use trajsim_prune::{
    CombinedConfig, CombinedKnn, HistogramVariant, KnnEngine, KnnResult, Neighbor, PruneOrder,
    SequentialScan,
};

fn eps(v: f64) -> MatchThreshold {
    MatchThreshold::new(v).unwrap()
}

fn random_db(seed: u64, n: usize, max_len: usize) -> Dataset<2> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..=max_len);
            let mut x = rng.gen_range(-3.0..3.0);
            let mut y = rng.gen_range(-3.0..3.0);
            Trajectory2::from_xy(
                &(0..len)
                    .map(|_| {
                        x += rng.gen_range(-0.8..0.8);
                        y += rng.gen_range(-0.8..0.8);
                        (x, y)
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// Batched distances must equal per-query distances, query by query.
fn assert_batch_matches_per_query<E: KnnEngine<2> + Sync>(
    engine: &E,
    queries: &[Trajectory2],
    k: usize,
    label: &str,
) {
    let batched = engine.knn_batch(queries, k);
    assert_eq!(batched.len(), queries.len(), "{label}: result count");
    for (qi, (query, batch_r)) in queries.iter().zip(&batched).enumerate() {
        let solo = engine.knn(query, k);
        assert_eq!(
            batch_r.distances(),
            solo.distances(),
            "{label}: query {qi} diverged (k = {k})"
        );
        assert_eq!(
            batch_r.stats.database_size, solo.stats.database_size,
            "{label}: query {qi} database size"
        );
        assert!(
            batch_r.stats.edr_computed <= batch_r.stats.database_size,
            "{label}: query {qi} computed more EDRs than candidates"
        );
    }
}

/// The thread override is process-global; every test that sets it
/// serializes through this lock.
static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct ResetThreads;
impl Drop for ResetThreads {
    fn drop(&mut self) {
        trajsim_parallel::set_num_threads(0);
    }
}

#[test]
fn seqscan_batched_distances_match_per_query() {
    let _lock = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let db = random_db(11, 70, 20);
    let queries: Vec<Trajectory2> = random_db(99, 9, 20).trajectories().to_vec();
    let e = eps(0.6);
    for threads in [1, 4] {
        trajsim_parallel::set_num_threads(threads);
        let _guard = ResetThreads;
        for k in [1, 3, 7] {
            let plain = SequentialScan::new(&db, e);
            assert_batch_matches_per_query(&plain, &queries, k, &format!("plain t={threads}"));
            let ea = SequentialScan::new(&db, e).with_early_abandon();
            assert_batch_matches_per_query(&ea, &queries, k, &format!("EA t={threads}"));
            let ea_par = SequentialScan::new(&db, e)
                .with_early_abandon()
                .with_parallel();
            assert_batch_matches_per_query(&ea_par, &queries, k, &format!("EA+par t={threads}"));
        }
    }
}

#[test]
fn combined_batched_distances_match_per_query_for_every_order() {
    let _lock = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let db = random_db(21, 60, 18);
    let queries: Vec<Trajectory2> = random_db(77, 8, 18).trajectories().to_vec();
    let e = eps(0.6);
    for threads in [1, 4] {
        trajsim_parallel::set_num_threads(threads);
        let _guard = ResetThreads;
        for order in PruneOrder::ALL {
            let config = CombinedConfig {
                order,
                histogram: HistogramVariant::PerDimension,
                qgram_q: 1,
                max_triangle: 16,
                exact_histogram: false,
            };
            let engine = CombinedKnn::build(&db, e, config);
            assert_batch_matches_per_query(&engine, &queries, 5, &format!("{order:?} t={threads}"));
        }
    }
}

#[test]
fn combined_batched_matches_with_grid_histograms_and_varied_k() {
    let _lock = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trajsim_parallel::set_num_threads(4);
    let _guard = ResetThreads;
    let db = random_db(31, 50, 16);
    let queries: Vec<Trajectory2> = random_db(55, 6, 16).trajectories().to_vec();
    let e = eps(0.5);
    let config = CombinedConfig {
        order: PruneOrder::HQN,
        histogram: HistogramVariant::Grid { delta: 1 },
        qgram_q: 2,
        max_triangle: 12,
        exact_histogram: false,
    };
    let engine = CombinedKnn::build(&db, e, config);
    for k in [1, 4, 10, 60] {
        assert_batch_matches_per_query(&engine, &queries, k, "grid");
    }
}

#[test]
fn batched_edge_cases_degrade_gracefully() {
    let db = random_db(41, 12, 10);
    let e = eps(0.5);
    let scan = SequentialScan::new(&db, e).with_early_abandon();
    // Empty batch and singleton batch take the per-query fallback.
    assert!(scan.knn_batch(&[], 3).is_empty());
    let one = vec![db.trajectories()[0].clone()];
    let r = scan.knn_batch(&one, 3);
    assert_eq!(r.len(), 1);
    assert_eq!(r[0].distances(), scan.knn(&one[0], 3).distances());
    // k larger than the database returns everything for every query.
    let queries: Vec<Trajectory2> = random_db(42, 3, 10).trajectories().to_vec();
    for res in scan.knn_batch(&queries, 50) {
        assert_eq!(res.neighbors.len(), db.len());
    }
    let combined = CombinedKnn::build(&db, e, CombinedConfig::default());
    for (res, q) in combined.knn_batch(&queries, 50).iter().zip(&queries) {
        assert_eq!(res.distances(), combined.knn(q, 50).distances());
    }
}

/// Batch accounting: accumulating the per-query stats of one batch must
/// reproduce the batch totals exactly once — amortized wall-time shares
/// sum back to the batch measurement, dp_cells and candidate flow are
/// exact sums, and `database_size` adds up to `N × batch size`.
#[test]
fn batched_stats_amortize_without_double_counting() {
    let _lock = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trajsim_parallel::set_num_threads(2);
    let _guard = ResetThreads;
    let db = random_db(61, 40, 14);
    let queries: Vec<Trajectory2> = random_db(62, 5, 14).trajectories().to_vec();
    let e = eps(0.6);
    let engine = CombinedKnn::build(&db, e, CombinedConfig::default());
    let results = engine.knn_batch(&queries, 4);
    let mut acc = trajsim_prune::QueryStats::default();
    for r in &results {
        acc.accumulate(&r.stats);
    }
    assert_eq!(acc.database_size, db.len() * queries.len());
    assert!(acc.edr_computed <= acc.database_size);
    // Amortized shares differ by at most one nanosecond per query.
    let totals: Vec<u64> = results.iter().map(|r| r.stats.timings.total_ns).collect();
    let (lo, hi) = (*totals.iter().min().unwrap(), *totals.iter().max().unwrap());
    assert!(hi - lo <= 1, "amortized totals uneven: {totals:?}");
    assert!(acc.timings.total_ns > 0);
    let setups: Vec<u64> = results.iter().map(|r| r.stats.timings.setup_ns).collect();
    let (slo, shi) = (*setups.iter().min().unwrap(), *setups.iter().max().unwrap());
    assert!(shi - slo <= 1, "amortized setups uneven: {setups:?}");
}

/// Queries near the data, a database member, and one far from all of it
/// (the index settles almost everything for that one without a refine).
fn queries(db: &Dataset<2>) -> Vec<Trajectory2> {
    let mut qs: Vec<Trajectory2> = random_db(901, 3, 16).trajectories().to_vec();
    qs.push(db.trajectories()[7].clone());
    qs.push(Trajectory2::from_xy(&[(500.0, 500.0), (501.0, 500.5)]));
    qs
}

/// Every id is either pruned or refined, exactly once.
fn assert_accounted(r: &KnnResult, label: &str) {
    assert_eq!(
        r.stats.pruned() + r.stats.edr_computed,
        r.stats.database_size,
        "{label}: pruned + refined must cover the database"
    );
}

#[test]
fn per_query_knn_matches_sequential_scan_in_every_configuration() {
    let _lock = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let db = random_db(3, 48, 16);
    let qs = queries(&db);
    let e = eps(0.6);
    let scan = SequentialScan::new(&db, e);
    let ks = [1, 5, db.len(), db.len() + 7];
    // The serial scan's neighbours, ids included: the cascade ranks ties
    // by id, so it must return exactly these.
    let truth: Vec<Vec<Vec<Neighbor>>> = qs
        .iter()
        .map(|q| ks.iter().map(|&k| scan.knn(q, k).neighbors).collect())
        .collect();
    for threads in [1, 2] {
        trajsim_parallel::set_num_threads(threads);
        let _guard = ResetThreads;
        for (oi, order) in PruneOrder::ALL.into_iter().enumerate() {
            for exact_histogram in [false, true] {
                let config = CombinedConfig {
                    order,
                    histogram: if oi % 2 == 0 {
                        HistogramVariant::PerDimension
                    } else {
                        HistogramVariant::Grid { delta: 1 }
                    },
                    qgram_q: 1 + oi % 2,
                    max_triangle: 12,
                    exact_histogram,
                };
                for indexed in [false, true] {
                    let engine = CombinedKnn::build(&db, e, config);
                    let engine = if indexed { engine.with_index() } else { engine };
                    for (ki, &k) in ks.iter().enumerate() {
                        let batched = engine.knn_batch(&qs, k);
                        for (qi, q) in qs.iter().enumerate() {
                            let label = format!(
                                "{} exact={exact_histogram} indexed={indexed} \
                                 t={threads} k={k} query {qi}",
                                engine.name()
                            );
                            let r = engine.knn(q, k);
                            assert_eq!(r.neighbors, truth[qi][ki], "{label}: per-query");
                            assert_eq!(batched[qi].neighbors, truth[qi][ki], "{label}: batched");
                            assert_accounted(&r, &label);
                            assert_accounted(&batched[qi], &label);
                        }
                    }
                }
            }
        }
    }
}

/// The exact max-flow stage only runs when configured, and the index
/// never refines an id it settled exactly.
#[test]
fn exact_histogram_stage_is_opt_in() {
    let db = random_db(5, 60, 16);
    let q = random_db(6, 1, 16).trajectories()[0].clone();
    let e = eps(0.6);
    let run = |exact_histogram: bool| {
        let config = CombinedConfig {
            max_triangle: 16,
            exact_histogram,
            ..CombinedConfig::default()
        };
        let engine = CombinedKnn::build(&db, e, config);
        trajsim_parallel::run_serial(|| engine.knn(&q, 3)).stats
    };
    let off = run(false);
    assert_eq!(off.timings.histogram.candidates_in, 0);
    let on = run(true);
    assert!(on.timings.histogram.candidates_in > 0);
    assert!(on.timings.histogram.filter_ns > 0);
    // A sound extra filter never refines more.
    assert!(on.edr_computed <= off.edr_computed);
    assert!(!CombinedConfig::default().exact_histogram);
}

/// Per-query stage timing: the q-gram and triangle stages clock the
/// candidates they see, so `explain` on a per-query run reports nonzero
/// time wherever a stage had candidates.
#[test]
fn per_query_cascade_times_every_stage_it_runs() {
    let db = random_db(8, 120, 18);
    let e = eps(0.5);
    let config = CombinedConfig {
        max_triangle: 40,
        ..CombinedConfig::default()
    };
    let engine = CombinedKnn::build(&db, e, config);
    let mut acc = trajsim_prune::QueryStats::default();
    for q in random_db(9, 6, 18).trajectories() {
        acc.accumulate(&engine.knn(q, 3).stats);
    }
    let t = acc.timings;
    assert!(t.qgram.candidates_in > 0, "no q-gram candidates: {t:?}");
    assert!(t.qgram.filter_ns > 0, "q-gram stage untimed: {t:?}");
    assert!(
        t.triangle.candidates_in > 0,
        "no triangle candidates: {t:?}"
    );
    assert!(t.triangle.filter_ns > 0, "triangle stage untimed: {t:?}");
    assert!(t.histogram.filter_ns > 0, "quick bounds untimed: {t:?}");
    assert!(t.refine_ns > 0);
}
