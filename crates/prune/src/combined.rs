//! Combining the three pruning methods (§4.4, Figures 11–13).

use crate::batch::{amortize, finish_batch, merge_partials, next_batch_id};
use crate::candidates::{Candidate, CandidateBatch, CandidateSource};
use crate::histogram_knn::HistogramVariant;
use crate::result::{
    elapsed_ns, finish_query, KnnEngine, KnnResult, Neighbor, QueryStats, ResultSet, StageStats,
};
use std::sync::Mutex;
use std::time::Instant;
use trajsim_art::{ArtScratch, HistCandidate, HistogramArtIndex, QgramArtIndex, QuerySignature};
use trajsim_core::{Dataset, MatchThreshold, Trajectory, TrajectoryArena};
use trajsim_distance::{BatchContext, EdrWorkspace, QueryContext};
use trajsim_histogram::{
    histogram_distance, histogram_distance_quick, histogram_distance_quick_blurred,
    BlurredHistogram, TrajectoryHistogram,
};
use trajsim_qgram::{passes_count_filter, SortedMeans};

/// One of the three filters, used to spell an application order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Filter {
    /// Trajectory-histogram lower bound (§4.3).
    Histogram,
    /// Mean-value q-gram count filter (§4.1), merge-join variant.
    Qgram,
    /// Near triangle inequality (§4.2).
    NearTriangle,
}

/// The application order of the three orthogonal filters. The paper tests
/// all six (Figure 11); `Hqn` — histogram, then q-grams, then near
/// triangle — is the winner, "applying a pruning method with more pruning
/// power and less expensive computation cost first".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::upper_case_acronyms)]
pub enum PruneOrder {
    /// histogram → q-gram → near-triangle (the paper's 2HPN / 1HPN).
    HQN,
    /// histogram → near-triangle → q-gram.
    HNQ,
    /// q-gram → histogram → near-triangle.
    QHN,
    /// q-gram → near-triangle → histogram.
    QNH,
    /// near-triangle → histogram → q-gram.
    NHQ,
    /// near-triangle → q-gram → histogram.
    NQH,
}

impl PruneOrder {
    /// All six orders, for the Figure 11 sweep.
    pub const ALL: [PruneOrder; 6] = [
        PruneOrder::HQN,
        PruneOrder::HNQ,
        PruneOrder::QHN,
        PruneOrder::QNH,
        PruneOrder::NHQ,
        PruneOrder::NQH,
    ];

    /// The filters in application order.
    pub fn filters(self) -> [Filter; 3] {
        use Filter::*;
        match self {
            PruneOrder::HQN => [Histogram, Qgram, NearTriangle],
            PruneOrder::HNQ => [Histogram, NearTriangle, Qgram],
            PruneOrder::QHN => [Qgram, Histogram, NearTriangle],
            PruneOrder::QNH => [Qgram, NearTriangle, Histogram],
            PruneOrder::NHQ => [NearTriangle, Histogram, Qgram],
            PruneOrder::NQH => [NearTriangle, Qgram, Histogram],
        }
    }

    /// The paper's label style: e.g. `2HPN` for histogram → q-gram →
    /// near-triangle with 2-d histograms.
    pub fn label(self, histogram: HistogramVariant) -> String {
        let h = match histogram {
            HistogramVariant::Grid { .. } => "2H",
            HistogramVariant::PerDimension => "1H",
        };
        let spell: String = self
            .filters()
            .iter()
            .map(|f| match f {
                Filter::Histogram => h.to_string(),
                Filter::Qgram => "P".to_string(),
                Filter::NearTriangle => "N".to_string(),
            })
            .collect();
        spell
    }
}

/// Configuration of the combined engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombinedConfig {
    /// Filter application order.
    pub order: PruneOrder,
    /// Histogram embedding (2-d grid or per-dimension 1-d).
    pub histogram: HistogramVariant,
    /// Q-gram size for the merge-join count filter (the paper settles on
    /// q = 1 with PS2 from the Figure 7–8 study).
    pub qgram_q: usize,
    /// Reference-pool size for near-triangle pruning (the paper uses 400).
    pub max_triangle: usize,
    /// Runs the exact max-flow histogram distance (`CompHisDist`, §4.3)
    /// as the histogram filter's per-candidate stage. Off by default:
    /// the linear quick bound already orders and prunes the scan, and
    /// the exact bound costs about as much as an early-abandoned refine
    /// while pruning well under 1% more on walk data. The Figure 11–13
    /// harnesses switch it on so the paper's filter credit shows.
    pub exact_histogram: bool,
}

impl Default for CombinedConfig {
    /// The paper's best setting: histogram first (1-d histograms — the
    /// overall winner of Figures 12–13), then merge-join q-grams of size
    /// 1, then near-triangle with 400 references; the histogram stage is
    /// the quick bound alone.
    fn default() -> Self {
        CombinedConfig {
            order: PruneOrder::HQN,
            histogram: HistogramVariant::PerDimension,
            qgram_q: 1,
            max_triangle: 400,
            exact_histogram: false,
        }
    }
}

#[derive(Debug)]
enum Hists<const D: usize> {
    Grid(Vec<TrajectoryHistogram<D>>),
    PerDim(Vec<Vec<TrajectoryHistogram<1>>>),
}

enum QueryHists<const D: usize> {
    Grid(TrajectoryHistogram<D>),
    PerDim(Vec<TrajectoryHistogram<1>>),
}

/// Precomputed neighbourhood sums of one side's histogram embedding —
/// the per-signature share of the quick bound, hoisted out of the
/// (query × candidate) loop by the batched scan.
enum Blurs<const D: usize> {
    Grid(BlurredHistogram<D>),
    PerDim(Vec<BlurredHistogram<1>>),
}

impl<const D: usize> Blurs<D> {
    fn of_query(qh: &QueryHists<D>) -> Blurs<D> {
        match qh {
            QueryHists::Grid(h) => Blurs::Grid(BlurredHistogram::build(h)),
            QueryHists::PerDim(hs) => {
                Blurs::PerDim(hs.iter().map(BlurredHistogram::build).collect())
            }
        }
    }
}

/// The prebuilt adaptive-radix signature indexes of one engine
/// ([`CombinedKnn::with_index`]): histogram bins and q-gram means share
/// a probe scratch (mutexed so the engine stays `Sync`; a batch's walks
/// take turns probing).
#[derive(Debug)]
struct ArtIndexes<const D: usize> {
    hist: HistogramArtIndex<D>,
    qgram: QgramArtIndex<D>,
    /// Ids sorted by `(length, id)`: the untouched-candidate walk visits
    /// them in nondecreasing exact distance `max(query len, length)`.
    ids_by_len: Vec<u32>,
    scratch: Mutex<ArtScratch>,
}

impl<const D: usize> ArtIndexes<D> {
    /// Probes both indexes and assembles the candidate batch: touched
    /// trajectories with their histogram lower bounds (exact where the
    /// index proved no ε-match is possible) and q-gram count upper
    /// bounds; everything else is provably at exact max-length distance
    /// and stays out of the batch (`exhaustive: false`).
    fn generate(
        &self,
        query_len: usize,
        qh: &QueryHists<D>,
        q_means: &SortedMeans<D>,
    ) -> CandidateBatch {
        let mut scratch = self.scratch.lock().expect("probe scratch poisoned");
        let mut hist_out: Vec<HistCandidate> = Vec::new();
        let sig = match qh {
            QueryHists::Grid(h) => QuerySignature::Grid(h),
            QueryHists::PerDim(hs) => QuerySignature::PerDim(hs),
        };
        self.hist
            .probe(sig, query_len as u32, &mut scratch, &mut hist_out);
        let mut counts: Vec<(u32, u32)> = Vec::new();
        self.qgram.probe(q_means, &mut scratch, &mut counts);
        let mut candidates: Vec<Candidate> = hist_out
            .iter()
            .map(|c| Candidate {
                id: c.id as usize,
                lower_bound: c.lower_bound as usize,
                exact: c.exact,
                // Touched by the histograms but absent from the q-gram
                // probe: provably zero ε-matching means.
                qgram_count_ub: Some(
                    counts
                        .binary_search_by_key(&c.id, |&(id, _)| id)
                        .map(|i| counts[i].1 as usize)
                        .unwrap_or(0),
                ),
            })
            .collect();
        candidates.sort_unstable_by_key(|c| (c.lower_bound, c.id));
        CandidateBatch {
            candidates,
            exhaustive: false,
        }
    }
}

/// `EDRCombineK-NN` (Figure 6), generalized to any filter order: each
/// candidate runs through the three lower-bound filters in the configured
/// order and the true EDR is computed only if none of them prunes it.
///
/// Because the filters are orthogonal lower bounds, the *set* of pruned
/// candidates is order-independent (the paper confirms "the six
/// combinations achieve the same pruning power"); the order determines
/// which filter takes the credit — and, since the filters have different
/// costs, the wall-clock speedup (Figure 11).
#[derive(Debug)]
pub struct CombinedKnn<'a, const D: usize> {
    dataset: &'a Dataset<D>,
    /// Columnar candidate storage for the refine stage.
    arena: TrajectoryArena<D>,
    eps: MatchThreshold,
    config: CombinedConfig,
    hists: Hists<D>,
    qgrams: Vec<SortedMeans<D>>,
    /// `pmatrix[r][s]` for the reference pool (first `max_triangle` ids).
    pmatrix: Vec<Vec<usize>>,
    /// Signature indexes for sublinear candidate generation, when built.
    index: Option<ArtIndexes<D>>,
}

impl<'a, const D: usize> CombinedKnn<'a, D> {
    /// Builds all three filter structures for `dataset`. The reference
    /// `pmatrix` rows are computed in parallel (one task per reference;
    /// thread count per `trajsim-parallel`; one pre-grown EDR workspace
    /// per worker, reused across its rows) over the same columnar arena
    /// the engine then keeps for its refines.
    ///
    /// # Panics
    ///
    /// As [`CombinedKnn::with_pmatrix`].
    pub fn build(dataset: &'a Dataset<D>, eps: MatchThreshold, config: CombinedConfig) -> Self {
        check_parameters(eps, &config);
        let pool = config.max_triangle.min(dataset.len());
        let arena = TrajectoryArena::from_dataset(dataset);
        let ids: Vec<usize> = (0..pool).collect();
        let pmatrix = trajsim_parallel::par_map_with(
            &ids,
            || EdrWorkspace::with_capacity(arena.max_len()),
            |ws, _, &r| {
                let ctx = QueryContext::new(arena.view(r), eps);
                (0..arena.len())
                    .map(|s| ctx.edr(arena.view(s), ws))
                    .collect()
            },
        );
        Self::assemble(dataset, arena, eps, config, pmatrix)
    }

    /// Builds with an externally computed reference `pmatrix` (see
    /// [`crate::NearTriangleKnn::from_pmatrix`]).
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape is inconsistent, `qgram_q == 0`, or
    /// `eps` is zero.
    pub fn with_pmatrix(
        dataset: &'a Dataset<D>,
        eps: MatchThreshold,
        config: CombinedConfig,
        pmatrix: Vec<Vec<usize>>,
    ) -> Self {
        check_parameters(eps, &config);
        Self::assemble(
            dataset,
            TrajectoryArena::from_dataset(dataset),
            eps,
            config,
            pmatrix,
        )
    }

    /// Builds the histogram and q-gram structures around a packed arena
    /// and a reference `pmatrix`.
    fn assemble(
        dataset: &'a Dataset<D>,
        arena: TrajectoryArena<D>,
        eps: MatchThreshold,
        config: CombinedConfig,
        pmatrix: Vec<Vec<usize>>,
    ) -> Self {
        let pool = config.max_triangle.min(dataset.len());
        assert_eq!(
            pmatrix.len(),
            pool,
            "pmatrix must have one row per reference"
        );
        for row in &pmatrix {
            assert_eq!(row.len(), dataset.len(), "pmatrix row length must be N");
        }
        let hists = match config.histogram {
            HistogramVariant::Grid { delta } => Hists::Grid(
                dataset
                    .iter()
                    .map(|(_, t)| TrajectoryHistogram::build_coarse(t, eps, delta))
                    .collect(),
            ),
            HistogramVariant::PerDimension => Hists::PerDim(
                dataset
                    .iter()
                    .map(|(_, t)| {
                        (0..D)
                            .map(|dim| TrajectoryHistogram::<D>::build_projected(t, eps, dim))
                            .collect()
                    })
                    .collect(),
            ),
        };
        let qgrams = dataset
            .iter()
            .map(|(_, t)| SortedMeans::build(t, config.qgram_q))
            .collect();
        CombinedKnn {
            dataset,
            arena,
            eps,
            config,
            hists,
            qgrams,
            pmatrix,
            index: None,
        }
    }

    /// Builds the adaptive-radix signature indexes over the engine's
    /// existing histogram and q-gram structures, switching candidate
    /// generation from the O(dataset) scan to trie probes. The answers
    /// are identical (the index only over-approximates); candidate
    /// generation cost becomes proportional to what the probes touch.
    pub fn with_index(mut self) -> Self {
        let hist = match &self.hists {
            Hists::Grid(h) => HistogramArtIndex::build_grid(h),
            Hists::PerDim(h) => HistogramArtIndex::build_per_dim(h),
        };
        let qgram = QgramArtIndex::build(&self.qgrams, self.eps);
        let mut ids_by_len: Vec<u32> = (0..self.dataset.len() as u32).collect();
        ids_by_len.sort_unstable_by_key(|&id| (self.arena.len_of(id as usize), id));
        self.index = Some(ArtIndexes {
            hist,
            qgram,
            ids_by_len,
            scratch: ArtScratch::shared(),
        });
        self
    }

    /// True iff [`CombinedKnn::with_index`] built the signature indexes.
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &CombinedConfig {
        &self.config
    }

    /// Candidate generation behind the [`CandidateSource`] seam: the
    /// trie probes when an index is built, otherwise the quick-bound
    /// scan over every id (sorted into the HSR visit order either way).
    fn generate_candidates(
        &self,
        query_len: usize,
        qh: &QueryHists<D>,
        q_means: &SortedMeans<D>,
    ) -> CandidateBatch {
        match &self.index {
            Some(index) => index.generate(query_len, qh, q_means),
            None => {
                let mut candidates: Vec<Candidate> = (0..self.dataset.len())
                    .map(|id| Candidate {
                        id,
                        lower_bound: self.histogram_quick(qh, id),
                        exact: false,
                        qgram_count_ub: None,
                    })
                    .collect();
                candidates.sort_unstable_by_key(|c| (c.lower_bound, c.id));
                CandidateBatch {
                    candidates,
                    exhaustive: true,
                }
            }
        }
    }

    /// The linear quick histogram lower bound (drives the HSR visit order
    /// and its break-out).
    fn histogram_quick(&self, qh: &QueryHists<D>, id: usize) -> usize {
        match (&self.hists, qh) {
            (Hists::Grid(h), QueryHists::Grid(q)) => histogram_distance_quick(q, &h[id]),
            (Hists::PerDim(h), QueryHists::PerDim(q)) => q
                .iter()
                .zip(&h[id])
                .map(|(a, b)| histogram_distance_quick(a, b))
                .max()
                .unwrap_or(0),
            _ => unreachable!("query embedded with the engine's own variant"),
        }
    }

    /// The exact (max-flow) histogram lower bound, run per candidate when
    /// the histogram filter's turn comes.
    fn histogram_exact(&self, qh: &QueryHists<D>, id: usize) -> usize {
        match (&self.hists, qh) {
            (Hists::Grid(h), QueryHists::Grid(q)) => histogram_distance(q, &h[id]),
            (Hists::PerDim(h), QueryHists::PerDim(q)) => q
                .iter()
                .zip(&h[id])
                .map(|(a, b)| histogram_distance(a, b))
                .max()
                .unwrap_or(0),
            _ => unreachable!("query embedded with the engine's own variant"),
        }
    }

    /// The candidate side of the blurred quick bound, built once per
    /// candidate per batch.
    fn blur_candidate(&self, id: usize) -> Blurs<D> {
        match &self.hists {
            Hists::Grid(h) => Blurs::Grid(BlurredHistogram::build(&h[id])),
            Hists::PerDim(h) => Blurs::PerDim(h[id].iter().map(BlurredHistogram::build).collect()),
        }
    }

    /// [`Self::histogram_quick`] evaluated from both sides' precomputed
    /// blurs — identical value, sorted merges instead of binary searches.
    fn histogram_quick_blurred(
        &self,
        qh: &QueryHists<D>,
        qb: &Blurs<D>,
        id: usize,
        cb: &Blurs<D>,
    ) -> usize {
        match (&self.hists, qh, qb, cb) {
            (Hists::Grid(h), QueryHists::Grid(q), Blurs::Grid(qb), Blurs::Grid(cb)) => {
                histogram_distance_quick_blurred(q, qb, &h[id], cb)
            }
            (Hists::PerDim(h), QueryHists::PerDim(q), Blurs::PerDim(qb), Blurs::PerDim(cb)) => q
                .iter()
                .zip(qb)
                .zip(h[id].iter().zip(cb))
                .map(|((a, ab), (b, bb))| histogram_distance_quick_blurred(a, ab, b, bb))
                .max()
                .unwrap_or(0),
            _ => unreachable!("query embedded with the engine's own variant"),
        }
    }

    /// Embeds one query with the engine's configured histogram variant.
    fn query_hists(&self, query: &Trajectory<D>) -> QueryHists<D> {
        match self.config.histogram {
            HistogramVariant::Grid { delta } => {
                QueryHists::Grid(TrajectoryHistogram::build_coarse(query, self.eps, delta))
            }
            HistogramVariant::PerDimension => QueryHists::PerDim(
                (0..D)
                    .map(|dim| TrajectoryHistogram::<D>::build_projected(query, self.eps, dim))
                    .collect(),
            ),
        }
    }

    /// The one k-NN cascade, behind both [`KnnEngine::knn`] (a batch of
    /// one) and [`KnnEngine::knn_batch`]. `batched` stamps the results
    /// with a batch id and records the batch metrics. Scans smaller than
    /// [`POOL_MIN_CELLS`] run every phase on the calling thread.
    ///
    /// Phases:
    ///
    /// 1. **Setup** (serial): per-query histogram embeddings, sorted
    ///    q-gram means, and SoA `QueryContext`s in a [`BatchContext`].
    /// 2. **Lower bounds.** Without an index, a candidate-major `n × nq`
    ///    table of the linear quick histogram bound, filled in parallel
    ///    over candidate chunks. With more than one query each
    ///    candidate's blurred (neighbourhood-sum) signature is built once
    ///    and evaluated against every query with the merge-based
    ///    [`histogram_distance_quick_blurred`]; a single query uses the
    ///    plain quick bound, which needs no blur. With an index nothing
    ///    dense is built: each query probes the tries in phase 3.
    /// 3. **Per-query walk** (parallel over queries, per-worker
    ///    [`EdrWorkspace`]), in ascending lower-bound (HSR) order: full
    ///    refines until the top-k fills, then the configured filter order
    ///    ([`Self::cascade`]) and early-abandoning refines under the k-th
    ///    best. A lower bound above the k-th best settles the query: every
    ///    unvisited candidate's bound is at least as large.
    ///    - Without an index the walk covers the `max(4k, 32)`
    ///      quick-smallest candidates (the *prefix*), so its k-th best is
    ///      near-final before the chunk scan.
    ///    - With an index the walk covers the probe's [`CandidateBatch`]:
    ///      touched ids in lower-bound order, where ids the probe proved
    ///      `exact` are offered without a refine, then the untouched ids
    ///      by length, whose EDR is exactly `max(query len, length)`. No
    ///      untouched id is refined, and the walk always settles its query.
    /// 4. **Chunk scan** (parallel over candidate chunks, only when some
    ///    query is still open), in id order — or, for a single query, in
    ///    the walk's HSR order, so its bound tightens as in a serial HSR
    ///    scan: per candidate the signature refs are loaded once; the inner loop over the open queries prunes with
    ///    the quick table, then the filter cascade, and refines survivors
    ///    under `min(shared, chunk-local)` k-th-best bounds. A chunk's
    ///    top-k starts as a copy of the walk's; the shared bound starts at
    ///    the walk's k-th best and tightens across workers. Triangle references start from the walk's pool and
    ///    grow chunk-locally. On more than one thread the shared bound
    ///    tightens in a timing-dependent order, so pruning counts (never
    ///    answers) can vary between runs; on one thread they are fixed.
    /// 5. **Merge**: per query, the walk's and the chunks' partial top-k
    ///    lists merge by `(dist, id)`, dropping the copies of the walk's
    ///    entries.
    ///
    /// Every filter is a sound lower bound that prunes only above the k-th
    /// best, early abandoning only drops candidates that provably cannot
    /// enter the top-k, and every top-k ranks ties by id — so the result
    /// is the `k` smallest `(dist, id)` pairs, the serial sequential
    /// scan's neighbours exactly, whatever the visit order, index or
    /// thread count.
    fn scan(&self, queries: &[Trajectory<D>], k: usize, batched: bool) -> Vec<KnnResult> {
        let query_points: usize = queries.iter().map(Trajectory::len).sum();
        let full_scan_cells =
            (self.arena.total_points() as u64).saturating_mul(query_points as u64);
        if full_scan_cells < POOL_MIN_CELLS {
            // Spawning the pool would cost more than the scan it splits.
            return trajsim_parallel::run_serial(|| self.scan_phases(queries, k, batched));
        }
        self.scan_phases(queries, k, batched)
    }

    /// [`Self::scan`]'s phases, on the threads `trajsim-parallel` gives.
    fn scan_phases(&self, queries: &[Trajectory<D>], k: usize, batched: bool) -> Vec<KnnResult> {
        let t_start = Instant::now();
        let nq = queries.len();
        let n = self.dataset.len();
        let inputs: Vec<QueryInput<D>> = queries
            .iter()
            .map(|q| QueryInput {
                hists: self.query_hists(q),
                means: SortedMeans::build(q, self.config.qgram_q),
            })
            .collect();
        let batch = BatchContext::new(queries, self.eps);
        let setup_ns = elapsed_ns(t_start);
        let threads = trajsim_parallel::num_threads().min(n.max(1));
        let chunk_len = n.div_ceil(threads * 4).max(k).max(1);
        let max_pair = self.arena.max_len().max(batch.max_query_len());

        // Phase 2: the candidate-major quick table `quick[id * nq + qi]`.
        let t_quick = Instant::now();
        let quick: Vec<usize> = if self.index.is_some() {
            Vec::new()
        } else {
            let q_blurs: Vec<Blurs<D>> = if nq > 1 {
                inputs.iter().map(|q| Blurs::of_query(&q.hists)).collect()
            } else {
                Vec::new()
            };
            trajsim_parallel::par_chunks(
                n,
                chunk_len,
                || (),
                |(), range| {
                    let mut out = Vec::with_capacity(range.len() * nq);
                    for id in range {
                        if nq == 1 {
                            out.push(self.histogram_quick(&inputs[0].hists, id));
                            continue;
                        }
                        let c_blur = self.blur_candidate(id);
                        for (q, qb) in inputs.iter().zip(&q_blurs) {
                            out.push(self.histogram_quick_blurred(&q.hists, qb, id, &c_blur));
                        }
                    }
                    out
                },
            )
            .concat()
        };
        // A single query visits its candidates in ascending quick-bound
        // (HSR) order, walk and chunk scan alike, so its k-th best
        // tightens as fast as in a serial HSR scan. A batch's chunk scan
        // goes in id order instead: one signature load serves every query.
        let hsr: Option<Vec<usize>> = (self.index.is_none() && nq == 1).then(|| {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_unstable_by_key(|&id| (quick[id], id));
            order
        });
        let quick_ns = elapsed_ns(t_quick);

        // Phase 3: one walk per query.
        let qidx: Vec<usize> = (0..nq).collect();
        let walks: Vec<Walk> = trajsim_parallel::par_map_with(
            &qidx,
            || EdrWorkspace::with_capacity(max_pair),
            |ws, _, &qi| {
                let (q, ctx) = (&inputs[qi], batch.ctx(qi));
                let walk = match &self.index {
                    Some(index) => self.walk_indexed(index, q, ctx, k, ws),
                    None => self.walk_prefix(&quick, hsr.as_deref(), nq, qi, q, ctx, k, ws),
                };
                batch.tighten(qi, walk.rs.best_so_far());
                walk
            },
        );

        // Phase 4: the chunk scan over the queries the walks left open.
        let open: Vec<usize> = (0..nq).filter(|&qi| !walks[qi].done).collect();
        struct ChunkOut {
            partials: Vec<Vec<Neighbor>>,
            counters: Vec<Counters>,
        }
        let chunks: Vec<ChunkOut> = if open.is_empty() {
            Vec::new()
        } else {
            trajsim_parallel::par_chunks(
                n,
                chunk_len,
                || EdrWorkspace::with_capacity(max_pair),
                |ws, range| {
                    // Each chunk's top-k starts from its query's walk, so its
                    // k-th best is that of the walk's candidates and its own.
                    let mut locals: Vec<ResultSet> =
                        open.iter().map(|&qi| walks[qi].rs.clone()).collect();
                    let mut counters = vec![Counters::default(); open.len()];
                    let mut refs: Vec<Vec<(usize, usize)>> =
                        open.iter().map(|&qi| walks[qi].refs.clone()).collect();
                    for pos in range {
                        let id = hsr.as_ref().map_or(pos, |order| order[pos]);
                        for (oi, &qi) in open.iter().enumerate() {
                            let walk = &walks[qi];
                            if walk.visited[id / 64] >> (id % 64) & 1 == 1 {
                                continue; // the walk already handled it
                            }
                            let c = &mut counters[oi];
                            let best = batch.bound(qi).min(locals[oi].best_so_far());
                            if best != usize::MAX && quick[id * nq + qi] > best {
                                c.settled += 1;
                                continue;
                            }
                            let (q, ctx) = (&inputs[qi], batch.ctx(qi));
                            if let Some(d) = self.cascade(q, ctx, id, best, None, &refs[oi], ws, c)
                            {
                                self.add_reference(&mut refs[oi], id, d);
                                locals[oi].offer_ranked(id, d);
                                batch.tighten(qi, locals[oi].best_so_far());
                            }
                        }
                    }
                    ChunkOut {
                        partials: locals.into_iter().map(ResultSet::into_neighbors).collect(),
                        counters,
                    }
                },
            )
        };

        // Phase 5: per-query merge + stats assembly (accounting rules in
        // `crate::batch`).
        let wall_ns = elapsed_ns(t_start);
        let name = self.name();
        let batch_id = batched.then(next_batch_id);
        let results: Vec<KnnResult> = walks
            .into_iter()
            .enumerate()
            .map(|(qi, walk)| {
                let mut stats = QueryStats {
                    database_size: n,
                    ..Default::default()
                };
                stats.timings.setup_ns = amortize(setup_ns, nq, qi);
                stats.timings.histogram.filter_ns = amortize(quick_ns, nq, qi) + walk.candgen_ns;
                walk.c.add_to(&mut stats);
                let mut parts = vec![walk.rs.into_neighbors()];
                if let Ok(oi) = open.binary_search(&qi) {
                    for chunk in &chunks {
                        chunk.counters[oi].add_to(&mut stats);
                        parts.push(chunk.partials[oi].clone());
                    }
                }
                stats.timings.total_ns = amortize(wall_ns, nq, qi);
                let neighbors = merge_partials(k, parts);
                finish_query(&name, queries[qi].len(), k, batch_id, &neighbors, &stats);
                KnnResult { neighbors, stats }
            })
            .collect();
        if batched {
            // Signatures read once for the whole batch: the quick-table
            // pass and the chunk scan. Indexed walks share nothing.
            let passes = if self.index.is_some() {
                0
            } else {
                1 + usize::from(!chunks.is_empty())
            };
            finish_batch(&name, nq, (passes * n) as u64, wall_ns);
        }
        results
    }

    /// Phase 3 without an index: the query's walk over its prefix of
    /// quick-smallest candidates.
    #[allow(clippy::too_many_arguments)]
    fn walk_prefix(
        &self,
        quick: &[usize],
        hsr: Option<&[usize]>,
        nq: usize,
        qi: usize,
        q: &QueryInput<D>,
        ctx: &QueryContext<D>,
        k: usize,
        ws: &mut EdrWorkspace,
    ) -> Walk {
        let t_order = Instant::now();
        let n = self.dataset.len();
        let col = |id: usize| quick[id * nq + qi];
        let prefix_len = n.min(k.saturating_mul(4).max(PREFIX_MIN));
        let order: Vec<usize> = match hsr {
            Some(sorted) => sorted[..prefix_len].to_vec(),
            None => {
                let mut order: Vec<usize> = (0..n).collect();
                if prefix_len < n {
                    order.select_nth_unstable_by_key(prefix_len - 1, |&id| (col(id), id));
                    order.truncate(prefix_len);
                }
                order.sort_unstable_by_key(|&id| (col(id), id));
                order
            }
        };
        let mut w = Walk::new(k, n);
        w.candgen_ns = elapsed_ns(t_order);
        w.done = prefix_len == n;
        for (rank, &id) in order.iter().enumerate() {
            let best = w.rs.best_so_far();
            if best != usize::MAX && col(id) > best {
                // Sorted break-out: the prefix holds the smallest quick
                // bounds, so every unvisited candidate — inside or beyond
                // the prefix — is at least this far away.
                w.c.settled += n - rank;
                w.done = true;
                break;
            }
            w.visited[id / 64] |= 1 << (id % 64);
            if let Some(d) = self.cascade(q, ctx, id, best, None, &w.refs, ws, &mut w.c) {
                self.add_reference(&mut w.refs, id, d);
                w.rs.offer_ranked(id, d);
            }
        }
        w
    }

    /// Phase 3 with an index: the query's walk over the probe's
    /// candidates, then over the untouched ids by length. Always settles
    /// the query.
    fn walk_indexed(
        &self,
        index: &ArtIndexes<D>,
        q: &QueryInput<D>,
        ctx: &QueryContext<D>,
        k: usize,
        ws: &mut EdrWorkspace,
    ) -> Walk {
        let t_probe = Instant::now();
        let generated = index.generate(ctx.len(), &q.hists, &q.means);
        let mut w = Walk::new(k, 0);
        w.candgen_ns = elapsed_ns(t_probe);
        w.done = true;
        let touched = &generated.candidates;
        for (rank, cand) in touched.iter().enumerate() {
            let best = w.rs.best_so_far();
            if best != usize::MAX && cand.lower_bound > best {
                // Sorted break-out: every remaining lower bound is at
                // least this one.
                w.c.settled += touched.len() - rank;
                break;
            }
            let d = if cand.exact {
                // The index proved `lower_bound` *is* the EDR: no cascade,
                // no refine — offer it outright.
                w.c.settled += 1;
                Some(cand.lower_bound)
            } else {
                let ub = cand.qgram_count_ub;
                self.cascade(q, ctx, cand.id, best, ub, &w.refs, ws, &mut w.c)
            };
            if let Some(d) = d {
                self.add_reference(&mut w.refs, cand.id, d);
                w.rs.offer_ranked(cand.id, d);
            }
        }
        // Trajectories the index never touched share no dilated cell with
        // the query: their EDR is exactly `max(query len, their len)`.
        // Walking them in nondecreasing length gives nondecreasing
        // distance, so the first one past the k-th best settles all the
        // rest. None needs a refine.
        let touched_ids = generated.ids(); // ascending, for the skip test
        let mut remaining = self.dataset.len() - touched_ids.len();
        for &id32 in &index.ids_by_len {
            let id = id32 as usize;
            if touched_ids.binary_search(&id).is_ok() {
                continue;
            }
            let d = ctx.len().max(self.arena.len_of(id));
            let best = w.rs.best_so_far();
            if best != usize::MAX && d > best {
                w.c.settled += remaining;
                break;
            }
            remaining -= 1;
            w.c.settled += 1;
            w.rs.offer_ranked(id, d);
        }
        w
    }

    /// One candidate through the configured filter order, then — if no
    /// filter prunes it — the refine: a full EDR while the top-k is not
    /// yet full (`best == usize::MAX`) or when the candidate can still
    /// join the triangle reference pool (a far reference gives the
    /// strongest triangle bounds, so its distance is worth knowing
    /// exactly), else early-abandoning EDR under `best`. Returns the
    /// exact distance when it is known: after a full refine, or when it
    /// is at most `best`.
    ///
    /// Each stage's candidate flow and time land in `c`; one clock read
    /// per evaluated stage (each stage's stopwatch starts where the
    /// previous one stopped).
    #[allow(clippy::too_many_arguments)]
    fn cascade(
        &self,
        q: &QueryInput<D>,
        ctx: &QueryContext<D>,
        id: usize,
        best: usize,
        qgram_ub: Option<usize>,
        refs: &[(usize, usize)],
        ws: &mut EdrWorkspace,
        c: &mut Counters,
    ) -> Option<usize> {
        let mut t = Instant::now();
        if best != usize::MAX {
            let s_len = self.arena.len_of(id);
            for filter in self.config.order.filters() {
                let (pruned, stage) = match filter {
                    Filter::Histogram if !self.config.exact_histogram => continue,
                    Filter::Histogram => (self.histogram_exact(&q.hists, id) > best, &mut c.hist),
                    Filter::Qgram => {
                        // The index probe's count upper bound replaces
                        // the merge join when present.
                        let v = qgram_ub
                            .unwrap_or_else(|| q.means.match_count(&self.qgrams[id], self.eps));
                        let passes =
                            passes_count_filter(v, ctx.len(), s_len, self.config.qgram_q, best);
                        (!passes, &mut c.qgram)
                    }
                    Filter::NearTriangle => {
                        let pruned = refs.iter().any(|&(r, dqr)| {
                            dqr as i64 - self.pmatrix[r][id] as i64 - s_len as i64 > best as i64
                        });
                        (pruned, &mut c.triangle)
                    }
                };
                let now = Instant::now();
                stage.filter_ns += u64::try_from((now - t).as_nanos()).unwrap_or(u64::MAX);
                t = now;
                stage.candidates_in += 1;
                if pruned {
                    return None;
                }
                stage.candidates_out += 1;
            }
        }
        let view = self.arena.view(id);
        let (d, cells) = if best == usize::MAX || self.wants_reference(refs, id) {
            let (d, cells) = ctx.edr_counted(view, ws);
            (Some(d), cells)
        } else {
            ctx.edr_within_counted(view, best, ws)
        };
        c.refine_ns += elapsed_ns(t);
        c.cells += cells;
        c.edr += 1;
        d
    }

    /// Whether `id`'s exact distance would join the triangle reference
    /// pool: only ids of the pmatrix pool, at most `max_triangle` of them.
    fn wants_reference(&self, refs: &[(usize, usize)], id: usize) -> bool {
        id < self.pmatrix.len() && refs.len() < self.config.max_triangle
    }

    /// Adds an exact distance to a triangle reference pool (see
    /// [`Self::wants_reference`]).
    fn add_reference(&self, refs: &mut Vec<(usize, usize)>, id: usize, d: usize) {
        if self.wants_reference(refs, id) {
            refs.push((id, d));
        }
    }
}

/// Smallest prefix a query walks before the chunk scan (see
/// [`CombinedKnn::scan`]); the prefix is `max(4k, PREFIX_MIN)`.
const PREFIX_MIN: usize = 32;

/// Smallest scan, in the DP cells a full sequential scan of it would fill
/// (query points × database points), that runs on the thread pool. Each
/// pool run costs on the order of 100 µs to spawn and join; below this
/// size the whole scan takes about that long, so it stays on the calling
/// thread.
const POOL_MIN_CELLS: u64 = 1 << 21;

/// The query side of the cascade, built once per query.
struct QueryInput<const D: usize> {
    hists: QueryHists<D>,
    means: SortedMeans<D>,
}

/// Work counters of one walk or one chunk for one query, summed into
/// its [`QueryStats`] at the end. Filter stages count their own prune
/// credit (`candidates_in − candidates_out`); `settled` counts what the
/// lower bounds settled without the cascade — quick-bound prunes,
/// sorted break-outs and exact index settlements — which is histogram
/// credit too.
#[derive(Clone, Copy, Default)]
struct Counters {
    edr: usize,
    cells: u64,
    refine_ns: u64,
    settled: usize,
    hist: StageStats,
    qgram: StageStats,
    triangle: StageStats,
}

impl Counters {
    fn add_to(&self, stats: &mut QueryStats) {
        stats.edr_computed += self.edr;
        stats.dp_cells += self.cells;
        stats.timings.refine_ns += self.refine_ns;
        stats.pruned_by_histogram += self.settled + self.hist.pruned();
        stats.pruned_by_qgram += self.qgram.pruned();
        stats.pruned_by_triangle += self.triangle.pruned();
        stats.timings.histogram.accumulate(&self.hist);
        stats.timings.qgram.accumulate(&self.qgram);
        stats.timings.triangle.accumulate(&self.triangle);
    }
}

/// One query's serial walk: its top-k, its triangle reference pool, and
/// which ids it visited.
struct Walk {
    rs: ResultSet,
    refs: Vec<(usize, usize)>,
    /// Bitmap of the ids the walk handled (empty for indexed walks).
    visited: Vec<u64>,
    /// The walk settled the query; the chunk scan skips it.
    done: bool,
    /// Candidate generation time (index probe, or ordering the prefix),
    /// charged to the histogram stage.
    candgen_ns: u64,
    c: Counters,
}

impl Walk {
    fn new(k: usize, n: usize) -> Walk {
        Walk {
            rs: ResultSet::new(k),
            refs: Vec::new(),
            visited: vec![0; n.div_ceil(64)],
            done: false,
            candgen_ns: 0,
            c: Counters::default(),
        }
    }
}

impl<const D: usize> CandidateSource<D> for CombinedKnn<'_, D> {
    fn generate(&self, query: &Trajectory<D>) -> CandidateBatch {
        let qh = self.query_hists(query);
        let q_means = SortedMeans::build(query, self.config.qgram_q);
        self.generate_candidates(query.len(), &qh, &q_means)
    }

    fn source_name(&self) -> &'static str {
        if self.index.is_some() {
            "art"
        } else {
            "scan"
        }
    }
}

impl<const D: usize> KnnEngine<D> for CombinedKnn<'_, D> {
    /// [`CombinedKnn::scan`] with a batch of one.
    fn knn(&self, query: &Trajectory<D>, k: usize) -> KnnResult {
        self.scan(std::slice::from_ref(query), k, false)
            .pop()
            .expect("one result per query")
    }

    fn name(&self) -> String {
        let label = self.config.order.label(self.config.histogram);
        if self.index.is_some() {
            format!("{label}+art")
        } else {
            label
        }
    }

    fn knn_batch(&self, queries: &[Trajectory<D>], k: usize) -> Vec<KnnResult>
    where
        Self: Sync,
    {
        if queries.len() <= 1 {
            return queries.iter().map(|q| self.knn(q, k)).collect();
        }
        self.scan(queries, k, true)
    }
}

/// The constructors' parameter checks.
fn check_parameters(eps: MatchThreshold, config: &CombinedConfig) {
    assert!(config.qgram_q > 0, "q-gram size must be positive");
    assert!(
        eps.value() > 0.0,
        "histogram pruning needs a positive epsilon"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialScan;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use trajsim_core::Trajectory2;

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

    /// Pinned to one thread: on more, the chunk scan's shared bound
    /// tightens in a timing-dependent order, so pruning counts (not
    /// answers) can differ from run to run and between orders.
    #[test]
    fn all_orders_match_sequential_scan_with_equal_pruning_power() {
        let db = random_db(1, 60, 18);
        let query = random_db(2, 1, 18).trajectories()[0].clone();
        let e = eps(0.6);
        let truth = SequentialScan::new(&db, e).knn(&query, 5);
        for exact_histogram in [false, true] {
            let mut powers = Vec::new();
            for order in PruneOrder::ALL {
                let config = CombinedConfig {
                    order,
                    histogram: HistogramVariant::Grid { delta: 1 },
                    qgram_q: 1,
                    max_triangle: 20,
                    exact_histogram,
                };
                let engine = CombinedKnn::build(&db, e, config);
                let r = trajsim_parallel::run_serial(|| engine.knn(&query, 5));
                assert_eq!(r.distances(), truth.distances(), "{:?} diverged", order);
                powers.push(r.stats.pruning_power());
            }
            // §4.4: "the six combinations achieve the same pruning power".
            for p in &powers {
                assert!((p - powers[0]).abs() < 1e-12, "powers differ: {powers:?}");
            }
        }
    }

    /// Pinned to one thread, as the test above.
    #[test]
    fn per_filter_credit_follows_the_order() {
        let db = random_db(3, 80, 20);
        let query = db.trajectories()[4].clone();
        let e = eps(0.5);
        let mk = |order| {
            let config = CombinedConfig {
                order,
                histogram: HistogramVariant::Grid { delta: 1 },
                qgram_q: 1,
                max_triangle: 20,
                exact_histogram: true,
            };
            let engine = CombinedKnn::build(&db, e, config);
            trajsim_parallel::run_serial(|| engine.knn(&query, 5)).stats
        };
        let hqn = mk(PruneOrder::HQN);
        let qhn = mk(PruneOrder::QHN);
        // The first filter in the order sees every candidate, so its credit
        // under its own ordering is at least its credit under the other.
        assert!(hqn.pruned_by_histogram >= qhn.pruned_by_histogram);
        assert!(qhn.pruned_by_qgram >= hqn.pruned_by_qgram);
        assert_eq!(hqn.pruned(), qhn.pruned());
    }

    #[test]
    fn one_dimensional_histogram_config_works() {
        let db = random_db(5, 40, 15);
        let query = random_db(6, 1, 15).trajectories()[0].clone();
        let e = eps(0.5);
        let config = CombinedConfig {
            histogram: HistogramVariant::PerDimension,
            ..CombinedConfig::default()
        };
        let engine = CombinedKnn::build(&db, e, config);
        assert_eq!(engine.name(), "1HPN");
        let truth = SequentialScan::new(&db, e).knn(&query, 4);
        assert_eq!(engine.knn(&query, 4).distances(), truth.distances());
    }

    #[test]
    fn labels_follow_the_paper() {
        assert_eq!(
            PruneOrder::HQN.label(HistogramVariant::Grid { delta: 1 }),
            "2HPN"
        );
        assert_eq!(
            PruneOrder::NQH.label(HistogramVariant::Grid { delta: 1 }),
            "NP2H"
        );
        assert_eq!(
            PruneOrder::HQN.label(HistogramVariant::PerDimension),
            "1HPN"
        );
    }

    #[test]
    fn indexed_engine_matches_plain_per_query_and_batch() {
        let db = random_db(9, 70, 16);
        let queries: Vec<Trajectory2> = (0..4)
            .map(|i| random_db(40 + i, 1, 16).trajectories()[0].clone())
            .collect();
        let e = eps(0.5);
        for histogram in [
            HistogramVariant::PerDimension,
            HistogramVariant::Grid { delta: 2 },
        ] {
            let config = CombinedConfig {
                histogram,
                max_triangle: 12,
                ..CombinedConfig::default()
            };
            let plain = CombinedKnn::build(&db, e, config);
            let indexed = CombinedKnn::build(&db, e, config).with_index();
            assert!(indexed.has_index() && !plain.has_index());
            assert_eq!(indexed.source_name(), "art");
            for q in &queries {
                assert_eq!(
                    indexed.knn(q, 5).distances(),
                    plain.knn(q, 5).distances(),
                    "per-query divergence under {histogram:?}"
                );
            }
            let batch_plain = plain.knn_batch(&queries, 5);
            let batch_indexed = indexed.knn_batch(&queries, 5);
            for (a, b) in batch_indexed.iter().zip(&batch_plain) {
                assert_eq!(a.distances(), b.distances(), "batch divergence");
            }
        }
    }

    #[test]
    fn indexed_engine_counts_exact_settlements_as_pruned() {
        // A query far from most of the database: the index leaves most
        // ids untouched, settling them at exact max-length distance
        // without any EDR refine.
        let db = random_db(11, 50, 12);
        let query = Trajectory2::from_xy(&[(900.0, 900.0), (901.0, 901.0)]);
        let e = eps(0.5);
        let engine = CombinedKnn::build(&db, e, CombinedConfig::default()).with_index();
        let r = engine.knn(&query, 3);
        let truth = SequentialScan::new(&db, e).knn(&query, 3);
        assert_eq!(r.distances(), truth.distances());
        assert_eq!(
            r.stats.edr_computed, 0,
            "a disjoint query needs no refines at all"
        );
        assert_eq!(r.stats.pruned(), db.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// No false dismissals for every order on random inputs.
        #[test]
        fn no_false_dismissals(
            seed in 0u64..1000,
            k in 1usize..6,
            e in 0.2..1.5f64,
            delta in 1u32..3,
            exact in 0u8..2,
        ) {
            let db = random_db(seed, 25, 14);
            let query = random_db(seed + 77, 1, 14).trajectories()[0].clone();
            let e = eps(e);
            let truth = SequentialScan::new(&db, e).knn(&query, k);
            for order in PruneOrder::ALL {
                let config = CombinedConfig {
                    order,
                    histogram: HistogramVariant::Grid { delta },
                    qgram_q: 2,
                    max_triangle: 8,
                    exact_histogram: exact == 1,
                };
                let engine = CombinedKnn::build(&db, e, config);
                prop_assert_eq!(
                    engine.knn(&query, k).distances(),
                    truth.distances(),
                    "order {:?}", order
                );
            }
        }
    }
}
