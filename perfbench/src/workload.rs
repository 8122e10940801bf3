//! The three workloads and the seeded inputs they run on.

use rand::Rng;
use trajsim_core::{Dataset, Point2, Trajectory2};
use trajsim_data::{
    corrupt, random_walk_from, random_walk_set, seeded_rng, CorruptionConfig, LengthDistribution,
};

/// How a workload lays its walks out in space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// RandU (§5.2): every walk starts at the origin, so each query's
    /// histogram and q-gram signatures overlap most of the database and
    /// the filter cascade and refine do the work.
    Uniform,
    /// Walks start at points scattered over a square, so a query's
    /// signature shares cells with few walks and the index settles most
    /// of the database without touching it.
    Clustered,
}

/// One named workload.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub layout: Layout,
    /// Database size.
    pub n: usize,
    /// Distinct queries; the closed loop cycles through them.
    pub pool: usize,
    /// Queries per `knn_batch` call, or `None` for one `knn` call each.
    pub batch: Option<usize>,
    /// Whether the engine is built `with_index()`.
    pub index: bool,
}

/// Side of the square the clustered layout scatters start points over.
const SPREAD: f64 = 500.0;
/// Length bands the query pool interleaves; the batch size and every
/// pool size are multiples of it.
pub const SPAN: usize = 8;
/// §5.2's RandU lengths.
const LENGTHS: LengthDistribution = LengthDistribution::Uniform { min: 30, max: 256 };

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "uniform_knn",
        layout: Layout::Uniform,
        n: 1000,
        pool: 512,
        batch: None,
        index: false,
    },
    Spec {
        name: "uniform_batch",
        layout: Layout::Uniform,
        n: 1000,
        pool: 512,
        batch: Some(SPAN),
        index: false,
    },
    Spec {
        name: "clustered_art",
        layout: Layout::Clustered,
        n: 1000,
        pool: 1000,
        batch: None,
        index: true,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Result<&'static Spec, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", names.join(", "))
    })
}

impl Spec {
    /// Key of the answer set: workloads that share a layout, size and
    /// query pool share their exact answers.
    pub fn answers_key(&self, seed: u64) -> String {
        let layout = match self.layout {
            Layout::Uniform => "uniform",
            Layout::Clustered => "clustered",
        };
        format!("{layout}-n{}-q{}-seed{seed}", self.n, self.pool)
    }

    /// The database and the query pool for `seed`. Each query is a
    /// corrupted copy (local time shift plus interpolated noise, the
    /// paper's Table 2 model) of a randomly chosen member, so it has a
    /// real near neighbour.
    ///
    /// A query's cost grows with its length, and query latencies spread
    /// evenly from a few ms to 20× that, so a median over freely drawn
    /// members moves by 10% from seed to seed. Members are therefore
    /// drawn one per length stratum (the i-th of `pool` equal slices of
    /// the database sorted by length): a seed changes which walks are
    /// asked for, not the mix of sizes. The pool is ordered so that each
    /// run of [`SPAN`] consecutive queries holds one from each length
    /// band, so a batch, or a partial pass of the closed loop, gets the
    /// same mix too.
    pub fn inputs(&self, seed: u64) -> (Dataset<2>, Vec<Trajectory2>) {
        let ds = match self.layout {
            // Normalized, as `trajsim knn` normalizes what it loads.
            Layout::Uniform => random_walk_set(&mut seeded_rng(seed), self.n, LENGTHS).normalize(),
            // Raw coordinates: normalizing each walk would move every
            // start back to the origin and erase the layout.
            Layout::Clustered => scattered(&mut seeded_rng(seed), self.n),
        };
        let mut rng = seeded_rng(seed ^ 0x5EED_0F0E_E1E5);
        let mut by_len: Vec<usize> = (0..ds.len()).collect();
        by_len.sort_by_key(|&id| (ds.trajectories()[id].len(), id));
        let strata: Vec<usize> = (0..self.pool)
            .map(|i| {
                by_len[rng.gen_range(i * ds.len() / self.pool..(i + 1) * ds.len() / self.pool)]
            })
            .collect();
        let groups = self.pool / SPAN;
        let bands: Vec<Vec<usize>> = strata
            .chunks(groups)
            .map(|band| {
                let mut band = band.to_vec();
                for i in (1..band.len()).rev() {
                    band.swap(i, rng.gen_range(0..=i));
                }
                band
            })
            .collect();
        let cfg = CorruptionConfig::default();
        let queries = (0..groups)
            .flat_map(|g| bands.iter().map(move |band| band[g]))
            .map(|id| corrupt(&mut rng, &ds.trajectories()[id], &cfg))
            .collect();
        (ds, queries)
    }
}

/// `n` walks with RandU lengths whose starts are scattered over the
/// [`SPREAD`] square one per cell of a jittered grid, in shuffled cells.
/// This is `random_walk_set_spread` with stratified starts: independent
/// starts form clumps and gaps that differ from seed to seed, and moved
/// the median query time by 14% (IQR / median over five seeds).
fn scattered(rng: &mut impl Rng, n: usize) -> Dataset<2> {
    let side = (n as f64).sqrt().ceil() as usize;
    let cell = SPREAD / side as f64;
    let mut cells: Vec<usize> = (0..side * side).collect();
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.gen_range(0..=i));
    }
    cells
        .into_iter()
        .take(n)
        .map(|c| {
            let len = LENGTHS.sample(rng);
            let corner = |i: usize| -SPREAD / 2.0 + i as f64 * cell;
            let x = corner(c % side) + rng.gen_range(0.0..cell);
            let y = corner(c / side) + rng.gen_range(0.0..cell);
            random_walk_from(rng, Point2::xy(x, y), len, 1.0)
        })
        .collect()
}

/// FNV-1a over every coordinate bit of `ds` and `queries`: the answer
/// files record it so that answers are never compared across inputs.
pub fn fingerprint(ds: &Dataset<2>, queries: &[Trajectory2]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for t in ds.trajectories().iter().chain(queries) {
        eat(t.len() as u64);
        for p in t.points() {
            eat(p.x().to_bits());
            eat(p.y().to_bits());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_interleave_whole_length_bands() {
        for w in &WORKLOADS {
            assert_eq!(w.pool % SPAN, 0, "{}", w.name);
            assert!(w.pool <= w.n, "{}", w.name);
            assert_eq!(SPAN % w.batch.unwrap_or(1), 0, "{}", w.name);
        }
        let spec = Spec {
            name: "tiny",
            layout: Layout::Uniform,
            n: 64,
            pool: 16,
            batch: None,
            index: false,
        };
        let (ds, queries) = spec.inputs(9);
        assert_eq!((ds.len(), queries.len()), (64, 16));
        // Corruption keeps lengths: each block of SPAN holds one query
        // from each of the SPAN length bands (eight ranks each here).
        let mut lens: Vec<usize> = ds.trajectories().iter().map(|t| t.len()).collect();
        lens.sort_unstable();
        for block in queries.chunks(SPAN) {
            let mut bands: Vec<usize> = block
                .iter()
                .map(|q| lens.partition_point(|&l| l < q.len()) / (64 / SPAN))
                .collect();
            bands.sort_unstable();
            bands.dedup();
            assert!(bands.len() >= SPAN - 2, "block bands {bands:?}");
        }
        assert_eq!(
            fingerprint(&ds, &queries),
            fingerprint(&spec.inputs(9).0, &spec.inputs(9).1)
        );
        assert_ne!(
            fingerprint(&ds, &queries),
            fingerprint(&spec.inputs(10).0, &spec.inputs(10).1)
        );
    }
}
