//! Exact answers: the neighbour-distance multiset of every pool query,
//! computed with the plain sequential scan and kept in `golden/`.
//!
//! File format (text): a header line
//! `perfbench-golden v1 key=<key> k=<k> fingerprint=<hex>`, then one line
//! per pool query with its k distances in ascending order.

use std::fs;
use std::path::{Path, PathBuf};
use trajsim_core::{Dataset, MatchThreshold, Trajectory2};
use trajsim_prune::{KnnEngine, SequentialScan};

/// Exact answers for one pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Golden {
    pub fingerprint: u64,
    pub k: usize,
    pub answers: Vec<Vec<usize>>,
}

/// Where the answers for `key` live.
pub fn path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.txt"))
}

/// Computes the exact answers with the sequential scan (early
/// abandoning, which stops a DP only once it provably exceeds the k-th
/// best so far, so the distances are exact).
pub fn compute(
    ds: &Dataset<2>,
    eps: MatchThreshold,
    queries: &[Trajectory2],
    k: usize,
) -> Vec<Vec<usize>> {
    let scan = SequentialScan::new(ds, eps)
        .with_early_abandon()
        .with_parallel();
    queries.iter().map(|q| scan.knn(q, k).distances()).collect()
}

/// Reads an answer file; `Ok(None)` if there is none.
pub fn read(path: &Path) -> Result<Option<Golden>, String> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let bad = |what: &str| format!("{}: malformed answer file ({what})", path.display());
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| bad("empty"))?;
    let field = |name: &str| {
        header
            .split_whitespace()
            .find_map(|f| f.strip_prefix(name).and_then(|v| v.strip_prefix('=')))
            .ok_or_else(|| bad(&format!("no {name} in header")))
    };
    if !header.starts_with("perfbench-golden v1 ") {
        return Err(bad("header"));
    }
    let k: usize = field("k")?.parse().map_err(|_| bad("k"))?;
    let fingerprint =
        u64::from_str_radix(field("fingerprint")?, 16).map_err(|_| bad("fingerprint"))?;
    let answers = lines
        .map(|l| {
            l.split_whitespace()
                .map(|d| d.parse::<usize>().map_err(|_| bad("distance")))
                .collect::<Result<Vec<usize>, String>>()
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Some(Golden {
        fingerprint,
        k,
        answers,
    }))
}

/// Writes an answer file.
pub fn write(path: &Path, key: &str, golden: &Golden) -> Result<(), String> {
    let mut text = format!(
        "perfbench-golden v1 key={key} k={} fingerprint={:016x}\n",
        golden.k, golden.fingerprint
    );
    for a in &golden.answers {
        let row: Vec<String> = a.iter().map(usize::to_string).collect();
        text.push_str(&row.join(" "));
        text.push('\n');
    }
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Counts answered queries whose distance multiset differs from the
/// exact one. `answered` holds (pool index, distances) pairs.
pub fn mismatches(golden: &[Vec<usize>], answered: &[(usize, Vec<usize>)]) -> usize {
    answered
        .iter()
        .filter(|(q, dists)| {
            let mut sorted = dists.clone();
            sorted.sort_unstable();
            golden.get(*q) != Some(&sorted)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_files_round_trip_and_mismatches_count_multisets() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join("golden-test");
        let path = path(&dir, "roundtrip");
        let g = Golden {
            fingerprint: 0xdead_beef,
            k: 3,
            answers: vec![vec![1, 2, 2], vec![0, 5, 9]],
        };
        write(&path, "roundtrip", &g).unwrap();
        assert_eq!(read(&path).unwrap(), Some(g.clone()));
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(read(&path).unwrap(), None);
        // Order within an answer does not matter; a changed distance does.
        let answered = vec![(0, vec![2, 1, 2]), (1, vec![0, 5, 9]), (1, vec![0, 5, 8])];
        assert_eq!(mismatches(&g.answers, &answered), 1);
    }
}
