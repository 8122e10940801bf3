//! Host speed: a fixed amount of work, written here rather than taken
//! from the program so that no change to the program can move it.
//!
//! The host this benchmark was designed on changes speed by up to 2.5×
//! over tens of seconds to hours, with no steal time, on both cores at
//! once. Two uses follow:
//!
//! - [`calibrate`] times the work at the start and at the end of every
//!   run (`bench.calib_ms`); when two sets of runs disagree, equal
//!   calibration times point at the code and different ones at the host.
//! - [`chunk`] times a short piece of it, plus a bit-parallel kernel
//!   shaped like the program's refine step, between requests and between
//!   set-ups. The end-to-end times are rescaled by it to [`NOMINAL_MS`]
//!   (see [`at_nominal`]), so that they follow the program and not the
//!   host.

use crate::percentile::Samples;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of the kernel per calibration; about 100 ms on a 2020s core.
const REPS: usize = 24;
/// Sequence length of the kernel's dynamic program.
const LEN: usize = 240;
/// Passes over the table per calibration repetition.
const PASSES: usize = 60;
/// Passes over the table per reference chunk: a sixth of a repetition.
const CHUNK_PASSES: usize = 10;
/// Match thresholds of the reference chunk's bit-parallel scans.
const CHUNK_EPS: [f64; 2] = [0.2, 0.3];
/// Pattern length of the bit-parallel kernel: one machine word.
const WORD: usize = 64;
/// What one reference chunk takes when the host runs at its nominal
/// speed: about its time on a 2.1 GHz Xeon vCPU in a quiet period
/// (calibration ≈ 106 ms).
pub const NOMINAL_MS: f64 = 1.5;

/// Times the fixed work once and returns milliseconds.
pub fn calibrate() -> f64 {
    let (a, b) = sequences();
    let t = Instant::now();
    let mut acc = 0usize;
    for rep in 0..REPS {
        acc = acc.wrapping_add(edit_dp(black_box(&a), black_box(&b[rep % 7..]), PASSES));
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Times one reference chunk and returns milliseconds: a few passes of
/// the dynamic program and a few bit-parallel scans, about equal in time.
pub fn chunk() -> f64 {
    let (a, b) = sequences();
    let (p, t) = points(&a, &b);
    let t0 = Instant::now();
    let mut acc = edit_dp(black_box(&a), black_box(&b), CHUNK_PASSES);
    for eps in CHUNK_EPS {
        for start in (0..=p.len() - WORD).step_by(8) {
            acc += edit_bits(black_box(&p[start..start + WORD]), black_box(&t), eps) as usize;
        }
    }
    black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Times one reference chunk on each of `threads` threads at once and
/// returns their mean in ms, so that parallel work is rescaled by the
/// speed of every core it runs on.
pub fn chunk_on(threads: usize) -> f64 {
    if threads <= 1 {
        return chunk();
    }
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(chunk)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference chunk panicked"))
            .collect()
    });
    times.iter().sum::<f64>() / threads as f64
}

/// The median of `n` reference chunks timed back to back on `threads`
/// threads, in ms.
pub fn chunks(n: usize, threads: usize) -> f64 {
    Samples::new((0..n).map(|_| chunk_on(threads)).collect()).median()
}

/// `time` (any unit) measured while a reference chunk took `chunk_ms`,
/// rescaled to a host on which the chunk takes [`NOMINAL_MS`].
pub fn at_nominal(time: f64, chunk_ms: f64) -> f64 {
    time * NOMINAL_MS / chunk_ms
}

/// Two-dimensional walks made of the two sequences' coordinates.
fn points(a: &[f64], b: &[f64]) -> (Vec<[f64; 2]>, Vec<[f64; 2]>) {
    let p = a.iter().zip(b.iter().rev()).map(|(&x, &y)| [x, y]).collect();
    let t = b.iter().zip(a.iter().cycle().skip(5)).map(|(&x, &y)| [x, y]).collect();
    (p, t)
}

/// Bit-parallel (Myers/Hyyrö) edit distance of a one-word pattern
/// against a text under the ε-match relation on 2-D points: the shape
/// of the program's refine kernel, but none of its code.
fn edit_bits(p: &[[f64; 2]], t: &[[f64; 2]], eps: f64) -> u32 {
    debug_assert_eq!(p.len(), WORD);
    let (mut pv, mut mv, mut score) = (!0u64, 0u64, WORD as u32);
    for y in t {
        let mut eq = 0u64;
        for (i, x) in p.iter().enumerate() {
            let hit = ((x[0] - y[0]).abs() <= eps) & ((x[1] - y[1]).abs() <= eps);
            eq |= u64::from(hit) << i;
        }
        let xv = eq | mv;
        let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        score = score + (ph >> 63) as u32 - (mh >> 63) as u32;
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
    }
    score
}

/// Two fixed pseudo-random walks (xorshift64, fixed seed).
fn sequences() -> (Vec<f64>, Vec<f64>) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut walk = |len: usize| {
        let mut x = 0.0f64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                x += (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                x
            })
            .collect::<Vec<f64>>()
    };
    (walk(LEN), walk(LEN + 7))
}

/// Full edit-distance dynamic program with a 0.25 match threshold,
/// `passes` passes over the table: the same shape of work as the
/// program's refine step, but none of its code.
fn edit_dp(a: &[f64], b: &[f64], passes: usize) -> usize {
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    let mut total = 0;
    for pass in 0..passes {
        let shift = pass as f64 * 1e-3;
        for (i, &x) in a.iter().enumerate() {
            cur[0] = i + 1;
            for (j, &y) in b.iter().enumerate() {
                let sub = usize::from((x - y + shift).abs() > 0.25);
                cur[j + 1] = (prev[j] + sub).min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        total += prev[b.len()];
        for (j, p) in prev.iter_mut().enumerate() {
            *p = j;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescaling_is_linear_in_the_chunk_time() {
        assert_eq!(at_nominal(10.0, NOMINAL_MS), 10.0);
        assert_eq!(at_nominal(10.0, 2.0 * NOMINAL_MS), 5.0);
        assert!(chunks(3, 1) > 0.0 && chunks(1, 2) > 0.0);
    }
}
