//! Tie-aware answer digests and the stored references.
//!
//! Two top-k answers are equivalent when their score multisets are
//! bit-identical and the tuples scored strictly above the k-th (lowest
//! returned) score are the same set; tuples *at* the boundary score only
//! need matching counts, which the score multiset already pins. This is
//! `qsys_bench::answers_equivalent`, folded into a digest so a reference
//! fits in a few bytes per query: a different, equally ranked subset of a
//! tie at the cut does not change the digest.

use qsys::types::{Score, Tuple};
use std::collections::BTreeMap;
use std::fmt;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub results: usize,
    pub scores: u64,
    pub above: u64,
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:016x} {:016x}",
            self.results, self.scores, self.above
        )
    }
}

/// FNV-1a, 64-bit: stable across platforms and releases.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A joined tuple's identity: its `(relation, row)` pairs in relation order.
fn tuple_key(t: &Tuple) -> Vec<(u32, u64)> {
    t.parts()
        .iter()
        .map(|p| (p.rel.index() as u32, p.row_id))
        .collect()
}

pub fn digest_answers(answers: &[(Score, Tuple)]) -> Digest {
    let mut scores: Vec<u64> = answers.iter().map(|(s, _)| s.get().to_bits()).collect();
    scores.sort_unstable();
    let mut h = Fnv::new();
    for s in &scores {
        h.u64(*s);
    }
    let boundary = answers
        .iter()
        .map(|(s, _)| s.get())
        .fold(f64::INFINITY, f64::min);
    let mut above: Vec<(u64, Vec<(u32, u64)>)> = answers
        .iter()
        .filter(|(s, _)| s.get() > boundary)
        .map(|(s, t)| (s.get().to_bits(), tuple_key(t)))
        .collect();
    above.sort();
    let mut a = Fnv::new();
    for (score, key) in &above {
        a.u64(*score);
        a.u64(key.len() as u64);
        for (rel, row) in key {
            a.u64(u64::from(*rel));
            a.u64(*row);
        }
    }
    Digest {
        results: answers.len(),
        scores: h.0,
        above: a.0,
    }
}

/// Reference digests, keyed by `(k, script position)`.
#[derive(Debug, Default)]
pub struct References {
    pub by_k: BTreeMap<usize, Vec<Digest>>,
}

/// The stored references, compiled in so the benchmark needs no file
/// besides its own sources.
const STORED: &str = include_str!("../refs/gus-seed41.txt");

impl References {
    pub fn stored() -> References {
        References::parse(STORED).expect("stored references parse")
    }

    /// Lines `k <k> <pos> <results> <scores> <above>`; `#` starts a comment.
    pub fn parse(text: &str) -> Result<References, String> {
        let mut refs = References::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("refs line {}: `{line}`", n + 1);
            if f.len() != 6 || f[0] != "k" {
                return Err(bad());
            }
            let k: usize = f[1].parse().map_err(|_| bad())?;
            let pos: usize = f[2].parse().map_err(|_| bad())?;
            let d = Digest {
                results: f[3].parse().map_err(|_| bad())?,
                scores: u64::from_str_radix(f[4], 16).map_err(|_| bad())?,
                above: u64::from_str_radix(f[5], 16).map_err(|_| bad())?,
            };
            let list = refs.by_k.entry(k).or_default();
            if list.len() != pos {
                return Err(bad());
            }
            list.push(d);
        }
        Ok(refs)
    }

    pub fn get(&self, k: usize, pos: usize) -> Option<Digest> {
        self.by_k.get(&k).and_then(|l| l.get(pos)).copied()
    }

    pub fn render(&self, header: &str) -> String {
        let mut out = String::from(header);
        for (k, list) in &self.by_k {
            for (pos, d) in list.iter().enumerate() {
                out.push_str(&format!("k {k} {pos} {d}\n"));
            }
        }
        out
    }
}
