//! Small helpers: the seeded generator, order statistics, the answer
//! digest and the process's peak resident set.

use sommelier_engine::Relation;
use sommelier_storage::ColumnData;

/// SplitMix64: a tiny, fully specified generator, so a seed means the
/// same query sequence on every platform and every later version of
/// the workspace's own `rand` stand-in.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Exponentially distributed with the given mean (inversion of a
    /// uniform draw in `(0, 1]` built from the top 53 bits).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        -mean * u.ln()
    }
}

/// The `p`-quantile (nearest rank) of `values`; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median; the mean of the middle two for an even count.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The splitmix64 finalizer: spreads a state or hash over all 64 bits.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the correctness gate compares of an answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Digest {
    /// Order-insensitive row multiset: a hash of the column names, the
    /// row count and the wrapping sum of per-row hashes. Rows of a
    /// multi-chunk answer arrive in completion order, so only the
    /// multiset is stable. The workspace's server traffic bench XORs its
    /// row hashes instead; a sum keeps duplicate rows from cancelling
    /// out (T3 returns every window once per file of its station), and
    /// lets the digests of disjoint answers add up to their union's.
    Rows { cols: u64, rows: u64, sum: u64 },
    /// A single average; `None` when no row qualified.
    Avg(Option<f64>),
}

impl Digest {
    /// The digest of `rel`; `avg` for an answer of one average.
    pub fn of(rel: &Relation, avg: bool) -> Digest {
        let cols = rel.columns();
        if avg && cols.len() == 1 && rel.rows() <= 1 {
            if let ColumnData::Float64(v) = cols[0].1.as_ref() {
                return Digest::Avg(v.first().copied().filter(|x| x.is_finite()));
            }
        }
        let names = format!("{:?}", rel.names());
        let mut sum = 0u64;
        for r in 0..rel.rows() {
            let mut h = 0xcbf2_9ce4_8422_2325;
            for (i, (_, col)) in cols.iter().enumerate() {
                h = fnv1a(h, &[i as u8]);
                h = match col.as_ref() {
                    ColumnData::Int64(v) => fnv1a(fnv1a(h, b"i"), &v[r].to_le_bytes()),
                    ColumnData::Float64(v) => {
                        fnv1a(fnv1a(h, b"f"), &v[r].to_bits().to_le_bytes())
                    }
                    ColumnData::Timestamp(v) => fnv1a(fnv1a(h, b"t"), &v[r].to_le_bytes()),
                    ColumnData::Text(v) => fnv1a(fnv1a(h, b"s"), v.get(r).as_bytes()),
                };
            }
            sum = sum.wrapping_add(mix(h));
        }
        Digest::Rows {
            cols: mix(fnv1a(0xcbf2_9ce4_8422_2325, names.as_bytes())),
            rows: rel.rows() as u64,
            sum,
        }
    }

    /// The digest of the union of two disjoint row sets of the same
    /// columns.
    pub fn union(self, other: Digest) -> Digest {
        match (self, other) {
            (Digest::Rows { cols, rows, sum }, Digest::Rows { rows: r, sum: s, .. }) => {
                Digest::Rows { cols, rows: rows + r, sum: sum.wrapping_add(s) }
            }
            _ => panic!("only row sets have a union"),
        }
    }

    /// Whether an answer matches the reference: row sets exactly,
    /// averages to a relative 1e-9, as the two sum in different orders.
    pub fn matches(&self, reference: &Digest) -> bool {
        match (self, reference) {
            (Digest::Avg(Some(a)), Digest::Avg(Some(b))) => {
                a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
            }
            _ => self == reference,
        }
    }
}

/// Reset this process's peak resident set (`VmHWM`) to its current
/// resident set, so the next reading covers only what follows.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        println!("could not reset the peak resident set: {e}");
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..8).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..8).scan(Rng::new(8), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    fn rel(xs: &[f64], names: &[&str]) -> Relation {
        Relation::new(vec![
            ("v".to_string(), ColumnData::Float64(xs.to_vec())),
            (
                "n".to_string(),
                ColumnData::Text(sommelier_storage::TextColumn::from_strs(
                    names.iter().copied(),
                )),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn row_digest_is_a_multiset_hash() {
        let d = |xs: &[f64], ns: &[&str]| Digest::of(&rel(xs, ns), false);
        assert_eq!(d(&[1.0, 2.0], &["a", "b"]), d(&[2.0, 1.0], &["b", "a"]));
        assert_ne!(d(&[1.0, 2.0], &["a", "b"]), d(&[1.0, 2.0], &["b", "a"]));
        // Duplicate rows count: two copies differ from none.
        assert_ne!(d(&[1.0, 3.0, 3.0], &["a", "c", "c"]), d(&[1.0], &["a"]));
        // Disjoint parts add up to the whole.
        assert_eq!(
            d(&[1.0], &["a"]).union(d(&[2.0, 3.0], &["b", "c"])),
            d(&[3.0, 1.0, 2.0], &["c", "a", "b"])
        );
    }

    #[test]
    fn averages_match_to_rounding() {
        let avg = |xs: &[f64]| {
            Digest::of(
                &Relation::new(vec![("a".to_string(), ColumnData::Float64(xs.to_vec()))])
                    .unwrap(),
                true,
            )
        };
        assert_eq!(avg(&[2.5]), Digest::Avg(Some(2.5)));
        assert_eq!(avg(&[]), Digest::Avg(None));
        assert_eq!(avg(&[f64::NAN]), Digest::Avg(None));
        assert!(avg(&[0.1 + 0.2]).matches(&Digest::Avg(Some(0.3))));
        assert!(!avg(&[0.3001]).matches(&Digest::Avg(Some(0.3))));
        assert!(!avg(&[]).matches(&Digest::Avg(Some(0.3))));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
