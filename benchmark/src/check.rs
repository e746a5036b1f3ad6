//! Order-independent digests of result relations, so that a reply of
//! thousands of rows is checked against its expectation in one compare.

use mera_server::Row;

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// What a result multi-set amounts to: distinct rows, total
/// multiplicity, and a multiplicity-weighted sum of row hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Distinct rows.
    pub rows: usize,
    /// Sum of multiplicities.
    pub total: u64,
    /// `Σ multiplicity × hash(values)`, wrapping.
    pub checksum: u64,
}

/// Digest of `(multiplicity, values)` pairs.
pub fn digest_of<V: AsRef<str>>(rows: impl IntoIterator<Item = (u64, Vec<V>)>) -> Digest {
    let mut d = Digest::default();
    for (multiplicity, values) in rows {
        let mut h = Fnv::default();
        for v in &values {
            h.write(v.as_ref().as_bytes());
            h.write(&[0x1f]);
        }
        d.rows += 1;
        d.total += multiplicity;
        d.checksum = d
            .checksum
            .wrapping_add(h.finish().wrapping_mul(multiplicity));
    }
    d
}

/// Digest of rows as the wire delivers them.
pub fn digest(rows: &[Row]) -> Digest {
    digest_of(
        rows.iter()
            .map(|r| (r.multiplicity, r.values.iter().collect())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_and_sees_multiplicity() {
        let a = digest_of([(1, vec!["x", "1"]), (2, vec!["y", "2"])]);
        let b = digest_of([(2, vec!["y", "2"]), (1, vec!["x", "1"])]);
        let c = digest_of([(1, vec!["x", "1"]), (1, vec!["y", "2"])]);
        let d = digest_of([(1, vec!["x1", ""]), (2, vec!["y", "2"])]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!((a.rows, a.total), (2, 3));
    }
}
