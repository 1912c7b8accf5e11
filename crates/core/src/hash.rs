//! A fast deterministic hasher for simulator-internal `u64` keys.
//!
//! The hot tables of several simulators hash one `u64` per operation: the
//! coherence engine's line addresses (cache probes, line-table lookups),
//! the interpreter's allocation ids, the executor's signal tags and the
//! paging model's page numbers. The standard library's default SipHash
//! is DoS-resistant but can cost more than the rest of such a path
//! combined; these keys are simulator-internal, so that resistance buys
//! nothing here. This hasher finalizes a single `u64` with a
//! Murmur3/SplitMix-style mixer — a few arithmetic ops, full avalanche,
//! deterministic across runs and platforms (hash-map *iteration order*
//! still must never leak into simulation results; the simulators only
//! iterate these maps for invariant checks and flushes through sorted or
//! set-based views). The names say "line" because line addresses were the
//! first keys; nothing here is specific to them.

use std::hash::{BuildHasher, Hasher};

/// Hasher state: the mixed key (line addresses hash one `u64` write).
#[derive(Debug, Clone, Default)]
pub struct LineHasher {
    h: u64,
}

impl Hasher for LineHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.h
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (FNV-1a); the u64 fast path below is the one
        // the line tables actually hit.
        for &b in bytes {
            self.h = (self.h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        // SplitMix64 finalizer: ~4 ops, full avalanche.
        let mut x = v.wrapping_add(self.h).wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.h = x ^ (x >> 31);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`LineHasher`]; unseeded, so maps hash identically
/// across runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineHash;

impl BuildHasher for LineHash {
    type Hasher = LineHasher;

    #[inline]
    fn build_hasher(&self) -> LineHasher {
        LineHasher::default()
    }
}

/// A `HashMap` keyed by line address with the fast hasher.
pub type LineMap<V> = std::collections::HashMap<u64, V, LineHash>;

/// A `HashSet` of `u64` keys with the fast hasher.
pub type LineSet = std::collections::HashSet<u64, LineHash>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_lines_hash_distinctly_and_deterministically() {
        let build = LineHash;
        let hash = |v: u64| {
            let mut h = build.build_hasher();
            h.write_u64(v);
            h.finish()
        };
        let mut seen = std::collections::HashSet::new();
        for line in 0x1000u64..0x3000 {
            assert!(seen.insert(hash(line)), "collision at {line:#x}");
            assert_eq!(hash(line), hash(line));
        }
    }

    #[test]
    fn line_map_behaves_like_a_map() {
        let mut m: LineMap<u32> = LineMap::default();
        for l in 0..1000u64 {
            m.insert(l, (l * 7) as u32);
        }
        for l in 0..1000u64 {
            assert_eq!(m.get(&l), Some(&((l * 7) as u32)));
        }
        assert_eq!(m.remove(&500), Some(3500));
        assert!(!m.contains_key(&500));
    }
}
