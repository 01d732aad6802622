//! Split-lane (SoA) kernel helpers shared by the dense kernels in `qop` and `qsim`.
//!
//! The statevector stores amplitudes as two parallel `f64` lanes (see
//! [`crate::Statevector`]), and every dense kernel walks them in explicitly chunked
//! 4-wide inner loops with a scalar tail, so the compiler can keep the updates in AVX2
//! registers.  Two ingredients recur across those kernels and live here:
//!
//! * **Parity signs.**  Every Pauli phase in the simulator reduces to
//!   `(−1)^popcount(b & mask)` times a per-kernel complex constant (the `i^k`
//!   contribution of the Y count is index-independent and hoists out of the loop).  A
//!   per-element `popcount` + sign select serializes the inner loop, so [`SignTable`]
//!   factors the sign into `sign(high bits) · table[low 8 bits]`: the high factor is
//!   hoisted per 256-element block and the low factor is a contiguous table load the
//!   vectorizer folds straight into the FMA stream.
//! * **Lane width.**  [`LANES`] (4 × f64 = one 256-bit register) is the chunk width the
//!   kernels unroll to; the dimension of any statevector with ≥2 qubits is a multiple of
//!   it, and 1-qubit registers fall through to the scalar tails.

use crate::complex::Complex64;

/// Lane width of the chunked kernel inner loops (4 × f64 = one AVX2 register).
pub const LANES: usize = 4;

/// Bits covered by a [`SignTable`]'s low table (256 entries, 2 KiB — L1-resident).
pub const SIGN_BLOCK_BITS: usize = 8;

/// Element count of a sign-table block.
pub const SIGN_BLOCK: usize = 1 << SIGN_BLOCK_BITS;

/// `(−1)^popcount(bits)` as a branch-free ±1.0.
#[inline(always)]
pub fn parity_sign(bits: u64) -> f64 {
    1.0 - 2.0 * ((bits.count_ones() & 1) as f64)
}

/// `i^k` as an exact complex constant (components 0.0 / ±1.0) — the index-independent
/// `i^num_y` factor every Pauli phase hoists out of its inner loop.
#[inline]
pub fn i_power(k: u32) -> Complex64 {
    match k & 3 {
        0 => Complex64::new(1.0, 0.0),
        1 => Complex64::new(0.0, 1.0),
        2 => Complex64::new(-1.0, 0.0),
        _ => Complex64::new(0.0, -1.0),
    }
}

/// Factored parity-sign lookup for a fixed mask: `sign(b) = block_sign(b & !255) ·
/// low[b & 255]`, with the low factors precomputed as a contiguous ±1.0 table.
///
/// Kernels hoist [`SignTable::block_sign`] out of each 256-element block and multiply
/// the inner loop by the table — a sequential load the autovectorizer handles, where the
/// original per-element `popcount` + table-select did not.
pub struct SignTable {
    low: [f64; SIGN_BLOCK],
    high_mask: u64,
}

impl SignTable {
    /// Builds the table for `mask`, filling entries only up to `index_bound` (doubling
    /// construction: one sign flip per entry).
    ///
    /// `index_bound` is the exclusive upper bound of the indices the caller will look
    /// up (the kernel's `dim` or half-block size — always a power of two); capping the
    /// fill there keeps table construction proportional to the kernel's own work, so
    /// tiny registers (a 4-qubit VQE inner loop is 16 amplitudes per pass) don't pay a
    /// 256-entry fill per gate.  Entries past the cap stay `1.0` and must not be read.
    pub fn new(mask: u64, index_bound: usize) -> Self {
        let mut low = [1.0f64; SIGN_BLOCK];
        let cap = index_bound.next_power_of_two().min(SIGN_BLOCK);
        let low_mask = mask & (SIGN_BLOCK as u64 - 1);
        let mut filled = 1usize;
        while filled < cap {
            let flip = if low_mask & filled as u64 != 0 {
                -1.0
            } else {
                1.0
            };
            for j in 0..filled {
                low[filled + j] = flip * low[j];
            }
            filled <<= 1;
        }
        SignTable {
            low,
            high_mask: mask & !(SIGN_BLOCK as u64 - 1),
        }
    }

    /// The hoisted per-block factor: `(−1)^popcount(block_start & mask & !255)`.
    #[inline(always)]
    pub fn block_sign(&self, block_start: u64) -> f64 {
        parity_sign(block_start & self.high_mask)
    }

    /// The low-bits factor for an index whose low 8 bits are `j` (`j < 256`).
    #[inline(always)]
    pub fn lane(&self, j: usize) -> f64 {
        self.low[j & (SIGN_BLOCK - 1)]
    }

    /// The full low table (for kernels that slice it against an amplitude block).
    #[inline(always)]
    pub fn low(&self) -> &[f64; SIGN_BLOCK] {
        &self.low
    }

    /// The complete sign of an arbitrary index (scalar-tail helper).
    #[inline(always)]
    pub fn sign(&self, b: u64) -> f64 {
        self.block_sign(b) * self.lane(b as usize & (SIGN_BLOCK - 1))
    }
}

/// The fully filled low table of every mask whose low [`SIGN_BLOCK_BITS`] bits equal
/// `low_mask`: entry `j` is `(−1)^popcount(j & low_mask)`.
///
/// There are only 256 such tables, so they are memoized process-wide (filled on first
/// use, 2 KiB each): plans that are built once and kept — a [`crate::TermBasis`] holds
/// one sign stream per Pauli string — share them instead of each owning a copy.
pub fn low_sign_table(low_mask: u8) -> &'static [f64; SIGN_BLOCK] {
    // Boxed so the static is 256 pointers, not 512 KiB of initialized data.
    static TABLES: [std::sync::OnceLock<Box<[f64; SIGN_BLOCK]>>; SIGN_BLOCK] =
        [const { std::sync::OnceLock::new() }; SIGN_BLOCK];
    TABLES[low_mask as usize]
        .get_or_init(|| Box::new(SignTable::new(low_mask as u64, SIGN_BLOCK).low))
}

/// [`low_sign_table`] and its negation, `[low, −low]`, each memoized the same way.  A
/// kernel that hoists a block sign `hs = ±1.0` reads its multipliers from
/// `tables[(hs < 0) as usize]`: entry `j` is exactly `hs · low[j]` (a product of two
/// ±1.0), so every term it forms is the same bits as with the per-element product.
pub fn signed_low_tables(low_mask: u8) -> [&'static [f64; SIGN_BLOCK]; 2] {
    static NEGATED: [std::sync::OnceLock<Box<[f64; SIGN_BLOCK]>>; SIGN_BLOCK] =
        [const { std::sync::OnceLock::new() }; SIGN_BLOCK];
    let low = low_sign_table(low_mask);
    [
        low,
        NEGATED[low_mask as usize].get_or_init(|| Box::new(low.map(|l| -l))),
    ]
}

/// Dispatches `body!(M)` with `M` the compile-time constant `m & 3`.
///
/// The general Pauli kernels pair lane `off` with lane `off ^ xl`; within an aligned
/// 4-chunk the partner indices are the chunk at `off ^ (xl & !3)` permuted by
/// `m = xl & 3`.  Monomorphizing the inner loop over the four possible `m` values turns
/// that permutation into a constant shuffle instead of four scalar gathers.
#[macro_export]
macro_rules! with_lane_perm {
    ($m:expr, $body:ident) => {
        match $m & 3 {
            0 => $body!(0),
            1 => $body!(1),
            2 => $body!(2),
            _ => $body!(3),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_sign_matches_popcount() {
        for bits in [0u64, 1, 0b11, 0b1011, u64::MAX, 1 << 63] {
            let expected = if bits.count_ones() % 2 == 0 {
                1.0
            } else {
                -1.0
            };
            assert_eq!(parity_sign(bits), expected);
        }
    }

    #[test]
    fn sign_table_factorization_is_exact() {
        for mask in [0u64, 0b1, 0b1010_1100, 0xfff0, 0xdead_beef_dead_beef] {
            let table = SignTable::new(mask, SIGN_BLOCK);
            for b in (0..5000u64).chain([1 << 20, (1 << 20) | 137, u64::MAX - 255]) {
                assert_eq!(
                    table.sign(b),
                    parity_sign(b & mask),
                    "mask {mask:#x}, b {b:#x}"
                );
            }
        }
    }

    #[test]
    fn memoized_low_tables_match_a_fresh_fill() {
        for mask in [0u64, 0b1, 0b1010_1100, 0xff] {
            let fresh = SignTable::new(mask, SIGN_BLOCK);
            assert_eq!(low_sign_table(mask as u8), fresh.low());
            // The negated table holds exactly the block-sign products.
            let [low, negated] = signed_low_tables(mask as u8);
            for (hs, table) in [(1.0f64, low), (-1.0, negated)] {
                for (t, l) in table.iter().zip(fresh.low()) {
                    assert_eq!(t.to_bits(), (hs * l).to_bits());
                }
            }
        }
    }

    #[test]
    fn capped_fill_covers_exactly_the_bounded_indices() {
        // A 16-amplitude register only needs (and only gets) 16 filled entries.
        let mask = 0b1011u64;
        let table = SignTable::new(mask, 16);
        for j in 0..16usize {
            assert_eq!(table.lane(j), parity_sign(j as u64 & mask), "j {j}");
        }
        // Entries past the cap are untouched fill, not signs.
        assert_eq!(table.lane(16), 1.0);
    }

    #[test]
    fn lane_perm_dispatch_monomorphizes() {
        fn perm(m: usize) -> [usize; 4] {
            macro_rules! body {
                ($m:literal) => {
                    [0 ^ $m, 1 ^ $m, 2 ^ $m, 3 ^ $m]
                };
            }
            with_lane_perm!(m, body)
        }
        assert_eq!(perm(0), [0, 1, 2, 3]);
        assert_eq!(perm(1), [1, 0, 3, 2]);
        assert_eq!(perm(2), [2, 3, 0, 1]);
        assert_eq!(perm(3), [3, 2, 1, 0]);
    }
}
