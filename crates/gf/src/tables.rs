//! Const-constructed lookup tables for GF(2^8) with polynomial 0x11D.
//!
//! The tables are built at compile time from first principles (repeated
//! carry-less shift-and-reduce), so there are no hand-transcribed constants
//! to get wrong. Tests cross-check the tables against a bitwise reference
//! multiplier.

/// The primitive polynomial x^8 + x^4 + x^3 + x^2 + 1, as used by ISA-L and
/// Jerasure for w = 8.
pub const PRIMITIVE_POLY: u16 = 0x11D;

/// Field order (number of elements).
pub const FIELD_SIZE: usize = 256;

/// Multiplicative group order.
pub const GROUP_ORDER: usize = 255;

/// Carry-less ("Russian peasant") multiplication with reduction by
/// [`PRIMITIVE_POLY`]. This is the ground-truth multiplier; everything else
/// is derived from (and tested against) it.
pub const fn mul_notable(mut a: u8, mut b: u8) -> u8 {
    let mut acc: u8 = 0;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= (PRIMITIVE_POLY & 0xFF) as u8;
        }
        b >>= 1;
    }
    acc
}

const fn build_exp() -> [u8; 512] {
    // exp[i] = g^i for generator g = 2; duplicated to 512 entries so that
    // exp[log a + log b] never needs a modulo reduction.
    let mut t = [0u8; 512];
    let mut x: u8 = 1;
    let mut i = 0;
    while i < 512 {
        t[i] = x;
        x = mul_notable(x, 2);
        i += 1;
    }
    t
}

const fn build_log() -> [u8; 256] {
    // log[0] is unused (0 has no logarithm); we store 0 there and guard at
    // call sites.
    let mut t = [0u8; 256];
    let exp = build_exp();
    let mut i = 0;
    while i < GROUP_ORDER {
        t[exp[i] as usize] = i as u8;
        i += 1;
    }
    t
}

const fn build_inv() -> [u8; 256] {
    let mut t = [0u8; 256];
    let exp = build_exp();
    let log = build_log();
    let mut i = 1;
    while i < 256 {
        t[i] = exp[GROUP_ORDER - log[i] as usize];
        i += 1;
    }
    t
}

/// `EXP[i] = 2^i` in GF(2^8); length 512 so sums of two logs index directly.
pub static EXP: [u8; 512] = build_exp();

/// `LOG[a] = log_2 a` for `a != 0`; `LOG[0]` is 0 and must not be used.
pub static LOG: [u8; 256] = build_log();

/// `INV[a] = a^-1` for `a != 0`; `INV[0]` is 0 and must not be used.
pub static INV: [u8; 256] = build_inv();

/// One coefficient prepared for the data-plane kernels: the split-nibble
/// tables ISA-L feeds to `vpshufb`, and the same multiplication as the bit
/// matrix `vgf2p8affineqb` takes.
///
/// For a constant coefficient `c`, `low[x & 0xF] ^ high[x >> 4]` equals
/// `c * x`. The kernels in [`crate::slice`] and the SSSE3/AVX2 tiers of
/// [`crate::simd`] process a 64-byte line with two table lookups per byte;
/// the AVX-512 + GFNI tier does it with one affine transform per line.
///
/// 16-byte aligned so neither table load of the `pshufb` tiers straddles a
/// cacheline in a `[NibbleTables]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(16))]
pub struct NibbleTables {
    /// `low[v] = c * v` for v in 0..16 (low nibble contribution).
    pub low: [u8; 16],
    /// `high[v] = c * (v << 4)` for v in 0..16 (high nibble contribution).
    pub high: [u8; 16],
    /// Multiplication by `c` as an 8x8 matrix over GF(2), in the operand
    /// layout of `GF2P8AFFINEQB`: byte `7 - i` is the mask of input bits
    /// whose parity is output bit `i`. (`GF2P8MULB` is hard-wired to the
    /// AES polynomial 0x11B; the affine form carries [`PRIMITIVE_POLY`].)
    pub affine: u64,
}

const fn build_coefficient(c: u8) -> NibbleTables {
    let mut low = [0u8; 16];
    let mut high = [0u8; 16];
    let mut v = 0;
    while v < 16 {
        low[v] = mul_notable(c, v as u8);
        high[v] = mul_notable(c, (v as u8) << 4);
        v += 1;
    }
    // Column j of the matrix is c * 2^j; output bit i collects bit i of
    // every column whose input bit is set.
    let mut affine = 0u64;
    let mut j = 0;
    while j < 8 {
        let col = mul_notable(c, 1 << j);
        let mut i = 0;
        while i < 8 {
            affine |= (((col >> i) & 1) as u64) << ((7 - i) * 8 + j);
            i += 1;
        }
        j += 1;
    }
    NibbleTables { low, high, affine }
}

const fn build_coefficients() -> [NibbleTables; FIELD_SIZE] {
    let mut t = [build_coefficient(0); FIELD_SIZE];
    let mut c = 1;
    while c < FIELD_SIZE {
        t[c] = build_coefficient(c as u8);
        c += 1;
    }
    t
}

/// Every coefficient's prepared form, so [`NibbleTables::new`] is a copy.
static COEFFICIENTS: [NibbleTables; FIELD_SIZE] = build_coefficients();

impl NibbleTables {
    /// The prepared tables for coefficient `c`.
    #[inline]
    pub fn new(c: u8) -> Self {
        COEFFICIENTS[c as usize]
    }

    /// Multiply a single byte through the tables.
    #[inline]
    pub fn mul(&self, x: u8) -> u8 {
        self.low[(x & 0x0F) as usize] ^ self.high[(x >> 4) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_log_roundtrip() {
        for a in 1..=255u8 {
            assert_eq!(EXP[LOG[a as usize] as usize], a);
        }
    }

    #[test]
    fn exp_periodicity() {
        for i in 0..GROUP_ORDER {
            assert_eq!(EXP[i], EXP[i + GROUP_ORDER]);
        }
    }

    #[test]
    fn inv_is_inverse() {
        for a in 1..=255u8 {
            assert_eq!(mul_notable(a, INV[a as usize]), 1);
        }
    }

    #[test]
    fn mul_notable_small_cases() {
        assert_eq!(mul_notable(0, 0x53), 0);
        assert_eq!(mul_notable(1, 0x53), 0x53);
        assert_eq!(mul_notable(2, 0x80), (PRIMITIVE_POLY & 0xFF) as u8);
        // 0x53 * 0xCA = 0x01 under 0x11D (known test vector pair).
        assert_eq!(mul_notable(0x53, INV[0x53]), 1);
    }

    #[test]
    fn nibble_tables_match_reference() {
        for c in 0..=255u8 {
            let t = NibbleTables::new(c);
            for x in 0..=255u8 {
                assert_eq!(t.mul(x), mul_notable(c, x), "c={c} x={x}");
            }
        }
    }

    #[test]
    fn const_table_equals_the_bit_serial_construction() {
        for c in 0..=255u8 {
            let t = NibbleTables::new(c);
            for v in 0..16u8 {
                assert_eq!(t.low[v as usize], mul_notable(c, v), "c={c}");
                assert_eq!(t.high[v as usize], mul_notable(c, v << 4), "c={c}");
            }
        }
    }

    /// `GF2P8AFFINEQB` with a zero constant, one byte, in portable code:
    /// output bit `i` is the parity of `x` under matrix byte `7 - i`.
    fn affine_byte(matrix: u64, x: u8) -> u8 {
        (0..8).fold(0, |y, i| {
            let mask = (matrix >> ((7 - i) * 8)) as u8;
            y | (((mask & x).count_ones() as u8 & 1) << i)
        })
    }

    #[test]
    fn affine_matrix_multiplies_like_the_reference() {
        for c in 0..=255u8 {
            let m = NibbleTables::new(c).affine;
            for x in 0..=255u8 {
                assert_eq!(affine_byte(m, x), mul_notable(c, x), "c={c} x={x}");
            }
        }
    }
}
