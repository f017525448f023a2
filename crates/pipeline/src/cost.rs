//! Compute-cost model for the encoding kernels.
//!
//! Calibrated against the structure of ISA-L's AVX512 kernels: a GF
//! multiply-accumulate of one 64 B line into one parity is two shuffles +
//! two XORs + table loads ≈ 2 cycles; AVX256 halves the vector width, so
//! every per-64 B figure doubles (§5.5). XOR-code packet XORs are one
//! load/xor pair ≈ 1 cycle per 64 B.

/// Vector instruction set in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Simd {
    /// 64-byte vectors (the paper's default).
    #[default]
    Avx512,
    /// 32-byte vectors: every per-line compute cost doubles.
    Avx256,
}

impl Simd {
    /// Multiplier on per-64 B compute costs relative to AVX512.
    pub fn width_factor(self) -> f64 {
        match self {
            Simd::Avx512 => 1.0,
            Simd::Avx256 => 2.0,
        }
    }
}

/// Cycle costs of the data-plane kernels.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Instruction set.
    pub simd: Simd,
    /// Cycles per GF multiply-accumulate of one 64 B line into one parity
    /// (AVX512 baseline).
    pub gf_mad_cycles: f64,
    /// Cycles per 64 B XOR (AVX512 baseline).
    pub xor_cycles: f64,
    /// Fixed per-group loop overhead, cycles (pointer bumps, loop control),
    /// charged once per register-blocked output group in the fused kernels.
    pub row_overhead_cycles: f64,
    /// Per-call dispatch overhead of the unfused per-slice path (kernel
    /// selection, bounds checks, dst reload), charged per (output, source)
    /// pair by [`CostModel::rs_row_cycles_per_slice`].
    pub call_overhead_cycles: f64,
}

impl CostModel {
    /// Default model for the given instruction set.
    pub fn new(simd: Simd) -> Self {
        CostModel {
            simd,
            gf_mad_cycles: 2.0,
            xor_cycles: 1.0,
            row_overhead_cycles: 4.0,
            call_overhead_cycles: 3.0,
        }
    }

    /// Compute cycles for one fused dot-product row: `k` source lines
    /// loaded once and folded into `m` register-resident parity
    /// accumulators (the ISA-L `gf_{1..6}vect_dot_prod` shape). Outputs
    /// beyond the register-blocking group size split into
    /// `ceil(m / FUSED_GROUP)` groups, each paying the loop overhead once.
    pub fn rs_row_cycles(&self, k: usize, m: usize) -> f64 {
        let groups = m.div_ceil(dialga_gf::simd::FUSED_GROUP).max(1);
        (k * m) as f64 * self.gf_mad_cycles * self.simd.width_factor()
            + groups as f64 * self.row_overhead_cycles
    }

    /// Compute cycles for the same row on the unfused per-slice path: one
    /// kernel call per (output, source) pair, each re-streaming the source
    /// line and reloading/restoring the destination. This is the baseline
    /// the fused kernel's cost is stated against.
    pub fn rs_row_cycles_per_slice(&self, k: usize, m: usize) -> f64 {
        (k * m) as f64 * (self.gf_mad_cycles * self.simd.width_factor() + self.call_overhead_cycles)
            + self.row_overhead_cycles
    }

    /// Compute cycles for one source's contribution to `m` parities over
    /// one 64 B line (used by the XPLine-expanded loop which processes one
    /// block at a time).
    pub fn rs_line_cycles(&self, m: usize) -> f64 {
        m as f64 * self.gf_mad_cycles * self.simd.width_factor()
    }

    /// Compute cycles to XOR `lines` 64 B lines (one packet operation of a
    /// bitmatrix schedule).
    pub fn xor_lines_cycles(&self, lines: u64) -> f64 {
        lines as f64 * self.xor_cycles * self.simd.width_factor() + 1.0
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::new(Simd::Avx512)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avx256_doubles_compute() {
        let a = CostModel::new(Simd::Avx512);
        let b = CostModel::new(Simd::Avx256);
        let ra = a.rs_row_cycles(12, 4) - a.row_overhead_cycles;
        let rb = b.rs_row_cycles(12, 4) - b.row_overhead_cycles;
        assert!((rb - 2.0 * ra).abs() < 1e-12);
    }

    #[test]
    fn row_cost_scales_with_k_and_m() {
        let c = CostModel::default();
        assert!(c.rs_row_cycles(24, 4) > c.rs_row_cycles(12, 4));
        assert!(c.rs_row_cycles(12, 8) > c.rs_row_cycles(12, 4));
        let km = c.rs_row_cycles(12, 4) - c.row_overhead_cycles;
        assert!((km - 96.0).abs() < 1e-12);
    }

    #[test]
    fn fused_row_never_costs_more_than_per_slice() {
        let c = CostModel::default();
        for k in [1usize, 4, 10, 24] {
            for m in [1usize, 2, 4, 6, 8, 12] {
                assert!(c.rs_row_cycles(k, m) <= c.rs_row_cycles_per_slice(k, m));
            }
        }
    }

    #[test]
    fn wide_output_sets_charge_one_overhead_per_group() {
        let c = CostModel::default();
        // m = 12 splits into two register-blocked groups of 6.
        let mad = c.rs_row_cycles(10, 12) - 2.0 * c.row_overhead_cycles;
        assert!((mad - (10 * 12) as f64 * c.gf_mad_cycles).abs() < 1e-12);
        // m = 6 is a single group.
        let one = c.rs_row_cycles(10, 6) - c.row_overhead_cycles;
        assert!((one - (10 * 6) as f64 * c.gf_mad_cycles).abs() < 1e-12);
    }

    #[test]
    fn xor_cost_linear_in_lines() {
        let c = CostModel::default();
        let one = c.xor_lines_cycles(1);
        let four = c.xor_lines_cycles(4);
        assert!((four - 1.0 - 4.0 * (one - 1.0)).abs() < 1e-12);
    }
}
