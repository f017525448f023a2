//! Physical placement of stripes in simulated memory.
//!
//! Blocks are page(4 KiB)-aligned, matching the paper's evaluation (its
//! Obs. 4 explicitly distinguishes 4 KiB-aligned blocks from unaligned
//! ones), and *scattered* across each thread's region with a bijective
//! hash, matching the paper's "random encoding" over 1 GB of pre-filled
//! data (and keeping the 4 KiB channel interleave uniformly loaded). Each
//! logical thread encodes its own region, as in the paper's multi-thread
//! benchmark where threads encode disjoint data.

use dialga_memsim::{CACHELINE, PAGE};

/// Scatter-permutation domain: blocks per thread region (2^22 slots).
const SCATTER_BITS: u32 = 22;
/// Odd multiplier: multiplication mod 2^SCATTER_BITS by an odd constant is
/// a bijection, so scattered blocks never collide.
const SCATTER_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Placement of one thread-set of stripes.
#[derive(Debug, Clone, Copy)]
pub struct StripeLayout {
    /// Data blocks per stripe.
    pub k: usize,
    /// Parity blocks per stripe.
    pub m: usize,
    /// Bytes per block.
    pub block_bytes: u64,
    /// Stripes encoded per thread.
    pub stripes_per_thread: u64,
    /// Bytes a block occupies including alignment padding.
    block_span: u64,
    /// Address distance between consecutive threads' regions.
    thread_stride: u64,
}

impl StripeLayout {
    /// Page-aligned, scattered layout.
    pub fn new(k: usize, m: usize, block_bytes: u64, stripes_per_thread: u64) -> Self {
        assert!(k > 0 && m > 0 && block_bytes > 0, "degenerate layout");
        assert_eq!(
            block_bytes % CACHELINE,
            0,
            "block size must be cacheline-aligned"
        );
        let block_span = block_bytes.next_multiple_of(PAGE);
        let blocks = stripes_per_thread * (k + m) as u64;
        assert!(
            blocks < (1 << SCATTER_BITS),
            "region exceeds scatter domain ({blocks} blocks)"
        );
        let thread_stride = (1u64 << SCATTER_BITS) * block_span;
        StripeLayout {
            k,
            m,
            block_bytes,
            stripes_per_thread,
            block_span,
            thread_stride,
        }
    }

    /// Choose the stripe count so each thread touches about
    /// `bytes_per_thread` of data.
    pub fn sized_for(k: usize, m: usize, block_bytes: u64, bytes_per_thread: u64) -> Self {
        let per_stripe = k as u64 * block_bytes;
        let stripes = (bytes_per_thread / per_stripe).max(4);
        Self::new(k, m, block_bytes, stripes)
    }

    /// Bytes a block occupies including alignment padding.
    pub fn block_span(&self) -> u64 {
        self.block_span
    }

    /// Cachelines (64 B rows) per block.
    pub fn rows_per_block(&self) -> u64 {
        self.block_bytes / CACHELINE
    }

    /// Data bytes per stripe (the throughput numerator counts data only).
    pub fn data_bytes_per_stripe(&self) -> u64 {
        self.k as u64 * self.block_bytes
    }

    /// Data bytes per thread.
    pub fn data_bytes_per_thread(&self) -> u64 {
        self.data_bytes_per_stripe() * self.stripes_per_thread
    }

    #[inline]
    fn block_base(&self, tid: usize, linear: u64) -> u64 {
        let slot = linear.wrapping_mul(SCATTER_MUL) & ((1 << SCATTER_BITS) - 1);
        tid as u64 * self.thread_stride + slot * self.block_span
    }

    /// Base address of data block `j` of stripe `s` for thread `tid`.
    pub fn data_block(&self, tid: usize, s: u64, j: usize) -> u64 {
        debug_assert!(j < self.k);
        self.block_base(tid, s * (self.k + self.m) as u64 + j as u64)
    }

    /// Base address of parity block `i` of stripe `s` for thread `tid`.
    pub fn parity_block(&self, tid: usize, s: u64, i: usize) -> u64 {
        debug_assert!(i < self.m);
        self.block_base(tid, s * (self.k + self.m) as u64 + (self.k + i) as u64)
    }

    /// Address of cacheline row `r` of data block `j`.
    pub fn data_line(&self, tid: usize, s: u64, j: usize, r: u64) -> u64 {
        debug_assert!(r < self.rows_per_block());
        self.data_block(tid, s, j) + r * CACHELINE
    }

    /// Address of cacheline row `r` of parity block `i`.
    pub fn parity_line(&self, tid: usize, s: u64, i: usize, r: u64) -> u64 {
        debug_assert!(r < self.rows_per_block());
        self.parity_block(tid, s, i) + r * CACHELINE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_page_aligned() {
        let l = StripeLayout::new(12, 4, 1024, 10);
        for j in 0..12 {
            assert_eq!(l.data_block(0, 3, j) % PAGE, 0);
        }
        for i in 0..4 {
            assert_eq!(l.parity_block(1, 7, i) % PAGE, 0);
        }
    }

    #[test]
    fn blocks_do_not_overlap() {
        let l = StripeLayout::new(4, 2, 1024, 50);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for s in 0..50 {
            for j in 0..4 {
                spans.push((l.data_block(0, s, j), l.block_bytes));
            }
            for i in 0..2 {
                spans.push((l.parity_block(0, s, i), l.block_bytes));
            }
        }
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {w:?}");
        }
    }

    #[test]
    fn scatter_spreads_channels_evenly() {
        // Across many blocks, the (addr/4096) % 6 channel distribution
        // must be near-uniform.
        let l = StripeLayout::new(28, 4, 1024, 100);
        let mut counts = [0usize; 6];
        for s in 0..100 {
            for j in 0..28 {
                counts[((l.data_block(0, s, j) / 4096) % 6) as usize] += 1;
            }
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*max < min * 2, "channel imbalance: {counts:?}");
    }

    #[test]
    fn threads_have_disjoint_regions() {
        let l = StripeLayout::new(28, 4, 4096, 1000);
        let mut max_t0 = 0;
        for s in (0..1000).step_by(97) {
            for j in 0..28 {
                max_t0 = max_t0.max(l.data_block(0, s, j) + l.block_span());
            }
        }
        let mut min_t1 = u64::MAX;
        for s in (0..1000).step_by(97) {
            for j in 0..28 {
                min_t1 = min_t1.min(l.data_block(1, s, j));
            }
        }
        assert!(max_t0 <= min_t1, "{max_t0} > {min_t1}");
    }

    #[test]
    fn sized_for_hits_target() {
        let l = StripeLayout::sized_for(12, 4, 1024, 8 << 20);
        let got = l.data_bytes_per_thread();
        assert!((7 << 20..=8 << 20).contains(&got), "sized {got}");
    }

    #[test]
    fn five_kib_block_spans_two_pages() {
        let l = StripeLayout::new(4, 2, 5120, 2);
        assert_eq!(l.block_span(), 8192);
        assert_eq!(l.rows_per_block(), 80);
        // A block's lines are contiguous even when scattered.
        assert_eq!(l.data_line(0, 0, 1, 79) - l.data_line(0, 0, 1, 0), 79 * 64);
    }

    #[test]
    fn region_capacity_guard() {
        // 2^22 block slots: a huge request must panic, not overlap.
        let r = std::panic::catch_unwind(|| StripeLayout::new(200, 55, 64, 20000));
        assert!(r.is_err());
    }
}
