//! The benchmark's counting [`PmImage`] wrapper: every store image the
//! benchmark hands to the system under test is a [`CountingImage`] over a
//! [`MemImage`], so device work per put/get is counted where it happens
//! and repeats exactly.
//!
//! Image buffers (up to 256 MiB) come from a [`BufferPool`] and return to
//! it when the image is dropped. A run builds the store several times over
//! and boots a dozen services; without the pool each of those would fault
//! in a fresh quarter-gigabyte from the hypervisor, which costs more, and
//! varies more, than the work being timed.

use crate::trace;
use dialga_store::{MemImage, PmImage, StoreError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Recycles image buffers of one run.
pub struct BufferPool {
    home: mpsc::Sender<Vec<u8>>,
    returned: mpsc::Receiver<Vec<u8>>,
}

impl Default for BufferPool {
    fn default() -> Self {
        let (home, returned) = mpsc::channel();
        BufferPool { home, returned }
    }
}

impl BufferPool {
    fn recycled(&self, len: usize) -> Option<Vec<u8>> {
        self.returned.try_iter().find(|b| b.len() == len)
    }

    /// A zero-filled image of `len` bytes tallying into `counters`.
    pub fn zeroed(&self, len: usize, counters: Arc<ImageCounters>) -> CountingImage {
        let bytes = match self.recycled(len) {
            Some(mut b) => {
                b.fill(0);
                b
            }
            None => vec![0; len],
        };
        self.wrap(bytes, counters)
    }

    /// An image holding a copy of `src`.
    pub fn copy_of(&self, src: &[u8], counters: Arc<ImageCounters>) -> CountingImage {
        let bytes = match self.recycled(src.len()) {
            Some(mut b) => {
                b.copy_from_slice(src);
                b
            }
            None => src.to_vec(),
        };
        self.wrap(bytes, counters)
    }

    fn wrap(&self, bytes: Vec<u8>, counters: Arc<ImageCounters>) -> CountingImage {
        CountingImage {
            inner: MemImage::from_bytes(bytes),
            counters,
            home: Some(self.home.clone()),
        }
    }
}

/// Device-boundary tallies, shared with the benchmark while the image is
/// owned by a store. Plain statistics: `Relaxed`, they publish nothing.
#[derive(Debug, Default)]
pub struct ImageCounters {
    store_calls: AtomicU64,
    store_bytes: AtomicU64,
    store_ns: AtomicU64,
    persists: AtomicU64,
    persist_ns: AtomicU64,
    read_calls: AtomicU64,
    read_bytes: AtomicU64,
}

/// A point-in-time copy of [`ImageCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImageCounts {
    /// `PmImage::store` calls.
    pub store_calls: u64,
    /// Bytes stored.
    pub store_bytes: u64,
    /// Nanoseconds inside `store` (counted only while the calling thread
    /// is tracing).
    pub store_ns: u64,
    /// `PmImage::persist` calls (persist boundaries).
    pub persists: u64,
    /// Nanoseconds inside `persist` (traced threads only).
    pub persist_ns: u64,
    /// `PmImage::read` calls.
    pub read_calls: u64,
    /// Bytes read.
    pub read_bytes: u64,
}

impl ImageCounters {
    /// Current tallies.
    pub fn snapshot(&self) -> ImageCounts {
        ImageCounts {
            store_calls: self.store_calls.load(Ordering::Relaxed),
            store_bytes: self.store_bytes.load(Ordering::Relaxed),
            store_ns: self.store_ns.load(Ordering::Relaxed),
            persists: self.persists.load(Ordering::Relaxed),
            persist_ns: self.persist_ns.load(Ordering::Relaxed),
            read_calls: self.read_calls.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
        }
    }
}

impl ImageCounts {
    /// Add `delta` to these tallies.
    pub fn add(&mut self, delta: &ImageCounts) {
        self.store_calls += delta.store_calls;
        self.store_bytes += delta.store_bytes;
        self.store_ns += delta.store_ns;
        self.persists += delta.persists;
        self.persist_ns += delta.persist_ns;
        self.read_calls += delta.read_calls;
        self.read_bytes += delta.read_bytes;
    }

    /// Tallies accumulated since `earlier`.
    pub fn since(&self, earlier: &ImageCounts) -> ImageCounts {
        ImageCounts {
            store_calls: self.store_calls - earlier.store_calls,
            store_bytes: self.store_bytes - earlier.store_bytes,
            store_ns: self.store_ns - earlier.store_ns,
            persists: self.persists - earlier.persists,
            persist_ns: self.persist_ns - earlier.persist_ns,
            read_calls: self.read_calls - earlier.read_calls,
            read_bytes: self.read_bytes - earlier.read_bytes,
        }
    }
}

/// A [`PmImage`] that counts calls and bytes, and, on a tracing thread,
/// records an `image.*` span and the time per call. With tracing off a
/// call costs two relaxed adds on top of the wrapped image.
#[derive(Debug)]
pub struct CountingImage {
    inner: MemImage,
    counters: Arc<ImageCounters>,
    /// Where the buffer goes when the image is dropped.
    home: Option<mpsc::Sender<Vec<u8>>>,
}

impl CountingImage {
    /// Wrap `inner`, tallying into `counters`; the buffer is freed on drop.
    pub fn new(inner: MemImage, counters: Arc<ImageCounters>) -> Self {
        CountingImage {
            inner,
            counters,
            home: None,
        }
    }
}

impl Drop for CountingImage {
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            // The pool may be gone already; then the buffer is just freed.
            let _ = home.send(std::mem::take(&mut self.inner).into_bytes());
        }
    }
}

impl PmImage for CountingImage {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), StoreError> {
        let c = &self.counters;
        c.read_calls.fetch_add(1, Ordering::Relaxed);
        c.read_bytes.fetch_add(out.len() as u64, Ordering::Relaxed);
        let _span = trace::scoped("image.read");
        self.inner.read(offset, out)
    }

    fn store(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
        let c = &self.counters;
        c.store_calls.fetch_add(1, Ordering::Relaxed);
        c.store_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        if !trace::enabled() {
            return self.inner.store(offset, bytes);
        }
        let _span = trace::scoped("image.store");
        let t0 = Instant::now();
        let r = self.inner.store(offset, bytes);
        c.store_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn persist(&mut self, offset: u64, len: usize) -> Result<(), StoreError> {
        let c = &self.counters;
        c.persists.fetch_add(1, Ordering::Relaxed);
        if !trace::enabled() {
            return self.inner.persist(offset, len);
        }
        let _span = trace::scoped("image.persist");
        let t0 = Instant::now();
        let r = self.inner.persist(offset, len);
        c.persist_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialga_store::{Geometry, StripeStore};

    #[test]
    fn a_put_is_two_persists_and_a_get_reads_every_shard() {
        let (k, m, shard) = (4usize, 2usize, 256usize);
        let geo = Geometry::new(k, m, shard, 3).unwrap();
        let counters = Arc::new(ImageCounters::default());
        let image = CountingImage::new(MemImage::new(geo.image_len()), Arc::clone(&counters));
        let mut store = StripeStore::format(image, geo).unwrap();
        let data: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8 + 1; shard]).collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();

        let before = counters.snapshot();
        for stripe in 0..3 {
            store.write_stripe(stripe, &refs).unwrap();
        }
        let puts = counters.snapshot().since(&before);
        assert_eq!(puts.persists, 2 * 3, "exactly two persists per put");
        // k+m shards, the footer and the commit word.
        assert_eq!(puts.store_calls, 3 * (k + m + 2) as u64);
        assert_eq!(puts.store_bytes, 3 * ((k + m) * shard + 64 + 8) as u64);
        assert_eq!(puts.read_calls, 0);

        let before = counters.snapshot();
        assert_eq!(store.read_stripe(1).unwrap(), data);
        let get = counters.snapshot().since(&before);
        assert_eq!(get.read_calls, (k + m) as u64);
        assert_eq!(get.read_bytes, ((k + m) * shard) as u64);
        assert_eq!(get.persists, 0);
    }

    #[test]
    fn dropped_images_return_their_buffer_zeroed_on_reuse() {
        let pool = BufferPool::default();
        let counters = Arc::new(ImageCounters::default());
        let mut image = pool.zeroed(512, Arc::clone(&counters));
        image.store(0, &[7; 512]).unwrap();
        drop(image);
        let reused = pool.zeroed(512, Arc::clone(&counters));
        let mut out = [1u8; 512];
        reused.read(0, &mut out).unwrap();
        assert_eq!(out, [0u8; 512]);
        drop(reused);
        let copy = pool.copy_of(&[9; 512], counters);
        copy.read(0, &mut out).unwrap();
        assert_eq!(out, [9u8; 512]);
        // Another size never gets a recycled buffer.
        assert_eq!(pool.zeroed(1024, Arc::default()).len(), 1024);
    }
}
