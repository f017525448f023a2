// Fixture (never compiled): the documented knob/counter protocol, plus
// non-atomic look-alikes that must not be flagged.
fn publish(shared: &Shared, tier: u8) {
    KERNEL_OVERRIDE.store(tier, Ordering::Release);
    shared.chunks.fetch_add(1, Ordering::Relaxed);
}

fn consume() -> u8 {
    KERNEL_OVERRIDE.load(Ordering::Acquire)
}

fn look_alikes(v: &mut Vec<u8>, engine: &mut Engine) {
    // No `Ordering::` argument: not atomic calls, out of R9's scope.
    v.swap(0, 1);
    engine.load(0x1000);
}
