// Fixture (never compiled): three atomic-ordering protocol violations.
fn publish(tier: u8) {
    // Knob stores must be Release.
    KERNEL_OVERRIDE.store(tier, Ordering::Relaxed);
}

fn consume() -> u8 {
    // Knob loads must be Acquire.
    KERNEL_OVERRIDE.load(Ordering::Relaxed)
}

fn count(shared: &Shared) {
    // `mystery` is not a declared stat counter.
    shared.mystery.fetch_add(1, Ordering::Relaxed);
}
