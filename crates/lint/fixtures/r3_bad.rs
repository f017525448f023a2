// Fixture (never compiled): three atomic-ordering protocol violations.
fn publish(shared: &Shared, deadline_ns: u64) {
    // Knob stores must be Release.
    shared.watchdog_ns.store(deadline_ns, Ordering::Relaxed);
}

fn consume(shared: &Shared) -> u64 {
    // Knob loads must be Acquire.
    shared.watchdog_ns.load(Ordering::Relaxed)
}

fn count(shared: &Shared) {
    // `mystery` is not a declared stat counter.
    shared.mystery.fetch_add(1, Ordering::Relaxed);
}
