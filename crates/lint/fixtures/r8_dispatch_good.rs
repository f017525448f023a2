// Fixture (never compiled): the PR 23 hand-off as shipped. The idle test
// and the claim are one critical section; the guard is gone before
// `dispatch` (which reaches `done.send`) runs.
impl Shard {
    fn complete(&self, done: &Done, reply: Reply) {
        self.counters.completed.fetch_add(1, Ordering::Release);
        done.send(reply);
    }

    fn dispatch(&self, coder: &Dialga, batch: Vec<Pending>) {
        for pending in batch {
            let result = self.pool.encode_vec(coder, &pending.refs());
            self.complete(&pending.done, result);
        }
    }

    fn claim_idle(&self) -> bool {
        let mut q = self.lock_queue();
        if q.tenants.is_empty() && q.active == 0 {
            q.active += 1;
            return true;
        }
        false
    }

    fn submit_inline(&self, coder: &Dialga, pending: Pending) {
        if self.claim_idle() {
            self.dispatch(coder, vec![pending]);
            self.lock_queue().active -= 1;
        }
    }
}
