// Fixture (never compiled): the PR 23 hand-off done wrong. The submitter
// finds the shard idle and calls `dispatch` — which blocks in the pool
// and reaches `done.send` two calls down — while still holding `queue`.
impl Shard {
    fn complete(&self, done: &Done, reply: Reply) {
        self.counters.completed.fetch_add(1, Ordering::Release);
        done.send(reply);
    }

    fn dispatch_encodes(&self, coder: &Dialga, reqs: Vec<Pending>) {
        for pending in reqs {
            let result = self.pool.encode_vec(coder, &pending.refs());
            self.complete(&pending.done, result);
        }
    }

    fn dispatch(&self, coder: &Dialga, batch: Vec<Pending>) {
        self.dispatch_encodes(coder, batch);
    }

    fn submit_inline(&self, coder: &Dialga, pending: Pending) {
        let mut q = self.lock_queue();
        if q.tenants.is_empty() && q.active == 0 {
            q.active += 1;
            self.dispatch(coder, vec![pending]);
            q.active -= 1;
        }
    }
}
