// Golden-test snippet: nested closures, iterator adapters, and a
// critical-section closure — shapes the sharded map's hot paths use.
impl Sharded {
    fn batch_get(&self, keys: &[u64]) -> Vec<Option<u64>> {
        keys.iter()
            .map(|&k| {
                let s = &self.shards[self.shard_of(k)];
                s.lock.execute(|ctx| s.map.get(ctx, k))
            })
            .collect()
    }

    fn count_busy(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.routed.load(Ordering::Relaxed) > 0)
            .count()
    }
}
