//! Per-flow NF state: [`FlowTable`] and serialized [`FlowSnapshot`]s.
//!
//! Production NFs (NAT, load balancers, IDS reassembly) carry state per
//! flow, and the correctness bar for an elastic dataplane is that state
//! **moves with the flows** when the shard count changes (Khalid &
//! Akella). This module is the typed state layer the stateful NFs in
//! this crate are built on:
//!
//! * [`FlowTable<T>`] — a per-flow map keyed by the canonical
//!   [`FlowKey`] (the admission-time RSS 5-tuple). A table can be
//!   *bound* to its shard's partition `(index, total)`; in debug builds
//!   every access then asserts the key actually hashes to that shard,
//!   catching hash/partition drift between the dispatcher and the state
//!   keying the moment it happens.
//! * [`FlowSnapshot`] — the serialized export of one NF's table: an NF
//!   name plus `(key, bytes)` entries. Snapshots merge across shards and
//!   re-partition by [`FlowKey::shard`], which is exactly what
//!   `ShardedEngine::rescale` does during a shard-count change.
//!
//! Ownership rule: a flow's state lives on the shard its *admission*
//! 5-tuple hashes to — NFs key by the metadata flow sidecar, never by
//! re-parsing (possibly rewritten) headers.

use crate::hash::FoldState;
use nfp_packet::flow::FlowKey;
use std::collections::HashMap;

/// Serialized per-flow state of one NF instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowSnapshot {
    /// Name of the NF that exported this snapshot (restore sanity tag).
    pub nf: String,
    /// One `(flow, serialized state)` pair per live flow.
    pub entries: Vec<(FlowKey, Vec<u8>)>,
}

impl FlowSnapshot {
    /// An empty snapshot tagged with the exporting NF's name.
    pub(crate) fn empty(nf: &str) -> Self {
        Self {
            nf: nf.to_string(),
            entries: Vec::new(),
        }
    }

    /// Number of flows captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no flow state was captured.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fold another shard's snapshot of the *same* NF into this one.
    pub fn merge(&mut self, mut other: FlowSnapshot) {
        if self.nf.is_empty() {
            self.nf = other.nf;
        }
        self.entries.append(&mut other.entries);
    }

    /// Keep only the flows that belong to shard `index` of `total` —
    /// the re-partition step of a shard-count migration.
    pub fn retain_shard(&mut self, index: usize, total: usize) {
        self.entries.retain(|(key, _)| key.shard(total) == index);
    }
}

/// A typed per-flow state table keyed by the admission-time [`FlowKey`].
///
/// Plain map semantics plus two things a `HashMap` does not give you:
/// a shard-partition binding with debug-build ownership assertions, and
/// serialization hooks (`FlowTable::snapshot_with` /
/// `FlowTable::restore_with`) that the migration machinery drives.
///
/// Every stateful NF probes its table once per packet, with a key the
/// sender of the packet chose. The map therefore hashes the key's two
/// packed words through a folded multiply keyed per table (DESIGN §4,
/// "Per-packet lookups"): a few cycles a probe, bucket placement that
/// cannot be computed without the table's keys. Iteration order is
/// arbitrary and differs between tables; snapshots sort.
#[derive(Debug, Clone)]
pub struct FlowTable<T> {
    flows: HashMap<FlowKey, T, FoldState>,
    /// `(shard index, shard count)` this table serves, when bound.
    partition: Option<(usize, usize)>,
    /// Flows imported via [`FlowTable::restore_with`] (migration census).
    migrated_in: u64,
}

impl<T> Default for FlowTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FlowTable<T> {
    /// An empty, unbound table (sees every flow — single-engine use).
    pub fn new() -> Self {
        Self {
            flows: HashMap::default(),
            partition: None,
            migrated_in: 0,
        }
    }

    /// Bind this table to shard `index` of `total`. In debug builds
    /// every subsequent keyed access asserts the key hashes to this
    /// partition, so a dispatcher/state-keying mismatch fails loudly at
    /// the first misdirected flow instead of silently diverging.
    pub(crate) fn bind_partition(&mut self, index: usize, total: usize) {
        assert!(total >= 1 && index < total, "partition {index}/{total}");
        self.partition = Some((index, total));
    }

    #[inline]
    fn assert_owned(&self, key: &FlowKey) {
        #[cfg(debug_assertions)]
        if let Some((index, total)) = self.partition {
            assert_eq!(
                key.shard(total),
                index,
                "flow {key} reached shard {index}/{total} but hashes to \
                 shard {} — RSS partition drift",
                key.shard(total),
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = key;
    }

    /// Number of live flows.
    #[inline]
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.flows.len()
    }

    /// Shared access to a flow's state.
    #[inline]
    pub(crate) fn get(&self, key: &FlowKey) -> Option<&T> {
        self.assert_owned(key);
        self.flows.get(key)
    }

    /// True when the flow has state.
    #[inline]
    #[cfg(test)]
    fn contains(&self, key: &FlowKey) -> bool {
        self.assert_owned(key);
        self.flows.contains_key(key)
    }

    /// Insert or replace a flow's state.
    #[inline]
    pub fn insert(&mut self, key: FlowKey, value: T) -> Option<T> {
        self.assert_owned(&key);
        self.flows.insert(key, value)
    }

    /// Remove a flow's state.
    #[inline]
    #[cfg(test)]
    fn remove(&mut self, key: &FlowKey) -> Option<T> {
        self.assert_owned(key);
        self.flows.remove(key)
    }

    /// Iterate `(flow, state)` pairs (arbitrary order).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&FlowKey, &T)> {
        self.flows.iter()
    }

    /// Export every flow's state through `encode`.
    pub(crate) fn snapshot_with(
        &self,
        nf: &str,
        mut encode: impl FnMut(&T) -> Vec<u8>,
    ) -> FlowSnapshot {
        let mut snap = FlowSnapshot::empty(nf);
        snap.entries
            .extend(self.flows.iter().map(|(k, v)| (*k, encode(v))));
        // Deterministic order: snapshots are compared in tests and
        // hashed into reports.
        snap.entries.sort_by_key(|(k, _)| *k);
        snap
    }

    /// Import entries through `decode`, counting them into
    /// `migrated_in`. Entries `decode` rejects (`None`) are skipped and
    /// reported in the returned count of rejects. The caller is
    /// responsible for partition-filtering the snapshot first
    /// ([`FlowSnapshot::retain_shard`]); in debug builds a misdirected
    /// key trips the ownership assertion here.
    pub(crate) fn restore_with(
        &mut self,
        snap: &FlowSnapshot,
        mut decode: impl FnMut(&[u8]) -> Option<T>,
    ) -> u64 {
        let mut rejected = 0;
        for (key, bytes) in &snap.entries {
            match decode(bytes) {
                Some(v) => {
                    self.assert_owned(key);
                    self.flows.insert(*key, v);
                    self.migrated_in += 1;
                }
                None => rejected += 1,
            }
        }
        rejected
    }
}

impl<T: Default> FlowTable<T> {
    /// Mutable access to a flow's state, default-constructing it on
    /// first touch.
    #[inline]
    pub fn entry(&mut self, key: FlowKey) -> &mut T {
        self.assert_owned(&key);
        self.flows.entry(key).or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_packet::ipv4::Ipv4Addr;

    fn key(sport: u16) -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 9, 9, 9),
            sport,
            80,
            6,
        )
    }

    #[test]
    fn table_tracks_flows() {
        let mut t: FlowTable<u64> = FlowTable::new();
        *t.entry(key(1)) += 1;
        *t.entry(key(1)) += 1;
        *t.entry(key(2)) += 1;
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&key(1)), Some(&2));
        assert_eq!(t.remove(&key(2)), Some(1));
        assert!(!t.contains(&key(2)));
    }

    #[test]
    fn snapshot_round_trips_and_counts_migrations() {
        let mut t: FlowTable<u16> = FlowTable::new();
        t.insert(key(1), 111);
        t.insert(key(2), 222);
        let snap = t.snapshot_with("nat", |v| v.to_be_bytes().to_vec());
        assert_eq!(snap.nf, "nat");
        assert_eq!(snap.len(), 2);

        let mut back: FlowTable<u16> = FlowTable::new();
        let rejected = back.restore_with(&snap, |b| b.try_into().ok().map(u16::from_be_bytes));
        assert_eq!(rejected, 0);
        assert_eq!(back.migrated_in, 2);
        assert_eq!(back.get(&key(1)), Some(&111));
        assert_eq!(back.get(&key(2)), Some(&222));
        // Undecodable entries are skipped, not invented.
        let mut garbage = snap.clone();
        garbage.entries[0].1 = vec![1, 2, 3];
        let mut strict: FlowTable<u16> = FlowTable::new();
        assert_eq!(
            strict.restore_with(&garbage, |b| b.try_into().ok().map(u16::from_be_bytes)),
            1
        );
        assert_eq!(strict.len(), 1);
    }

    #[test]
    fn snapshots_merge_and_repartition_without_loss() {
        // Simulate 2 shards' tables re-partitioning to 3 shards.
        let keys: Vec<FlowKey> = (0..64).map(key).collect();
        let mut shards: Vec<FlowTable<u16>> = vec![FlowTable::new(), FlowTable::new()];
        for k in &keys {
            shards[k.shard(2)].insert(*k, k.sport);
        }
        let mut merged = FlowSnapshot::default();
        for (i, t) in shards.iter().enumerate() {
            let snap = t.snapshot_with("m", |v| v.to_be_bytes().to_vec());
            assert!(snap.entries.iter().all(|(k, _)| k.shard(2) == i));
            merged.merge(snap);
        }
        assert_eq!(merged.len(), keys.len());
        let mut total = 0;
        for s in 0..3 {
            let mut part = merged.clone();
            part.retain_shard(s, 3);
            assert!(part.entries.iter().all(|(k, _)| k.shard(3) == s));
            total += part.len();
        }
        assert_eq!(total, keys.len(), "re-partition must lose nothing");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "RSS partition drift")]
    fn bound_table_rejects_misdirected_flow() {
        let k = key(5);
        let total = 4;
        let wrong = (k.shard(total) + 1) % total;
        let mut t: FlowTable<u64> = FlowTable::new();
        t.bind_partition(wrong, total);
        t.entry(k);
    }

    #[test]
    fn bound_table_accepts_owned_flows() {
        let total = 4;
        let mut tables: Vec<FlowTable<u64>> = (0..total)
            .map(|i| {
                let mut t = FlowTable::new();
                t.bind_partition(i, total);
                t
            })
            .collect();
        for sport in 0..128 {
            let k = key(sport);
            *tables[k.shard(total)].entry(k) += 1;
        }
        let live: usize = tables.iter().map(FlowTable::len).sum();
        assert_eq!(live, 128);
    }
}
