//! The table's storage abstraction: every index entry lives in a
//! numbered **subspace** (0 = primary, `1 + i` = the `i`-th indexed
//! column), and a row mutation is a batch of per-subspace puts/removes
//! that the backend must commit as **one linearizable action**.
//!
//! Two backends implement it:
//!
//! * [`RawListStorage`] — the original layout: one [`LeapListLt`] per
//!   subspace on a shared transactional domain; a mutation batch commits
//!   through `LeapListLt::apply_batch_grouped` (k ops per list, one
//!   locking transaction).
//! * [`ShardedStorage`] — the service-scale layout: **one**
//!   [`LeapStore`] whose keyspace is carved into prefix-tagged
//!   [`Subspace`]s (`leap_store::Subspace`); a mutation batch becomes one
//!   [`LeapStore::apply`] call — a single cross-list transaction spanning
//!   the primary shard and every affected index shard, **even while a
//!   migration is resharding the very keys it touches**. Index scans run
//!   over the subspace's key interval; the paged variant routes through
//!   [`LeapStore::scan`]'s `Cursor`, and the pinned-snapshot variant
//!   through [`LeapStore::scan_snapshot`]'s `SnapshotCursor`.
//!
//! Both backends additionally serve **linearizable snapshot scans**
//! ([`TableStorage::snapshot_pages`]): the commit timestamp is pinned
//! once when the scan starts, and every page reads the index's version
//! bundles exactly as of that instant — retry-free under concurrent
//! commits, and (sharded) under in-flight migrations.
//!
//! The two backends pack composite index keys differently —
//! [`TableStorage::key_bits`] reports how many bits the backend grants
//! the column value and the row id (raw lists: 32/32 over the full
//! 64-bit key; the sharded store: 28/28 under the 8-bit subspace tag).

use crate::Row;
use leap_store::{
    BatchOp, LeapStore, Partitioning, RebalancePolicy, SnapshotCursor, StoreConfig, Subspace,
};
use leaplist::{LeapListLt, ListSnapshot, Params};
use std::sync::Arc;

/// One component of an atomic index-maintenance batch.
#[derive(Debug, Clone)]
pub(crate) enum IndexOp {
    /// Write `row` under `key` in `subspace`.
    Put {
        /// Target subspace (0 = primary).
        subspace: usize,
        /// Key within the subspace.
        key: u64,
        /// The row to store (covering indexes store the full row).
        row: Row,
    },
    /// Remove `key` from `subspace`.
    Remove {
        /// Target subspace.
        subspace: usize,
        /// Key within the subspace.
        key: u64,
    },
}

impl IndexOp {
    fn subspace(&self) -> usize {
        match self {
            IndexOp::Put { subspace, .. } | IndexOp::Remove { subspace, .. } => *subspace,
        }
    }
}

/// What a [`crate::Table`] needs from its index storage (see module docs).
pub(crate) trait TableStorage: Send + Sync {
    /// `(value_bits, id_bits)` of the composite index keys this backend
    /// can represent: an indexed column value must fit `value_bits`, a
    /// row id `id_bits`.
    fn key_bits(&self) -> (u32, u32);

    /// Applies the batch as **one linearizable action** across all
    /// touched subspaces.
    fn apply(&self, ops: &[IndexOp]);

    /// Point lookup in one subspace (transaction-free).
    fn lookup(&self, subspace: usize, key: u64) -> Option<Row>;

    /// All pairs with keys in `[lo, hi]` of one subspace, ascending, as
    /// **one consistent snapshot**.
    fn scan(&self, subspace: usize, lo: u64, hi: u64) -> Vec<(u64, Row)>;

    /// The first at-most-`limit` pairs of `[lo, hi]` in one subspace —
    /// one bounded linearizable read (the engine under the table's paged
    /// scans).
    fn scan_page(&self, subspace: usize, lo: u64, hi: u64, limit: usize) -> Vec<(u64, Row)>;

    /// Number of keys in `[lo, hi]` of one subspace (consistent
    /// snapshot, no row clones).
    fn count(&self, subspace: usize, lo: u64, hi: u64) -> usize;

    /// A **linearizable** snapshot scan of `[lo, hi]` in one subspace:
    /// the global commit timestamp is pinned here, once, and every page —
    /// first and last alike — reads the subspace exactly as of that
    /// instant from the lists' version bundles, untouched by commits that
    /// land (or, on the sharded backend, migrations that move keys) while
    /// the scan is parked between pages. The engine under
    /// [`crate::Table::scan_by_snapshot`].
    fn snapshot_pages<'a>(
        &'a self,
        subspace: usize,
        lo: u64,
        hi: u64,
        page_size: usize,
    ) -> Box<dyn SnapshotPages + 'a>;

    /// The backing [`LeapStore`], when this backend is sharded — the
    /// handle tests, benches and operators use to drive resharding and
    /// read store/subspace statistics.
    fn store(&self) -> Option<&Arc<LeapStore<Row>>> {
        None
    }
}

/// One subspace's pinned-snapshot paged scan, pinned to one commit
/// timestamp (see [`TableStorage::snapshot_pages`]). Holds an epoch guard
/// and a timestamp pin for its whole lifetime, so drop it promptly.
pub(crate) trait SnapshotPages {
    /// The pinned commit timestamp every page of this scan reads at.
    fn ts(&self) -> u64;

    /// The next page — at most the construction-time page size, ascending
    /// — or `None` when the range is exhausted. Never an empty page.
    fn next_page(&mut self) -> Option<Vec<(u64, Row)>>;
}

/// [`SnapshotPages`] over one raw list: a pinned [`ListSnapshot`] plus a
/// resume key; each page is one transaction-free bundle walk.
struct RawSnapshotPages<'a> {
    list: &'a LeapListLt<Row>,
    snap: ListSnapshot,
    hi: u64,
    next: Option<u64>,
    page_size: usize,
}

impl SnapshotPages for RawSnapshotPages<'_> {
    fn ts(&self) -> u64 {
        self.snap.ts()
    }

    fn next_page(&mut self) -> Option<Vec<(u64, Row)>> {
        let lo = self.next?;
        let page = self
            .list
            .snapshot_page(&self.snap, lo, self.hi, self.page_size);
        self.next = match page.last() {
            // A full page may have more behind it; a short one proves the
            // snapshot holds nothing further in range.
            Some(&(last, _)) if page.len() == self.page_size && last < self.hi => Some(last + 1),
            _ => None,
        };
        (!page.is_empty()).then_some(page)
    }
}

/// [`SnapshotPages`] over the sharded store: the store's
/// [`SnapshotCursor`] (which pins once and merges shard pages itself),
/// with the subspace tag stripped off each key.
struct ShardedSnapshotPages<'a> {
    cursor: SnapshotCursor<'a, Row>,
    ss: Subspace,
}

impl SnapshotPages for ShardedSnapshotPages<'_> {
    fn ts(&self) -> u64 {
        self.cursor.ts()
    }

    fn next_page(&mut self) -> Option<Vec<(u64, Row)>> {
        self.cursor.next_page().map(|page| {
            page.into_iter()
                .map(|(k, row)| (self.ss.payload(k), row))
                .collect()
        })
    }
}

/// One Leap-List per subspace on a shared domain (the original backend).
pub(crate) struct RawListStorage {
    /// `lists[s]` serves subspace `s`.
    lists: Vec<LeapListLt<Row>>,
}

impl RawListStorage {
    pub(crate) fn new(subspaces: usize, params: Params) -> Self {
        RawListStorage {
            lists: LeapListLt::group(subspaces, params),
        }
    }
}

impl TableStorage for RawListStorage {
    fn key_bits(&self) -> (u32, u32) {
        (32, 32)
    }

    fn apply(&self, ops: &[IndexOp]) {
        // Group per list, preserving input order within each group, then
        // commit every group in ONE locking transaction.
        let mut groups: Vec<Vec<BatchOp<Row>>> = vec![Vec::new(); self.lists.len()];
        for op in ops {
            groups[op.subspace()].push(match op {
                IndexOp::Put { key, row, .. } => BatchOp::Update(*key, row.clone()),
                IndexOp::Remove { key, .. } => BatchOp::Remove(*key),
            });
        }
        let mut lists: Vec<&LeapListLt<Row>> = Vec::new();
        let mut per_list: Vec<&[BatchOp<Row>]> = Vec::new();
        for (s, g) in groups.iter().enumerate() {
            if !g.is_empty() {
                lists.push(&self.lists[s]);
                per_list.push(g);
            }
        }
        LeapListLt::apply_batch_grouped(&lists, &per_list);
    }

    fn lookup(&self, subspace: usize, key: u64) -> Option<Row> {
        self.lists[subspace].lookup(key)
    }

    fn scan(&self, subspace: usize, lo: u64, hi: u64) -> Vec<(u64, Row)> {
        self.lists[subspace].range_query(lo, hi)
    }

    fn scan_page(&self, subspace: usize, lo: u64, hi: u64, limit: usize) -> Vec<(u64, Row)> {
        self.lists[subspace].range_page(lo, hi, limit)
    }

    fn count(&self, subspace: usize, lo: u64, hi: u64) -> usize {
        self.lists[subspace].count_range(lo, hi)
    }

    fn snapshot_pages<'a>(
        &'a self,
        subspace: usize,
        lo: u64,
        hi: u64,
        page_size: usize,
    ) -> Box<dyn SnapshotPages + 'a> {
        let list = &self.lists[subspace];
        Box::new(RawSnapshotPages {
            snap: list.pin_snapshot(),
            list,
            hi,
            next: (lo <= hi).then_some(lo),
            page_size,
        })
    }
}

/// All subspaces in one [`LeapStore`] under prefix tags (the sharded
/// backend; see module docs).
pub(crate) struct ShardedStorage {
    store: Arc<LeapStore<Row>>,
    /// `tags[s]` is subspace `s`'s tagged key region.
    tags: Vec<Subspace>,
}

impl ShardedStorage {
    /// A store carving `subspaces` tagged regions over `shards` range-
    /// partitioned shards. With `shards == subspaces` (the default the
    /// table picks) each subspace initially owns exactly one shard; the
    /// rebalancer splits further when an index grows hot.
    pub(crate) fn new(
        subspaces: usize,
        shards: usize,
        params: Params,
        rebalance: RebalancePolicy,
    ) -> Self {
        let tags: Vec<Subspace> = (0..subspaces)
            // INVARIANT: the table layer derives `subspaces` from the schema,
            // whose column count is validated to fit a u8 tag.
            .map(|t| Subspace::new(u8::try_from(t).expect("at most 255 subspaces")))
            .collect();
        let store = LeapStore::new(
            StoreConfig::new(shards, Partitioning::Range)
                .with_key_space(Subspace::key_space(subspaces))
                .with_params(params)
                .with_rebalancing(rebalance),
        );
        ShardedStorage {
            store: Arc::new(store),
            tags,
        }
    }
}

impl TableStorage for ShardedStorage {
    fn key_bits(&self) -> (u32, u32) {
        // 8-bit tag + 28-bit value + 28-bit row id = 64.
        (28, 28)
    }

    fn apply(&self, ops: &[IndexOp]) {
        // ONE Store::apply call: the store groups the tagged keys onto
        // their shards (source/destination pairs mid-migration) and
        // commits everything in a single cross-list transaction.
        let batch: Vec<BatchOp<Row>> = ops
            .iter()
            .map(|op| match op {
                IndexOp::Put { subspace, key, row } => {
                    BatchOp::Update(self.tags[*subspace].key(*key), row.clone())
                }
                IndexOp::Remove { subspace, key } => {
                    BatchOp::Remove(self.tags[*subspace].key(*key))
                }
            })
            .collect();
        self.store.apply(&batch);
    }

    fn lookup(&self, subspace: usize, key: u64) -> Option<Row> {
        self.store.get(self.tags[subspace].key(key))
    }

    fn scan(&self, subspace: usize, lo: u64, hi: u64) -> Vec<(u64, Row)> {
        let ss = self.tags[subspace];
        self.store
            .range(ss.key(lo), ss.key(hi))
            .into_iter()
            .map(|(k, row)| (ss.payload(k), row))
            .collect()
    }

    fn scan_page(&self, subspace: usize, lo: u64, hi: u64, limit: usize) -> Vec<(u64, Row)> {
        let ss = self.tags[subspace];
        // Route through the store's paged Cursor: one bounded
        // linearizable snapshot read for this page.
        self.store
            .scan_pages(ss.key(lo), ss.key(hi), limit)
            .next()
            .unwrap_or_default()
            .into_iter()
            .map(|(k, row)| (ss.payload(k), row))
            .collect()
    }

    fn count(&self, subspace: usize, lo: u64, hi: u64) -> usize {
        let ss = self.tags[subspace];
        self.store.count_range(ss.key(lo), ss.key(hi))
    }

    fn snapshot_pages<'a>(
        &'a self,
        subspace: usize,
        lo: u64,
        hi: u64,
        page_size: usize,
    ) -> Box<dyn SnapshotPages + 'a> {
        let ss = self.tags[subspace];
        Box::new(ShardedSnapshotPages {
            cursor: self
                .store
                .scan_snapshot_pages(ss.key(lo), ss.key(hi), page_size),
            ss,
        })
    }

    fn store(&self) -> Option<&Arc<LeapStore<Row>>> {
        Some(&self.store)
    }
}

/// How a [`crate::Table`] stores its indexes — raw per-index Leap-Lists,
/// or one sharded [`LeapStore`] with prefix-tagged subspaces.
#[derive(Debug, Clone)]
pub enum Backend {
    /// One Leap-List per index on a shared domain (the paper's §4 layout;
    /// the default).
    RawLists(Params),
    /// One range-partitioned [`LeapStore`]: subspace-tagged composite
    /// keys, cross-shard single-transaction index maintenance, paged
    /// index scans, and live resharding under a
    /// [`leap_store::Rebalancer`].
    Sharded {
        /// Per-shard Leap-List parameters.
        params: Params,
        /// Initial shard count; `None` picks one shard per subspace so
        /// the primary and every index start on their own shard.
        shards: Option<usize>,
        /// Policy for [`LeapStore::rebalance_step`] driven on the
        /// backing store.
        rebalance: RebalancePolicy,
    },
}

impl Backend {
    /// The sharded backend with default parameters and policy.
    pub fn sharded() -> Self {
        Backend::Sharded {
            params: Params::default(),
            shards: None,
            rebalance: RebalancePolicy::default(),
        }
    }

    pub(crate) fn build(&self, subspaces: usize) -> Box<dyn TableStorage> {
        match self {
            Backend::RawLists(params) => Box::new(RawListStorage::new(subspaces, params.clone())),
            Backend::Sharded {
                params,
                shards,
                rebalance,
            } => Box::new(ShardedStorage::new(
                subspaces,
                shards.unwrap_or(subspaces),
                params.clone(),
                rebalance.clone(),
            )),
        }
    }
}

impl Default for Backend {
    fn default() -> Self {
        Backend::RawLists(Params::default())
    }
}
