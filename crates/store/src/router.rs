//! The shard router: deterministic key → shard placement plus the inverse
//! question a range query asks — *which shards can hold keys in `[lo, hi]`?*
//!
//! Since live resharding landed, range-mode placement is no longer a fixed
//! arithmetic function but an **epoch-versioned routing table**
//! ([`RoutingEpoch`]): a sorted list of interval starts with one owning
//! shard slot per interval. Splitting a hot shard or merging a cold pair
//! installs a new table (epoch + 1) *after* the keys have migrated; while
//! migrations are in flight the router carries an **overlay set**
//! ([`MigrationState`], one per migration) naming each source, destination
//! and migrating sub-range, so the store can consult source-then-
//! destination for keys whose new home is still filling up.
//!
//! Overlays are **pairwise disjoint**: every in-flight migration moves a
//! suffix of a distinct source interval, and no shard slot participates in
//! two migrations at once ([`RebalanceError::SlotBusy`]), which makes the
//! ranges disjoint by construction. Linearizable reads therefore stamp
//! only the overlays *overlapping their own range* ([`OverlayStamp`]):
//! a migration of some other key range beginning or completing never
//! forces a retry.

use crate::interval::CompletionTree;
use crate::rebalance::RebalanceError;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// How the keyspace is partitioned across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// Keys scatter by a Fibonacci hash: uniform load under any key
    /// distribution, but every range query must visit every shard and the
    /// placement cannot be resharded (there are no contiguous sub-ranges
    /// to migrate).
    Hash,
    /// Contiguous slices of the keyspace: a range query visits only the
    /// shards whose slice overlaps it, at the cost of load skew when the
    /// workload is skewed — which live resharding repairs online.
    Range,
}

/// One version of the range-mode routing table: interval `i` is
/// `[starts[i], starts[i+1])` (the last interval extends to the end of the
/// keyspace) and is owned by shard slot `owners[i]`.
///
/// Tables are immutable; resharding installs a whole new table with
/// `epoch + 1`. Every live slot owns **at most one contiguous interval**
/// (slots emptied by a merge own none until a later split reuses them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingEpoch {
    /// Version counter; bumped by every completed split or merge.
    pub epoch: u64,
    /// Ascending interval starts; `starts[0] == 0`.
    starts: Vec<u64>,
    /// Owning shard slot per interval.
    owners: Vec<usize>,
}

impl RoutingEpoch {
    fn initial(shards: usize, key_space: u64) -> Self {
        // Stride >= 1 keeps the starts strictly ascending even in the
        // degenerate key_space < shards geometry, matching the arithmetic
        // router this table replaced.
        let stride = (key_space / shards as u64).max(1);
        RoutingEpoch {
            epoch: 0,
            starts: (0..shards as u64).map(|s| s * stride).collect(),
            owners: (0..shards).collect(),
        }
    }

    /// Index of the interval holding `key`.
    fn interval_index(&self, key: u64) -> usize {
        self.starts.partition_point(|s| *s <= key) - 1
    }

    /// The slot owning `key`.
    pub fn owner_of(&self, key: u64) -> usize {
        self.owners[self.interval_index(key)]
    }

    /// The inclusive end of interval `i` (the last interval runs to
    /// `u64::MAX - 1`; `u64::MAX` is the reserved sentinel key).
    fn interval_end(&self, i: usize) -> u64 {
        if i + 1 < self.starts.len() {
            self.starts[i + 1] - 1
        } else {
            u64::MAX - 1
        }
    }

    /// The contiguous interval slot `s` owns, if any.
    pub fn interval_of(&self, s: usize) -> Option<(u64, u64)> {
        self.owners
            .iter()
            .position(|&o| o == s)
            .map(|i| (self.starts[i], self.interval_end(i)))
    }

    /// `(slot, lo, hi)` for every interval overlapping `[lo, hi]`, in key
    /// order, each clipped to the query.
    pub fn overlapping(&self, lo: u64, hi: u64) -> Vec<(usize, u64, u64)> {
        if lo > hi {
            return Vec::new();
        }
        let first = self.interval_index(lo);
        let last = self.interval_index(hi);
        (first..=last)
            .map(|i| {
                (
                    self.owners[i],
                    self.starts[i].max(lo),
                    self.interval_end(i).min(hi),
                )
            })
            .collect()
    }

    /// All `(slot, lo, hi)` intervals, in key order (diagnostics).
    pub fn intervals(&self) -> Vec<(usize, u64, u64)> {
        (0..self.starts.len())
            .map(|i| (self.owners[i], self.starts[i], self.interval_end(i)))
            .collect()
    }

    /// The table after moving ownership of `[lo, hi]` — a suffix of
    /// `src`'s interval — to `dst`, with adjacent same-owner intervals
    /// coalesced and the epoch bumped.
    fn transferred(&self, lo: u64, hi: u64, src: usize, dst: usize) -> Self {
        let i = self.interval_index(lo);
        debug_assert_eq!(self.owners[i], src, "migration source must own lo");
        debug_assert_eq!(self.interval_end(i), hi, "migrations move suffixes");
        let mut starts = self.starts.clone();
        let mut owners = self.owners.clone();
        if starts[i] == lo {
            owners[i] = dst;
        } else {
            starts.insert(i + 1, lo);
            owners.insert(i + 1, dst);
        }
        // Coalesce: a transfer can make neighbours share an owner.
        let mut cs: Vec<u64> = Vec::with_capacity(starts.len());
        let mut co: Vec<usize> = Vec::with_capacity(owners.len());
        for (s, o) in starts.into_iter().zip(owners) {
            if co.last() == Some(&o) {
                continue;
            }
            cs.push(s);
            co.push(o);
        }
        RoutingEpoch {
            epoch: self.epoch + 1,
            starts: cs,
            owners: co,
        }
    }
}

/// An in-flight key migration: one member of the overlay set the router
/// superimposes on the current [`RoutingEpoch`] while `[lo, hi]` moves
/// from `src` to `dst`.
///
/// Invariant maintained by the store: at every instant each key in
/// `[lo, hi]` is present in **exactly one** of the two lists (moves and
/// in-range writes are single cross-list transactions), so readers that
/// consult source-then-destination never see a key absent or doubled.
#[derive(Debug)]
pub struct MigrationState {
    /// Unique, monotone overlay identity (never reused, so a stamp can
    /// never confuse a completed migration with a later identical one).
    pub(crate) id: u64,
    /// Slot keys migrate out of (the current table owner of `[lo, hi]`).
    pub src: usize,
    /// Slot keys migrate into (owner once the next epoch installs).
    pub dst: usize,
    /// First key of the migrating sub-range.
    pub lo: u64,
    /// Last key (inclusive) of the migrating sub-range.
    pub hi: u64,
    /// Keys at or above `lo` and below the frontier have been drained from
    /// `src` (advisory — routing correctness never depends on it).
    pub(crate) frontier: AtomicU64,
    /// Keys moved so far.
    pub(crate) moved: AtomicU64,
    /// Serializes the chunk mover against writers targeting `[lo, hi]`:
    /// both read the source's current state and commit a cross-list
    /// transaction, which must not interleave (a chunk move committing a
    /// stale value over a racing write would lose the write).
    pub(crate) write_lock: Mutex<()>,
    /// Set (under `write_lock`) when the migration is being rolled back:
    /// in-range writes then land in `src` (clearing any `dst` copy) and
    /// lookups consult destination-then-source, mirroring the reversed
    /// drain direction. Participates in the overlay stamp, so a flip
    /// forces concurrent stamped reads to retry.
    pub(crate) aborting: AtomicBool,
    /// Consecutive drain steps that failed to advance the frontier (e.g.
    /// injected chunk faults); reset by every successful chunk. The
    /// rebalance watchdog force-resolves the migration once this crosses
    /// [`crate::RebalancePolicy::watchdog_stalls`].
    pub(crate) stalls: AtomicU32,
}

/// A read-only snapshot of an in-flight migration (stats, tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationView {
    /// Migration id — the handle [`crate::LeapStore::abort_migration`]
    /// takes.
    pub id: u64,
    /// Source slot.
    pub src: usize,
    /// Destination slot.
    pub dst: usize,
    /// Migrating sub-range start.
    pub lo: u64,
    /// Migrating sub-range end (inclusive).
    pub hi: u64,
    /// Keys moved so far.
    pub moved: u64,
}

/// Where a write must go: its table owner, or — for a key inside an
/// in-flight migration — the source/destination pair it must update as one
/// cross-list transaction.
pub(crate) enum WriteRoute {
    Direct(usize),
    Migrating(Arc<MigrationState>),
}

/// The **range-scoped** overlay identity a linearizable read of `[lo, hi]`
/// captures before planning and re-checks after committing: equal stamps
/// mean no migration *overlapping the read's range* began or completed in
/// between, so the planned list set was exhaustive for the whole read.
///
/// Two monotone-protected components make equality sound:
///
/// * `overlays` — the unique ids of in-flight migrations overlapping the
///   range. Ids are never reused, so "the same overlay set" really means
///   the same overlays (no ABA through complete-then-identical-rebegin).
/// * `completed` — the newest completion sequence number among completed
///   migrations overlapping the range, answered exactly by the router's
///   completion interval tree. Completions only insert with increasing
///   sequence numbers, so any overlapping completion between the two
///   stamps raises it — and a completion elsewhere never moves it (the
///   tree never widens a stored range).
///
/// A migration of a *disjoint* range changes neither component — its
/// begin/complete bumps the global epoch but cannot change where the
/// read's own keys live (a transfer only reassigns ownership inside the
/// migrated range; clipped to any disjoint range the table is unchanged).
#[derive(PartialEq, Eq, Clone, Debug)]
pub(crate) struct OverlayStamp {
    overlays: Vec<u64>,
    completed: u64,
}

/// The migration overlay set plus the completion log, guarded together so
/// a stamp sees a consistent pair.
#[derive(Debug, Default)]
struct OverlaySet {
    /// In-flight migrations, sorted by `lo`; pairwise disjoint ranges and
    /// pairwise disjoint `{src, dst}` slot sets.
    inflight: Vec<Arc<MigrationState>>,
    /// Completed migration ranges, stored exactly (no cap, no
    /// gap-spanning coalescing) — see [`CompletionTree`].
    completed: CompletionTree,
    /// Monotone id source for new migrations.
    next_id: u64,
    /// Monotone completion sequence (1 for the first completion).
    completed_seq: u64,
    /// Most concurrent in-flight migrations ever observed.
    peak_inflight: u64,
}

impl OverlaySet {
    /// Records a completed migration's range in the interval tree under
    /// the next completion sequence number.
    fn log_completion(&mut self, lo: u64, hi: u64) {
        self.completed_seq += 1;
        self.completed.insert(lo, hi, self.completed_seq);
    }

    /// The newest completion sequence overlapping `[lo, hi]` (0 if none).
    fn completed_overlapping(&self, lo: u64, hi: u64) -> u64 {
        self.completed.max_seq_overlapping(lo, hi)
    }
}

/// Routes keys to shard slots.
///
/// # Example
///
/// ```
/// use leap_store::{Partitioning, Router};
/// let r = Router::new(Partitioning::Range, 4, 1000);
/// assert_eq!(r.shard_of(0), 0);
/// assert_eq!(r.shard_of(999), 3);
/// assert_eq!(r.shards_for_range(0, 249), vec![0]);
/// assert_eq!(r.shards_for_range(200, 600), vec![0, 1, 2]);
/// assert_eq!(r.epoch(), 0);
/// ```
#[derive(Debug)]
pub struct Router {
    mode: Partitioning,
    /// Total shard slots (grows when a split allocates a new shard).
    slots: AtomicUsize,
    /// Current routing table (range mode; hash mode routes arithmetically).
    table: RwLock<Arc<RoutingEpoch>>,
    /// The in-flight migration overlay set plus the completion log.
    overlays: RwLock<OverlaySet>,
    /// Writer gate: every write holds it shared for the whole op; starting
    /// or completing a migration holds it exclusively for the instant the
    /// overlay or table flips. This drains writes that routed under the
    /// old view before the migration driver trusts the new one.
    gate: RwLock<()>,
}

impl Router {
    /// Creates a router over `shards` shards. `key_space` bounds the keys
    /// the contiguous mode slices evenly; keys at or beyond it fall in the
    /// trailing shards (exactly the last shard whenever
    /// `key_space >= shards`, the non-degenerate configuration). Hash mode
    /// ignores it.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `key_space` is zero.
    pub fn new(mode: Partitioning, shards: usize, key_space: u64) -> Self {
        assert!(shards > 0, "a store needs at least one shard");
        assert!(key_space > 0, "key_space must be non-zero");
        Router {
            mode,
            slots: AtomicUsize::new(shards),
            table: RwLock::new(Arc::new(RoutingEpoch::initial(shards, key_space))),
            overlays: RwLock::new(OverlaySet::default()),
            gate: RwLock::new(()),
        }
    }

    /// Number of shard slots (including any emptied by merges and not yet
    /// reused by splits).
    pub fn shards(&self) -> usize {
        self.slots.load(Ordering::Acquire)
    }

    /// The partitioning mode.
    pub fn mode(&self) -> Partitioning {
        self.mode
    }

    /// The current routing-table version (0 until the first completed
    /// split or merge; hash mode never reshards).
    pub fn epoch(&self) -> u64 {
        self.routing().epoch
    }

    /// A snapshot of the current routing table.
    pub fn routing(&self) -> Arc<RoutingEpoch> {
        self.table
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// A snapshot of one in-flight migration (the lowest-keyed one), if
    /// any is running. See [`Router::migrations`] for the full overlay
    /// set.
    pub fn migration(&self) -> Option<MigrationView> {
        self.migrations().into_iter().next()
    }

    /// Snapshots of every in-flight migration, in key order.
    pub fn migrations(&self) -> Vec<MigrationView> {
        self.overlay_states()
            .iter()
            .map(|m| MigrationView {
                id: m.id,
                src: m.src,
                dst: m.dst,
                lo: m.lo,
                hi: m.hi,
                // ORDERING: progress gauge; staleness only lags the report.
                moved: m.moved.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Most concurrent in-flight migrations ever observed.
    pub fn peak_concurrent_migrations(&self) -> u64 {
        self.overlays_read().peak_inflight
    }

    fn overlays_read(&self) -> std::sync::RwLockReadGuard<'_, OverlaySet> {
        self.overlays
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The whole in-flight overlay set, sorted by `lo`.
    pub(crate) fn overlay_states(&self) -> Vec<Arc<MigrationState>> {
        self.overlays_read().inflight.clone()
    }

    /// The in-flight overlay covering `key`, if any.
    pub(crate) fn overlay_for(&self, key: u64) -> Option<Arc<MigrationState>> {
        self.overlays_read()
            .inflight
            .iter()
            .find(|m| (m.lo..=m.hi).contains(&key))
            .cloned()
    }

    /// Every in-flight overlay overlapping `[lo, hi]`, in key order.
    pub(crate) fn overlays_overlapping(&self, lo: u64, hi: u64) -> Vec<Arc<MigrationState>> {
        self.overlays_read()
            .inflight
            .iter()
            .filter(|m| m.lo <= hi && lo <= m.hi)
            .cloned()
            .collect()
    }

    /// The shard owning `key` **per the current table** (an in-flight
    /// migration does not change ownership until it completes). Total:
    /// every key maps to exactly one slot.
    pub fn shard_of(&self, key: u64) -> usize {
        match self.mode {
            Partitioning::Hash => {
                // Fibonacci multiply then fold the high bits in, so both
                // low- and high-entropy keys spread.
                let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h ^ (h >> 32)) % self.shards() as u64) as usize
            }
            Partitioning::Range => self.routing().owner_of(key),
        }
    }

    /// Every shard that may hold a key in `[lo, hi]` per the current
    /// table, in key order (which is ascending slot order until the first
    /// reshard permutes interval ownership). Empty when `lo > hi`; hash
    /// mode scatters, so every slot overlaps every range. Does **not**
    /// include an in-flight migration's destination — linearizable reads
    /// use the store's overlay-aware visit plan.
    pub fn shards_for_range(&self, lo: u64, hi: u64) -> Vec<usize> {
        if lo > hi {
            return Vec::new();
        }
        match self.mode {
            Partitioning::Hash => (0..self.shards()).collect(),
            Partitioning::Range => self
                .routing()
                .overlapping(lo, hi)
                .into_iter()
                .map(|(s, _, _)| s)
                .collect(),
        }
    }

    /// Every shard a scan of `subspace` visits per the current table — the
    /// placement question a prefix-tagged index asks. Equivalent to
    /// [`Router::shards_for_range`] over the subspace's key interval.
    pub fn shards_for_subspace(&self, subspace: &crate::Subspace) -> Vec<usize> {
        self.shards_for_range(subspace.lo(), subspace.hi())
    }

    /// The inclusive key interval slot `s` owns per the current table.
    /// `None` in hash mode (ownership is scattered) and for range-mode
    /// slots that currently own no interval (emptied by a merge).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of bounds.
    pub fn shard_interval(&self, s: usize) -> Option<(u64, u64)> {
        assert!(s < self.shards(), "shard {s} out of bounds");
        match self.mode {
            Partitioning::Hash => None,
            Partitioning::Range => self.routing().interval_of(s),
        }
    }

    /// Registers a new (initially interval-less) shard slot; returns its
    /// index. The store grows its shard vector in lock step.
    pub(crate) fn add_slot(&self) -> usize {
        self.slots.fetch_add(1, Ordering::AcqRel)
    }

    /// Where a write to `key` must go right now. The caller must hold the
    /// writer gate ([`Router::enter_write`]) across both this decision and
    /// the write itself.
    pub(crate) fn write_route(&self, key: u64) -> WriteRoute {
        if let Some(m) = self.overlay_for(key) {
            return WriteRoute::Migrating(m);
        }
        WriteRoute::Direct(self.shard_of(key))
    }

    /// Shared hold on the writer gate for the duration of one write.
    pub(crate) fn enter_write(&self) -> std::sync::RwLockReadGuard<'_, ()> {
        self.gate
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The overlay identity of `[lo, hi]` for linearizable multi-shard
    /// reads (see [`OverlayStamp`]). Capture it **before** planning the
    /// visit (it must precede the table read the plan derives from) and
    /// compare after pinning the snapshot the plan is read at.
    pub(crate) fn overlay_stamp(&self, lo: u64, hi: u64) -> OverlayStamp {
        let set = self.overlays_read();
        OverlayStamp {
            overlays: set
                .inflight
                .iter()
                .filter(|m| m.lo <= hi && lo <= m.hi)
                // The aborting bit rides along: reversing a migration's
                // drain direction mid-read must invalidate the stamp just
                // like the overlay appearing or vanishing would.
                .map(|m| (m.id << 1) | m.aborting.load(Ordering::Acquire) as u64)
                .collect(),
            completed: set.completed_overlapping(lo, hi),
        }
    }

    /// Installs a migration overlay for `[lo, hi]`, a suffix of `src`'s
    /// owned interval, headed for `dst`. Fails in hash mode, when either
    /// slot already participates in an in-flight migration, when the
    /// geometry is wrong, or when the transfer would leave `dst` owning a
    /// non-contiguous key set.
    ///
    /// Disjointness: in-flight migrations move suffixes of **distinct**
    /// source intervals (the slot-busy check rejects a shared source or
    /// destination), so their key ranges can never overlap — which is
    /// what lets reads stamp only the overlays over their own range.
    pub(crate) fn begin_migration(
        &self,
        src: usize,
        dst: usize,
        lo: u64,
    ) -> Result<Arc<MigrationState>, RebalanceError> {
        if self.mode != Partitioning::Range {
            return Err(RebalanceError::HashPartitioning);
        }
        let slots = self.shards();
        if src >= slots || dst >= slots || src == dst {
            return Err(RebalanceError::BadShard);
        }
        // Exclusive gate: after this returns, every in-flight write that
        // routed under the previous overlay view has committed, so the
        // chunk mover can trust that all in-range writes go through the
        // new overlay.
        let _g = self
            .gate
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut set = self
            .overlays
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if set
            .inflight
            .iter()
            .any(|m| [m.src, m.dst].iter().any(|&s| s == src || s == dst))
        {
            return Err(RebalanceError::SlotBusy);
        }
        let table = self.routing();
        let (slo, shi) = table
            .interval_of(src)
            .ok_or(RebalanceError::NothingToMove)?;
        if !(slo..=shi).contains(&lo) {
            return Err(RebalanceError::BadSplitKey);
        }
        // dst must stay contiguous: it owns nothing, or its interval abuts
        // the migrating range (shi <= u64::MAX - 1, so shi + 1 is safe).
        if let Some((dlo, dhi)) = table.interval_of(dst) {
            let abuts = dlo == shi + 1 || (lo > 0 && dhi == lo - 1);
            if !abuts {
                return Err(RebalanceError::NonAdjacent);
            }
        }
        debug_assert!(
            set.inflight.iter().all(|m| shi < m.lo || m.hi < lo),
            "slot-disjoint migrations must be range-disjoint"
        );
        set.next_id += 1;
        let m = Arc::new(MigrationState {
            id: set.next_id,
            src,
            dst,
            lo,
            hi: shi,
            frontier: AtomicU64::new(lo),
            moved: AtomicU64::new(0),
            write_lock: Mutex::new(()),
            aborting: AtomicBool::new(false),
            stalls: AtomicU32::new(0),
        });
        let at = set.inflight.partition_point(|o| o.lo < lo);
        set.inflight.insert(at, m.clone());
        set.peak_inflight = set.peak_inflight.max(set.inflight.len() as u64);
        Ok(m)
    }

    /// The in-flight overlay with migration id `id`, if any.
    pub(crate) fn overlay_by_id(&self, id: u64) -> Option<Arc<MigrationState>> {
        self.overlays_read()
            .inflight
            .iter()
            .find(|m| m.id == id)
            .cloned()
    }

    /// Installs the post-migration table (epoch + 1), removes `m` from
    /// the overlay set and logs its range in the completion log. The
    /// caller must have fully drained `[m.lo, m.hi]` out of the source
    /// list first. Returns the new epoch.
    ///
    /// # Errors
    ///
    /// [`RebalanceError::NoSuchMigration`] if `m` is no longer installed —
    /// e.g. a concurrent [`Router::cancel_migration`] already removed it.
    /// The table is untouched in that case.
    pub(crate) fn complete_migration(
        &self,
        m: &Arc<MigrationState>,
    ) -> Result<u64, RebalanceError> {
        // Exclusive gate: writes that routed under the overlay have
        // committed before ownership flips; later writes route directly
        // to the destination.
        let _g = self
            .gate
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut set = self
            .overlays
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let at = set
            .inflight
            .iter()
            .position(|cur| Arc::ptr_eq(cur, m))
            .ok_or(RebalanceError::NoSuchMigration)?;
        set.inflight.remove(at);
        set.log_completion(m.lo, m.hi);
        let mut table = self
            .table
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let next = table.transferred(m.lo, m.hi, m.src, m.dst);
        let epoch = next.epoch;
        *table = Arc::new(next);
        Ok(epoch)
    }

    /// Removes `m` from the overlay set **without** flipping the routing
    /// table: ownership of `[m.lo, m.hi]` stays with `m.src`. The caller
    /// (the store's migration abort) must have moved every in-range key
    /// back into the source list first. The removal changes the overlay
    /// stamp of any read overlapping the range, forcing those reads to
    /// retry against the restored single-list placement.
    ///
    /// # Errors
    ///
    /// [`RebalanceError::NoSuchMigration`] if `m` is not installed.
    pub(crate) fn cancel_migration(&self, m: &Arc<MigrationState>) -> Result<(), RebalanceError> {
        // Exclusive gate, like completion: in-flight writes that routed
        // under the overlay commit before it vanishes, and later writes
        // route directly to the (unchanged) table owner.
        let _g = self
            .gate
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut set = self
            .overlays
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let at = set
            .inflight
            .iter()
            .position(|cur| Arc::ptr_eq(cur, m))
            .ok_or(RebalanceError::NoSuchMigration)?;
        set.inflight.remove(at);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_mode_is_contiguous_and_total() {
        let r = Router::new(Partitioning::Range, 8, 1 << 20);
        let mut last = 0;
        for k in (0..(1u64 << 20)).step_by(997) {
            let s = r.shard_of(k);
            assert!(s < 8);
            assert!(s >= last, "shard ids must be monotone in the key");
            last = s;
        }
        // Keys beyond the declared key space clamp to the last shard.
        assert_eq!(r.shard_of(u64::MAX - 1), 7);
    }

    #[test]
    fn hash_mode_spreads_sequential_keys() {
        let r = Router::new(Partitioning::Hash, 8, 1 << 20);
        let mut hit = [false; 8];
        for k in 0..64u64 {
            hit[r.shard_of(k)] = true;
        }
        assert!(
            hit.iter().all(|h| *h),
            "64 sequential keys must touch all 8 shards"
        );
    }

    #[test]
    fn range_queries_visit_overlapping_shards_only() {
        let r = Router::new(Partitioning::Range, 4, 1000);
        assert_eq!(r.shards_for_range(0, 999), vec![0, 1, 2, 3]);
        assert_eq!(r.shards_for_range(250, 499), vec![1]);
        assert_eq!(r.shards_for_range(5, 3), Vec::<usize>::new());
        let rh = Router::new(Partitioning::Hash, 4, 1000);
        assert_eq!(rh.shards_for_range(250, 499), vec![0, 1, 2, 3]);
        assert_eq!(rh.shards_for_range(5, 3), Vec::<usize>::new());
    }

    #[test]
    fn intervals_tile_the_keyspace() {
        let r = Router::new(Partitioning::Range, 5, 100);
        let mut next = 0u64;
        for s in 0..5 {
            let (lo, hi) = r.shard_interval(s).unwrap();
            assert_eq!(lo, next);
            assert!(hi >= lo);
            next = hi + 1;
        }
        assert!(Router::new(Partitioning::Hash, 5, 100)
            .shard_interval(2)
            .is_none());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        Router::new(Partitioning::Hash, 0, 100);
    }

    #[test]
    fn split_then_merge_roundtrips_the_table() {
        let r = Router::new(Partitioning::Range, 2, 1000);
        assert_eq!(r.epoch(), 0);
        // Split shard 0's [0, 499] at 250 into a fresh slot.
        let s = r.add_slot();
        assert_eq!(s, 2);
        let m = r.begin_migration(0, 2, 250).expect("valid split");
        assert_eq!((m.lo, m.hi), (250, 499));
        assert_eq!(r.shard_of(300), 0, "ownership flips only at completion");
        assert!(r.migration().is_some());
        assert_eq!(r.complete_migration(&m).unwrap(), 1);
        assert_eq!(r.shard_of(300), 2);
        assert_eq!(r.shard_of(200), 0);
        assert_eq!(r.shard_of(700), 1);
        assert_eq!(r.shards_for_range(0, 999), vec![0, 2, 1]);
        assert!(r.migration().is_none());
        // Merge slot 2 back into slot 0 (adjacent on the left).
        let m = r.begin_migration(2, 0, 250).expect("valid merge");
        assert_eq!(r.complete_migration(&m).unwrap(), 2);
        assert_eq!(r.shard_of(300), 0);
        assert_eq!(r.shard_interval(2), None, "slot 2 owns nothing now");
        assert_eq!(
            r.routing().intervals(),
            vec![(0, 0, 499), (1, 500, u64::MAX - 1)],
            "coalesced back to two intervals"
        );
    }

    #[test]
    fn migration_rejects_bad_geometry() {
        let r = Router::new(Partitioning::Range, 4, 1000);
        assert!(matches!(
            r.begin_migration(0, 0, 10),
            Err(RebalanceError::BadShard)
        ));
        assert!(matches!(
            r.begin_migration(0, 9, 10),
            Err(RebalanceError::BadShard)
        ));
        assert!(matches!(
            r.begin_migration(0, 2, 100),
            Err(RebalanceError::NonAdjacent),
        ));
        assert!(matches!(
            r.begin_migration(0, 1, 900),
            Err(RebalanceError::BadSplitKey)
        ));
        let m = r.begin_migration(0, 1, 100).expect("suffix into neighbour");
        // A second migration sharing either slot is refused...
        for (src, dst, lo) in [(1, 2, 300), (0, 3, 100)] {
            assert!(matches!(
                r.begin_migration(src, dst, lo),
                Err(RebalanceError::SlotBusy)
            ));
        }
        // ...but a slot-disjoint one runs concurrently.
        let m2 = r.begin_migration(2, 3, 600).expect("disjoint migration");
        assert_eq!(r.migrations().len(), 2);
        assert_eq!(r.peak_concurrent_migrations(), 2);
        r.complete_migration(&m).unwrap();
        r.complete_migration(&m2).unwrap();
        assert_eq!(r.shard_of(150), 1);
        assert_eq!(r.shard_of(650), 3);
        let rh = Router::new(Partitioning::Hash, 4, 1000);
        assert!(matches!(
            rh.begin_migration(0, 1, 10),
            Err(RebalanceError::HashPartitioning)
        ));
    }

    /// The acceptance property of the range-scoped stamp: a read over one
    /// overlay's range must not retry when a *disjoint* overlay begins or
    /// completes — only events overlapping its own range move the stamp.
    #[test]
    fn stamp_ignores_disjoint_overlay_flips() {
        let r = Router::new(Partitioning::Range, 4, 1000);
        let a = r.begin_migration(0, 1, 100).expect("overlay A [100,249]");
        let before = r.overlay_stamp(120, 200);
        // Overlay B over a disjoint range begins and completes: the
        // A-range stamp must not move.
        let b = r.begin_migration(2, 3, 600).expect("overlay B [600,749]");
        assert_eq!(r.overlay_stamp(120, 200), before, "B began: no move");
        r.complete_migration(&b).unwrap();
        assert_eq!(r.overlay_stamp(120, 200), before, "B completed: no move");
        // A stamp straddling B's range does see both events.
        assert_ne!(r.overlay_stamp(120, 700), r.overlay_stamp(120, 200));
        // Completing A moves the A-range stamp (overlay gone AND the
        // completion log now overlaps).
        r.complete_migration(&a).unwrap();
        let after = r.overlay_stamp(120, 200);
        assert_ne!(after, before);
        // Re-beginning an identical-looking migration yields a fresh id:
        // no ABA back to any earlier stamp.
        let a2 = r.begin_migration(1, 0, 100).expect("merge back");
        r.complete_migration(&a2).unwrap();
        let a3 = r.begin_migration(0, 1, 100).expect("same shape as A");
        assert_ne!(r.overlay_stamp(120, 200), before);
        r.complete_migration(&a3).unwrap();
    }

    /// Cancellation semantics: the overlay vanishes but ownership never
    /// flips — and the aborting bit moves the stamp *before* removal, so
    /// a read that raced the abort is forced to retry.
    #[test]
    fn cancel_removes_the_overlay_without_flipping_the_table() {
        let r = Router::new(Partitioning::Range, 2, 1000);
        let s = r.add_slot();
        let m = r.begin_migration(0, s, 250).expect("valid split");
        assert!(r.overlay_by_id(m.id).is_some());
        let clean = r.overlay_stamp(250, 499);
        // Flagging the overlay as aborting flips the stamp's low bit even
        // before removal: mid-abort stamped reads can't validate.
        m.aborting.store(true, Ordering::Release);
        let aborting = r.overlay_stamp(250, 499);
        assert_ne!(aborting, clean);
        r.cancel_migration(&m).expect("installed overlay cancels");
        assert_eq!(r.epoch(), 0, "cancel must not flip the routing table");
        assert_eq!(r.shard_of(300), 0, "ownership stays with the source");
        assert!(r.migration().is_none());
        assert!(r.overlay_by_id(m.id).is_none());
        let gone = r.overlay_stamp(250, 499);
        assert!(gone != clean && gone != aborting, "removal moves the stamp");
        // Gone means gone: double-cancel and complete-after-cancel both
        // report NoSuchMigration, and the table stays untouched.
        assert!(matches!(
            r.cancel_migration(&m),
            Err(RebalanceError::NoSuchMigration)
        ));
        assert!(matches!(
            r.complete_migration(&m),
            Err(RebalanceError::NoSuchMigration)
        ));
        assert_eq!(r.epoch(), 0);
        // The slots are immediately reusable, under a fresh id (no ABA).
        let m2 = r.begin_migration(0, s, 250).expect("slots free again");
        assert_ne!(m2.id, m.id);
        assert_eq!(r.complete_migration(&m2).unwrap(), 1);
        assert_eq!(r.shard_of(300), s);
    }

    /// The completion log is an exact interval tree: overlapping
    /// completions overwrite (newest seq wins on the overlap), while
    /// ranges no completion ever covered always answer 0 — there is no
    /// cap whose overflow used to smear entries across the gaps.
    #[test]
    fn completion_log_is_exact_and_unbounded() {
        let mut set = OverlaySet::default();
        set.log_completion(10, 19);
        set.log_completion(30, 39);
        set.log_completion(20, 25);
        assert_eq!(set.completed_overlapping(0, 9), 0);
        assert_eq!(set.completed_overlapping(12, 14), 1);
        assert_eq!(set.completed_overlapping(25, 28), 3);
        assert_eq!(set.completed_overlapping(26, 29), 0, "the gap stays a gap");
        assert_eq!(set.completed_overlapping(30, 100), 2);
        // A later completion covering part of an old range wins there,
        // and only there.
        set.log_completion(35, 50);
        assert_eq!(set.completed_overlapping(30, 34), 2);
        assert_eq!(set.completed_overlapping(36, 60), 4);
        // Monotone: the newest logged seq is always reachable.
        assert_eq!(
            set.completed_overlapping(0, u64::MAX - 1),
            set.completed_seq
        );
    }

    /// Regression (ROADMAP carry-over): with the old 32-entry coalescing
    /// log, 100+ disjoint completed migrations overflowed the cap and the
    /// closest-gap merges swallowed the gaps between them — a read over a
    /// never-migrated range then saw its stamp move on every unrelated
    /// completion and retried for nothing. The interval tree keeps every
    /// range exact: stamps outside all migrated ranges never move.
    #[test]
    fn disjoint_completions_never_move_disjoint_stamps() {
        let r = Router::new(Partitioning::Range, 4, 1000);
        // A read range no migration will ever touch.
        let quiet_before = r.overlay_stamp(900, 950);
        let mut set = OverlaySet::default();
        for i in 0..150u64 {
            set.log_completion(1_000 + 20 * i, 1_009 + 20 * i);
        }
        // Every migrated range answers its own completion...
        assert_eq!(set.completed_overlapping(1_000, 1_009), 1);
        assert_eq!(set.completed_overlapping(1_000 + 20 * 149, 2_000_000), 150);
        // ...and every gap between them answers 0: a read outside every
        // migrated range is untouched by all 150 completions.
        for i in 0..149u64 {
            assert_eq!(
                set.completed_overlapping(1_010 + 20 * i, 1_019 + 20 * i),
                0,
                "gap {i} must stay clean after 150 disjoint completions"
            );
        }
        // End-to-end through the router: complete two real migrations on
        // disjoint ranges; the quiet range's stamp never moves.
        let m = r.begin_migration(0, 1, 100).expect("suffix migration");
        let m2 = r.begin_migration(2, 3, 600).expect("disjoint migration");
        r.complete_migration(&m).unwrap();
        r.complete_migration(&m2).unwrap();
        assert_eq!(
            r.overlay_stamp(900, 950),
            quiet_before,
            "completions on [100,249] and [600,749] must not stamp [900,950]"
        );
    }

    #[test]
    fn degenerate_key_space_still_tiles() {
        // key_space < shards: stride clamps to 1, keys 0..7 spread over
        // the slots one apiece, the tail clamps to the last slot — the
        // arithmetic router's historical behavior.
        let r = Router::new(Partitioning::Range, 8, 3);
        for s in 0..8 {
            assert!(r.shard_interval(s).is_some());
        }
        assert_eq!(r.shard_of(5), 5);
        assert_eq!(r.shard_of(u64::MAX - 1), 7);
    }
}
