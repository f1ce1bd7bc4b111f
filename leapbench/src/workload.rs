//! The four workloads: what each builds, the operations it draws from the
//! seed, how each call is made and timed, and how every result is checked.

use crate::check::{self, Groups};
use crate::stats::LatHist;
use crate::trace::SpanBuf;
use leap_bench::rng::Rng64;
use leap_bench::zipf::Zipf;
use leap_store::{
    BatchOp, LeapStore, Partitioning, RebalancePolicy, RetryPolicy, StoreConfig, StoreError,
};
use leaplist::{LeapListLt, ListSnapshot, Params};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One deadline for every bounded call: far above any healthy op, so a
/// timeout means the program stopped making progress.
pub const OP_DEADLINE: Duration = Duration::from_secs(1);
/// Keys per snapshot-scan page.
pub const PAGE: usize = 128;
/// Keys per multi-key write.
pub const TXN_KEYS: usize = 4;
/// Operations each client thread runs to warm up after the prefill.
const WARMUP_OPS: u64 = 20_000;
/// One op in this many is traced in a traced phase.
pub const TRACE_EVERY: u64 = 16;
/// `reshard` clients call `rebalance_step` after every this many ops.
const REBALANCE_EVERY: u64 = 8;
/// Keys per prefill batch.
const PREFILL_BATCH: usize = 64;
/// Multiplier that scrambles zipf ranks over a unit space: coprime with
/// every unit count used here, so the map is a bijection that spreads hot
/// units over the whole key space instead of piling them at key 0.
const SCRAMBLE: u64 = 999_983;

const OLTP_KEYS: u64 = 400_000;
const SCAN_KEYS: u64 = 100_000;
const RESHARD_KEYS: u64 = 100_000;
const RESHARD_STRIDE: u64 = RESHARD_KEYS / TXN_KEYS as u64;
const PAPER_KEYS: u64 = 200_000;
const PAPER_LISTS: usize = 4;
const SHARDS: usize = 4;
const ZIPF_THETA: f64 = 0.99;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Oltp,
    Scan,
    Reshard,
    Paper14b,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Oltp, Kind::Scan, Kind::Reshard, Kind::Paper14b];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Oltp => "oltp",
            Kind::Scan => "scan",
            Kind::Reshard => "reshard",
            Kind::Paper14b => "paper-14b",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Latency classes, one histogram each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `get`, or `lookup` on Leap-LT.
    Get = 0,
    /// Single-key put or delete.
    Put = 1,
    /// Multi-key write: store batch or Leap-LT composite update.
    Txn = 2,
    /// Transactional range.
    Range = 3,
    /// A whole paged snapshot scan.
    SnapScan = 4,
}

pub const CLASSES: usize = 5;

#[derive(Debug, Clone)]
pub enum Op {
    Get {
        list: usize,
        key: u64,
    },
    Put {
        key: u64,
        value: u64,
    },
    Delete {
        key: u64,
    },
    /// `values` is `Some` for a multi-put, `None` for a multi-delete.
    Txn {
        keys: [u64; TXN_KEYS],
        values: Option<[u64; TXN_KEYS]>,
    },
    Range {
        list: usize,
        lo: u64,
        hi: u64,
    },
    SnapScan {
        lo: u64,
        hi: u64,
    },
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Get { .. } => Class::Get,
            Op::Put { .. } | Op::Delete { .. } => Class::Put,
            Op::Txn { .. } => Class::Txn,
            Op::Range { .. } => Class::Range,
            Op::SnapScan { .. } => Class::SnapScan,
        }
    }
}

pub enum Outcome {
    One(Option<u64>),
    Many(Vec<Option<u64>>),
    Pairs(Vec<(u64, u64)>),
}

/// The structure under test.
pub enum System {
    Store(Box<LeapStore<u64>>),
    /// Leap-LT lists on one STM domain, with the retry histogram the
    /// domain records into (the store keeps its own).
    Lists(Vec<LeapListLt<u64>>, std::sync::Arc<leap_obs::Histogram>),
}

impl System {
    pub fn domain(&self) -> &std::sync::Arc<leap_stm::StmDomain> {
        match self {
            System::Store(s) => s.domain(),
            System::Lists(l, _) => l[0].domain(),
        }
    }

    /// Every Leap-LT list of the structure.
    pub fn lists(&self) -> Vec<&LeapListLt<u64>> {
        match self {
            System::Store(_) => Vec::new(),
            System::Lists(l, _) => l.iter().collect(),
        }
    }
}

/// Tracing context of one traced operation.
pub struct Tr<'b> {
    pub buf: &'b mut SpanBuf,
    pub op: u64,
    pub parent: u64,
}

/// How a client loop runs.
pub struct Mode {
    /// Record spans for one op in [`TRACE_EVERY`].
    pub traced: bool,
    /// Sample the STM prune lag about once per millisecond (thread 0).
    pub sample_lag: bool,
    /// Drive `rebalance_step` between ops (the `reshard` workload).
    pub rebalance: bool,
    /// Stop after this many ops instead of at the stop flag.
    pub ops_limit: Option<u64>,
}

/// What one client thread did.
#[derive(Default)]
pub struct ClientOut {
    pub hists: [LatHist; CLASSES],
    pub ops: u64,
    pub failed: u64,
    pub timeouts: u64,
    pub errors: Vec<String>,
    pub spans: Vec<crate::trace::Span>,
    pub prune_lag: Vec<u64>,
    /// Time spent in one-layer-down probes (traced phase only).
    pub probe_ns: u64,
    /// Time spent in `rebalance_step`, measured in traced phases.
    pub rebalance_ns: u64,
    /// Next write sequence number of this thread.
    pub seq: u64,
}

impl ClientOut {
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }
}

/// One workload's fixed parameters and input generators.
pub struct Spec {
    pub kind: Kind,
    /// Draws the hot unit (a group, or a group base) of `scan`/`reshard`.
    zipf: Option<Zipf>,
    /// Whether every write covers a whole group, so reads can check group
    /// atomicity.
    pub groups: Option<Groups>,
}

/// Loads sorted pairs into a list in multi-key batches.
fn load(list: &LeapListLt<u64>, pairs: &[(u64, u64)]) {
    for chunk in pairs.chunks(PREFILL_BATCH) {
        let ops: Vec<BatchOp<u64>> = chunk.iter().map(|&(k, v)| BatchOp::Update(k, v)).collect();
        LeapListLt::apply_batch_grouped(&[list], &[&ops]);
    }
}

fn span_keys(rng: &mut Rng64, lo: u64, limit: u64) -> u64 {
    (lo + 999 + rng.below(1001)).min(limit - 1)
}

fn adjacent(g: u64) -> [u64; TXN_KEYS] {
    std::array::from_fn(|i| g * TXN_KEYS as u64 + i as u64)
}

fn strided(b: u64) -> [u64; TXN_KEYS] {
    std::array::from_fn(|i| b + i as u64 * RESHARD_STRIDE)
}

impl Spec {
    pub fn new(kind: Kind) -> Self {
        let units = match kind {
            Kind::Scan => Some(SCAN_KEYS / TXN_KEYS as u64),
            Kind::Reshard => Some(RESHARD_STRIDE),
            Kind::Oltp | Kind::Paper14b => None,
        };
        let groups = match kind {
            Kind::Scan => Some(Groups::Adjacent {
                size: TXN_KEYS as u64,
            }),
            Kind::Reshard => Some(Groups::Strided {
                stride: RESHARD_STRIDE,
                size: TXN_KEYS as u64,
            }),
            Kind::Oltp | Kind::Paper14b => None,
        };
        Spec {
            kind,
            zipf: units.map(|n| Zipf::new(n, ZIPF_THETA)),
            groups,
        }
    }

    /// Exclusive upper bound of every key the workload uses.
    pub fn key_space(&self) -> u64 {
        match self.kind {
            Kind::Oltp => OLTP_KEYS,
            Kind::Scan => SCAN_KEYS,
            Kind::Reshard => RESHARD_KEYS,
            Kind::Paper14b => PAPER_KEYS,
        }
    }

    fn hot(&self, rng: &mut Rng64) -> u64 {
        let z = self.zipf.as_ref().expect("skewed workload");
        (z.sample(rng) - 1) * SCRAMBLE % z.n()
    }

    /// The next operation, its writes stamped with `stamp`.
    pub fn next_op(&self, rng: &mut Rng64, stamp: u64) -> Op {
        let p = rng.below(100);
        let txn = |keys: [u64; TXN_KEYS], put: bool| Op::Txn {
            keys,
            values: put.then(|| keys.map(|k| check::tag(k, stamp))),
        };
        match self.kind {
            Kind::Oltp => {
                let key = rng.below(OLTP_KEYS);
                match p {
                    0..50 => Op::Get { list: 0, key },
                    50..65 => Op::Put {
                        key,
                        value: check::tag(key, stamp),
                    },
                    65..80 => Op::Delete { key },
                    _ => txn(adjacent(key / TXN_KEYS as u64), p < 90),
                }
            }
            Kind::Scan => {
                let g = self.hot(rng);
                let key = g * TXN_KEYS as u64 + rng.below(TXN_KEYS as u64);
                match p {
                    0..30 => {
                        let hi = span_keys(rng, key, SCAN_KEYS);
                        if p < 15 {
                            Op::Range {
                                list: 0,
                                lo: key,
                                hi,
                            }
                        } else {
                            Op::SnapScan { lo: key, hi }
                        }
                    }
                    30..40 => Op::Get { list: 0, key },
                    _ => txn(adjacent(g), p < 70),
                }
            }
            Kind::Reshard => {
                let b = self.hot(rng);
                let key = b + rng.below(TXN_KEYS as u64) * RESHARD_STRIDE;
                match p {
                    0..40 => Op::Get { list: 0, key },
                    40..50 => Op::Range {
                        list: 0,
                        lo: key,
                        hi: span_keys(rng, key, RESHARD_KEYS),
                    },
                    _ => txn(strided(b), p < 75),
                }
            }
            Kind::Paper14b => {
                let list = rng.below(PAPER_LISTS as u64) as usize;
                let key = rng.below(PAPER_KEYS);
                match p {
                    0..40 => Op::Get { list, key },
                    40..80 => Op::Range {
                        list,
                        lo: key,
                        hi: span_keys(rng, key, PAPER_KEYS),
                    },
                    _ => txn(std::array::from_fn(|_| rng.below(PAPER_KEYS)), p < 90),
                }
            }
        }
    }

    /// The prefill, per list (one list for a store): half the key space,
    /// chosen by the seed, as sorted `(key, value)` pairs. Grouped
    /// workloads prefill whole groups, each under one stamp.
    pub fn prefill(&self, seed: u64) -> Vec<Vec<(u64, u64)>> {
        let lists = if self.kind == Kind::Paper14b {
            PAPER_LISTS
        } else {
            1
        };
        (0..lists)
            .map(|j| {
                let mut rng = Rng64::new(seed ^ 0x5EED_F111 ^ (j as u64) << 48);
                let units = match self.groups {
                    Some(_) => self.zipf.as_ref().expect("grouped").n(),
                    None => self.key_space(),
                };
                let keys_of = |u: u64| self.groups.map_or_else(|| vec![u], |g| g.keys(u));
                let mut order: Vec<u64> = (0..units).collect();
                for i in 0..(units / 2) as usize {
                    let r = i + rng.below((order.len() - i) as u64) as usize;
                    order.swap(i, r);
                }
                order.truncate((units / 2) as usize);
                let mut pairs: Vec<(u64, u64)> = order
                    .into_iter()
                    .flat_map(|u| {
                        let s = check::stamp(0, u);
                        keys_of(u).into_iter().map(move |k| (k, check::tag(k, s)))
                    })
                    .collect();
                pairs.sort_unstable();
                pairs
            })
            .collect()
    }

    /// Builds the structure and loads `prefill` into it.
    pub fn build(&self, prefill: &[Vec<(u64, u64)>]) -> System {
        match self.kind {
            Kind::Paper14b => {
                let lists = LeapListLt::group(PAPER_LISTS, Params::default());
                let retries = std::sync::Arc::new(leap_obs::Histogram::new());
                lists[0]
                    .domain()
                    .set_recorder(leap_stm::StmRecorder::new(retries.clone()));
                for (list, pairs) in lists.iter().zip(prefill) {
                    load(list, pairs);
                }
                System::Lists(lists, retries)
            }
            kind => {
                let config = match kind {
                    Kind::Oltp => StoreConfig::new(SHARDS, Partitioning::Hash),
                    Kind::Scan => {
                        StoreConfig::new(SHARDS, Partitioning::Range).with_key_space(SCAN_KEYS)
                    }
                    // The hot-shard start of the repository's reshard
                    // series: the declared key space is `SHARDS ×` the
                    // used one, so every key starts on shard 0, and the
                    // policy is the same aggressive one.
                    _ => StoreConfig::new(SHARDS, Partitioning::Range)
                        .with_key_space(RESHARD_KEYS * SHARDS as u64)
                        .with_rebalancing(RebalancePolicy {
                            chunk: 256,
                            split_ratio: 1.5,
                            merge_ratio: 0.4,
                            min_split_keys: 128,
                            max_shards: 32,
                            ..RebalancePolicy::default()
                        }),
                };
                let store = LeapStore::new(config);
                for chunk in prefill[0].chunks(PREFILL_BATCH) {
                    store.multi_put(chunk);
                }
                System::Store(Box::new(store))
            }
        }
    }

    /// Builds, loads and warms up the structure; returns it with the
    /// clients' warm-up results (their write sequence numbers included).
    pub fn setup(
        &self,
        prefill: &[Vec<(u64, u64)>],
        seed: u64,
        threads: usize,
    ) -> (System, Vec<ClientOut>) {
        let sys = self.build(prefill);
        let mode = Mode {
            traced: false,
            sample_lag: false,
            rebalance: false,
            ops_limit: Some(WARMUP_OPS),
        };
        let stop = AtomicBool::new(false);
        let counters: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
        let epoch = Instant::now();
        let outs = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (sys, mode, stop, counter) = (&sys, &mode, &stop, &counters[t]);
                    s.spawn(move || {
                        self.client(sys, None, t, seed ^ 0xA11CE, 0, mode, stop, counter, epoch)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("warm-up client panicked"))
                .collect()
        });
        (sys, outs)
    }

    /// The side list the `leaplist.update` probe writes to: a separate
    /// Leap-LT with the default `Params`, holding as many keys as one
    /// list or shard of the structure, so probes never touch the
    /// structure under test.
    pub fn side_list(&self, prefill: &[Vec<(u64, u64)>]) -> LeapListLt<u64> {
        let side = LeapListLt::new(Params::default());
        let pairs: Vec<(u64, u64)> = match self.kind {
            // One shard's share of the store: keys ≡ 0 (mod SHARDS).
            Kind::Oltp => prefill[0]
                .iter()
                .copied()
                .filter(|(k, _)| k % SHARDS as u64 == 0)
                .collect(),
            _ => prefill[0].clone(),
        };
        load(&side, &pairs);
        side
    }

    /// Makes one call into the public API of the structure.
    fn call(
        &self,
        sys: &System,
        op: &Op,
        policy: RetryPolicy,
        tr: Option<&mut Tr>,
    ) -> Result<Outcome, String> {
        let timeout = |e: StoreError| e.to_string();
        match sys {
            System::Store(store) => Ok(match op {
                Op::Get { key, .. } => {
                    Outcome::One(store.get_within(*key, policy).map_err(timeout)?)
                }
                Op::Put { key, value } => {
                    Outcome::One(store.put_within(*key, *value, policy).map_err(timeout)?)
                }
                Op::Delete { key } => {
                    Outcome::One(store.delete_within(*key, policy).map_err(timeout)?)
                }
                Op::Txn { keys, values } => {
                    let ops: Vec<BatchOp<u64>> = match values {
                        Some(v) => keys
                            .iter()
                            .zip(v)
                            .map(|(&k, &v)| BatchOp::Update(k, v))
                            .collect(),
                        None => keys.iter().map(|&k| BatchOp::Remove(k)).collect(),
                    };
                    Outcome::Many(store.apply_within(&ops, policy).map_err(timeout)?)
                }
                Op::Range { lo, hi, .. } => {
                    Outcome::Pairs(store.range_within(*lo, *hi, policy).map_err(timeout)?)
                }
                Op::SnapScan { lo, hi } => Outcome::Pairs(snapshot_scan(store, *lo, *hi, tr)),
            }),
            System::Lists(lists, _) => {
                let refs = || -> Vec<&LeapListLt<u64>> { lists.iter().collect() };
                leap_stm::with_retry_budget(policy, || match op {
                    Op::Get { list, key } => Outcome::One(lists[*list].lookup(*key)),
                    Op::Range { list, lo, hi } => {
                        Outcome::Pairs(lists[*list].range_query(*lo, *hi))
                    }
                    Op::Txn {
                        keys,
                        values: Some(v),
                    } => Outcome::Many(LeapListLt::update_batch(&refs(), keys, v)),
                    Op::Txn { keys, values: None } => {
                        Outcome::Many(LeapListLt::remove_batch(&refs(), keys))
                    }
                    Op::Put { .. } | Op::Delete { .. } | Op::SnapScan { .. } => {
                        unreachable!("paper-14b draws no such op")
                    }
                })
                .map_err(|t| t.to_string())
            }
        }
    }

    /// Checks one result against the op that produced it.
    fn check(&self, op: &Op, out: &Outcome) -> Result<(), String> {
        match (op, out) {
            (Op::Get { key, .. } | Op::Put { key, .. } | Op::Delete { key }, Outcome::One(v)) => {
                v.map_or(Ok(()), |v| check::check_value(*key, v))
            }
            (Op::Txn { keys, .. }, Outcome::Many(prev)) => {
                check::check_prev(keys, prev)?;
                self.groups.map_or(Ok(()), |g| g.check_prev(keys, prev))
            }
            (Op::Range { lo, hi, .. } | Op::SnapScan { lo, hi }, Outcome::Pairs(pairs)) => {
                check::check_range(*lo, *hi, pairs)?;
                self.groups
                    .map_or(Ok(()), |g| g.check_range(*lo, *hi, pairs))
            }
            _ => Err("result shape does not match the op".into()),
        }
    }

    /// Times the same key or range one layer down, for self time by
    /// subtraction.
    fn probe(&self, sys: &System, side: Option<&LeapListLt<u64>>, op: &Op, tr: &mut Tr) {
        let (buf, id, parent) = (&mut *tr.buf, tr.op, tr.parent);
        match (sys, op) {
            (System::Store(store), Op::Get { key, .. }) => {
                let owner = buf.time("router.shard_of", id, parent, || {
                    store.router().shard_of(*key)
                });
                let shard = store.shard(owner);
                black_box(buf.time("leaplist.lookup", id, parent, || shard.lookup(*key)));
            }
            (System::Store(store), Op::Range { lo, hi, .. } | Op::SnapScan { lo, hi }) => {
                let (owner, clo, chi) = match store.router().mode() {
                    Partitioning::Hash => (store.router().shard_of(*lo), *lo, *hi),
                    Partitioning::Range => store.router().routing().overlapping(*lo, *hi)[0],
                };
                let shard = store.shard(owner);
                if matches!(op, Op::Range { .. }) {
                    black_box(buf.time("leaplist.range_query", id, parent, || {
                        shard.range_query(clo, chi)
                    }));
                } else {
                    let snap = ListSnapshot::pin(store.domain());
                    black_box(buf.time("leaplist.snapshot_page", id, parent, || {
                        shard.snapshot_page(&snap, clo, chi, PAGE)
                    }));
                }
            }
            (_, Op::Put { key, value }) => {
                let side = side.expect("probes have a side list");
                let k = key - key % SHARDS as u64;
                let v = check::tag(k, check::stamp_of(*value));
                black_box(buf.time("leaplist.update", id, parent, || side.update(k, v)));
            }
            (_, Op::Delete { key }) => {
                let side = side.expect("probes have a side list");
                let k = key - key % SHARDS as u64;
                black_box(buf.time("leaplist.update", id, parent, || side.remove(k)));
            }
            (System::Lists(..), Op::Txn { keys, values }) => {
                let side = side.expect("probes have a side list");
                black_box(buf.time("leaplist.update", id, parent, || match values {
                    Some(v) => side.update(keys[0], v[0]),
                    None => side.remove(keys[0]),
                }));
            }
            _ => {}
        }
    }

    /// A closed-loop client: draws an op, calls, checks, records; repeats
    /// until `stop` is set or the mode's op limit is reached.
    #[allow(clippy::too_many_arguments)]
    pub fn client(
        &self,
        sys: &System,
        side: Option<&LeapListLt<u64>>,
        t: usize,
        seed: u64,
        seq0: u64,
        mode: &Mode,
        stop: &AtomicBool,
        counter: &AtomicU64,
        epoch: Instant,
    ) -> ClientOut {
        let mut rng =
            Rng64::new(seed.wrapping_add((t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let mut out = ClientOut {
            seq: seq0,
            ..ClientOut::default()
        };
        let mut buf = SpanBuf::new(epoch, t);
        let writer = t as u64 + 1;
        let mut last_lag = Instant::now();
        let store = match sys {
            System::Store(s) => Some(s),
            System::Lists(..) => None,
        };
        loop {
            // ORDERING: a plain stop request; no data rides on it.
            if mode
                .ops_limit
                .map_or(stop.load(Ordering::Relaxed), |n| out.ops >= n)
            {
                break;
            }
            let traced = mode.traced && out.ops.is_multiple_of(TRACE_EVERY);
            let op_id = (t as u64 + 1) << 40 | out.ops;
            let (root_idx, root) = if traced {
                buf.open("op", op_id, 0)
            } else {
                (0, 0)
            };
            let gen = traced.then(|| buf.open("client.gen", op_id, root).0);
            let op = self.next_op(&mut rng, check::stamp(writer, out.seq));
            let policy = RetryPolicy::default().timeout(OP_DEADLINE);
            out.seq += 1;
            let (res, ns) = if traced {
                buf.close(gen.expect("traced"));
                let (idx, id) = buf.open(span_name(sys, &op), op_id, root);
                let mut tr = Tr {
                    buf: &mut buf,
                    op: op_id,
                    parent: id,
                };
                let t0 = Instant::now();
                let res = self.call(sys, &op, policy, Some(&mut tr));
                let ns = t0.elapsed().as_nanos() as u64;
                buf.close(idx);
                (res, ns)
            } else {
                let t0 = Instant::now();
                let res = self.call(sys, &op, policy, None);
                (res, t0.elapsed().as_nanos() as u64)
            };
            let check = traced.then(|| buf.open("client.check", op_id, root).0);
            match res {
                Ok(outcome) => {
                    if let Err(e) = self.check(&op, &outcome) {
                        out.fail(format!("{}: {e}", self.kind.name()));
                    }
                }
                Err(e) => {
                    out.timeouts += 1;
                    out.fail(format!("{}: {e}", self.kind.name()));
                }
            }
            if traced {
                buf.close(check.expect("traced"));
                let probe_start = Instant::now();
                let mut tr = Tr {
                    buf: &mut buf,
                    op: op_id,
                    parent: root,
                };
                self.probe(sys, side, &op, &mut tr);
                out.probe_ns += probe_start.elapsed().as_nanos() as u64;
                buf.close(root_idx);
            }
            out.hists[op.class() as usize].record(ns);
            out.ops += 1;
            // ORDERING: a progress count read for throughput only.
            counter.store(out.ops, Ordering::Relaxed);
            if mode.sample_lag && t == 0 && last_lag.elapsed() >= Duration::from_millis(1) {
                let d = sys.domain();
                out.prune_lag
                    .push(d.clock().saturating_sub(d.prune_bound()));
                last_lag = Instant::now();
            }
            if let (true, Some(store)) = (mode.rebalance, store) {
                if out.ops.is_multiple_of(REBALANCE_EVERY) {
                    if mode.traced {
                        let s = buf.now();
                        black_box(store.rebalance_step());
                        let e = buf.now();
                        out.rebalance_ns += e - s;
                        // One step in TRACE_EVERY gets a span of its own:
                        // it runs between ops, so it has no parent.
                        if (out.ops / REBALANCE_EVERY).is_multiple_of(TRACE_EVERY) {
                            buf.push("rebalance.step", op_id, 0, s, e);
                        }
                    } else {
                        black_box(store.rebalance_step());
                    }
                }
            }
        }
        out.spans = buf.spans;
        out
    }

    /// Checks the structure at rest: a full range, a full snapshot scan
    /// and the key count must agree, and every group must be whole.
    pub fn check_quiescent(&self, sys: &System) -> Vec<String> {
        let hi = self.key_space() - 1;
        match sys {
            System::Store(store) => {
                let policy = RetryPolicy::default().timeout(OP_DEADLINE);
                match store.range_within(0, hi, policy) {
                    Ok(full) => {
                        let snap = snapshot_scan(store, 0, hi, None);
                        self.agree("store", &full, &snap, store.len())
                    }
                    Err(e) => vec![format!("store at rest: full range: {e}")],
                }
            }
            System::Lists(lists, _) => lists
                .iter()
                .flat_map(|list| {
                    let snap = ListSnapshot::pin(list.domain());
                    let mut pages = Vec::new();
                    let mut lo = 0;
                    loop {
                        let page = list.snapshot_page(&snap, lo, hi, PAGE);
                        let full_page = page.len() == PAGE;
                        let last = page.last().map(|&(k, _)| k);
                        pages.extend(page);
                        match last {
                            Some(k) if full_page && k < hi => lo = k + 1,
                            _ => break,
                        }
                    }
                    drop(snap);
                    self.agree("list", &list.range_query(0, hi), &pages, list.len())
                })
                .collect(),
        }
    }

    fn agree(
        &self,
        name: &str,
        full: &[(u64, u64)],
        snap: &[(u64, u64)],
        len: usize,
    ) -> Vec<String> {
        let hi = self.key_space() - 1;
        let mut errors = Vec::new();
        let r = check::check_range(0, hi, full)
            .and_then(|()| self.groups.map_or(Ok(()), |g| g.check_range(0, hi, full)));
        if let Err(e) = r {
            errors.push(format!("{name} at rest: {e}"));
        }
        if full != snap {
            errors.push(format!(
                "{name} at rest: full range ({} keys) differs from snapshot scan ({} keys)",
                full.len(),
                snap.len()
            ));
        }
        if full.len() != len {
            errors.push(format!(
                "{name} at rest: full range has {} keys, len() says {len}",
                full.len()
            ));
        }
        errors
    }
}

/// A whole paged snapshot scan; with tracing, the cursor's open and each
/// page nest inside the scan's span.
fn snapshot_scan(
    store: &LeapStore<u64>,
    lo: u64,
    hi: u64,
    mut tr: Option<&mut Tr>,
) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut cursor = match tr.as_deref_mut() {
        Some(tr) => tr.buf.time("cursor.open", tr.op, tr.parent, || {
            store.scan_snapshot_pages(lo, hi, PAGE)
        }),
        None => store.scan_snapshot_pages(lo, hi, PAGE),
    };
    loop {
        let page = match tr.as_deref_mut() {
            Some(tr) => tr
                .buf
                .time("cursor.page", tr.op, tr.parent, || cursor.next_page()),
            None => cursor.next_page(),
        };
        match page {
            Some(p) => out.extend(p),
            None => return out,
        }
    }
}

fn span_name(sys: &System, op: &Op) -> &'static str {
    match (sys, op) {
        (System::Store(_), Op::Get { .. }) => "store.get",
        (System::Store(_), Op::Put { .. }) => "store.put",
        (System::Store(_), Op::Delete { .. }) => "store.delete",
        (System::Store(_), Op::Txn { .. }) => "store.apply",
        (System::Store(_), Op::Range { .. }) => "store.range",
        (System::Store(_), Op::SnapScan { .. }) => "store.snapscan",
        (System::Lists(..), Op::Get { .. }) => "leaplist.lookup",
        (System::Lists(..), Op::Range { .. }) => "leaplist.range_query",
        (
            System::Lists(..),
            Op::Txn {
                values: Some(_), ..
            },
        ) => "leaplist.update_batch",
        (System::Lists(..), _) => "leaplist.remove_batch",
    }
}
