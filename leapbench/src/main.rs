//! `leapbench`: the repository's benchmark. One run builds one workload's
//! inputs from a seed, drives the public API of `leap-store` or
//! `leaplist` closed-loop from the client threads for a fixed time, checks
//! every output, and prints its metrics — end-to-end ones with tracing
//! off, per-layer ones with tracing on. See README.md.
//!
//! ```text
//! leapbench --workload <oltp|scan|reshard|paper-14b> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod check;
mod metrics;
mod record;
mod stats;
mod trace;
mod variants;
mod workload;

use metrics::{Values, END_TO_END, PER_LAYER, RESHARD_LAYER, SNAPSHOT_LAYER};
use stats::{median_f64, quantile_of, LatHist};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use workload::{Class, ClientOut, Kind, Mode, Spec, System};

/// Client threads: one closed-loop caller each.
const CLIENT_THREADS: usize = 2;
const _: () = assert!(CLIENT_THREADS as u64 <= check::MAX_WRITER);
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Sub-windows of the timed run; `throughput_ops_s` is their median.
const WINDOWS: u32 = 20;
/// A run still going after this long is ended with an error.
const WATCHDOG: Duration = Duration::from_secs(170);

/// What the run is doing, for the watchdog's message.
static PHASE: Mutex<&str> = Mutex::new("start");

fn phase(name: &'static str) {
    *PHASE.lock().unwrap_or_else(|e| e.into_inner()) = name;
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(name.to_string(), value);
    }
    let mut take = |name: &str| {
        kv.remove(name)
            .ok_or_else(|| format!("--{name} is required"))
    };
    let workload = take("workload")?;
    let kind = Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let num = |name: &str, v: String| {
        v.parse::<u64>()
            .map_err(|_| format!("--{name} takes a whole number, not {v:?}"))
    };
    let seed = num("seed", take("seed")?)?;
    let seconds = num("seconds", take("seconds")?)?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1 to 60".into());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    if let Some(extra) = kv.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    if CLIENT_THREADS > record::nproc() {
        return Err(format!(
            "refusing {CLIENT_THREADS} client threads on {} CPUs: client threads must not exceed nproc",
            record::nproc()
        ));
    }
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// Ends the process with a named error if the run overruns.
fn start_watchdog() -> std::sync::mpsc::Sender<()> {
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    std::thread::spawn(move || {
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(WATCHDOG) {
            let at = *PHASE.lock().unwrap_or_else(|e| e.into_inner());
            eprintln!(
                "error: watchdog: run exceeded {} s during {at}",
                WATCHDOG.as_secs()
            );
            std::process::exit(3);
        }
    });
    tx
}

/// Outcome of a whole run.
struct Report {
    attempted: u64,
    failed: u64,
    /// Failed output checks (timeouts are failed ops, not wrong outputs).
    wrong: u64,
    errors: Vec<String>,
    samples: BTreeMap<&'static str, u64>,
    metrics: Values,
}

impl Report {
    fn new(tables: &[&'static [metrics::Metric]]) -> Self {
        Report {
            attempted: 0,
            failed: 0,
            wrong: 0,
            errors: Vec::new(),
            samples: BTreeMap::new(),
            metrics: Values::new(tables),
        }
    }

    fn absorb(&mut self, outs: &[ClientOut]) {
        for o in outs {
            self.attempted += o.ops;
            self.failed += o.failed;
            self.wrong += o.failed - o.timeouts;
            self.errors.extend(o.errors.iter().cloned());
        }
    }

    fn absorb_quiescent(&mut self, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.wrong += 1;
            self.errors.extend(errors);
        }
    }
}

/// A timed closed-loop phase.
struct Phase {
    outs: Vec<ClientOut>,
    /// Throughput of each sub-window, ops/s.
    rates: Vec<f64>,
    elapsed: f64,
}

impl Phase {
    fn ops(&self) -> u64 {
        self.outs.iter().map(|o| o.ops).sum()
    }

    fn hist(&self, class: Class) -> LatHist {
        let mut h = LatHist::default();
        for o in &self.outs {
            h.merge(&o.hists[class as usize]);
        }
        h
    }
}

#[repr(align(128))]
struct Slot(AtomicU64);

#[allow(clippy::too_many_arguments)]
fn timed_phase(
    spec: &Spec,
    sys: &System,
    side: Option<&leaplist::LeapListLt<u64>>,
    seed: u64,
    seqs: &[u64],
    mode: &Mode,
    window: Duration,
) -> Phase {
    let threads = seqs.len();
    let stop = AtomicBool::new(false);
    let slots: Vec<Slot> = (0..threads).map(|_| Slot(AtomicU64::new(0))).collect();
    let barrier = Barrier::new(threads + 1);
    let epoch = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (stop, slot, barrier) = (&stop, &slots[t], &barrier);
                s.spawn(move || {
                    barrier.wait();
                    spec.client(sys, side, t, seed, seqs[t], mode, stop, &slot.0, epoch)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let (mut last_ops, mut last_at) = (0u64, start);
        let mut rates = Vec::new();
        for w in 1..=WINDOWS {
            let due = start + window * w / WINDOWS;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let now = Instant::now();
            // ORDERING: progress counts read for throughput only.
            let ops: u64 = slots.iter().map(|c| c.0.load(Ordering::Relaxed)).sum();
            rates.push((ops - last_ops) as f64 / (now - last_at).as_secs_f64());
            (last_ops, last_at) = (ops, now);
        }
        stop.store(true, Ordering::Relaxed);
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        Phase {
            outs,
            rates,
            elapsed: start.elapsed().as_secs_f64(),
        }
    })
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end run: one set-up and the timed closed loop, then the
/// rest of the [`SETUPS`] set-ups for `setup_s`. `peak_rss_mb` is read
/// before those, so it is the peak RSS of a process that has run this
/// workload's set-up and whole timed window and nothing else.
fn run_e2e(args: &Args) -> Result<Report, String> {
    let mut report = Report::new(&[END_TO_END]);
    phase("input generation");
    let spec = Spec::new(args.kind);
    let prefill = spec.prefill(args.seed);
    let mut setup_s = Vec::new();
    let mut set_up = |report: &mut Report| {
        phase("set-up");
        let t = Instant::now();
        let (sys, warm) = spec.setup(&prefill, args.seed, CLIENT_THREADS);
        setup_s.push(t.elapsed().as_secs_f64());
        report.absorb(&warm);
        (sys, warm)
    };
    let (sys, warm) = set_up(&mut report);
    let seqs: Vec<u64> = warm.iter().map(|o| o.seq).collect();
    phase("timed run");
    let mode = Mode {
        traced: false,
        sample_lag: false,
        rebalance: args.kind == Kind::Reshard,
        ops_limit: None,
    };
    let run = timed_phase(
        &spec,
        &sys,
        None,
        args.seed,
        &seqs,
        &mode,
        Duration::from_secs(args.seconds),
    );
    report.absorb(&run.outs);
    let peak_rss = peak_rss_mb();
    phase("checks at rest");
    report.absorb_quiescent(spec.check_quiescent(&sys));
    drop((sys, warm));
    for _ in 1..SETUPS {
        drop(set_up(&mut report));
    }
    let m = &mut report.metrics;
    m.set("throughput_ops_s", median_f64(&mut run.rates.clone()));
    m.set("setup_s", median_f64(&mut setup_s));
    m.set("peak_rss_mb", peak_rss);
    for (class, name, metric) in [
        (Class::Get, "get", "get_p50_us"),
        (Class::Txn, "txn", "txn_p50_us"),
    ] {
        let mut h = run.hist(class);
        if !stats::supported(h.count(), 990) {
            return Err(format!(
                "{name}: {} samples cannot support a p99 (need {} beyond it)",
                h.count(),
                stats::MIN_BEYOND
            ));
        }
        let p50 = h.quantile(500).expect("non-empty");
        report.samples.insert(name, h.count());
        report.metrics.set(metric, p50 as f64 / 1000.0);
    }
    Ok(report)
}

/// STM, EBR and store counters around an untraced phase.
struct Counters {
    stm: leap_stm::StatsSnapshot,
    epoch: u64,
    retries: leap_obs::HistSnapshot,
    store: Option<leap_store::StoreStats>,
}

impl Counters {
    fn take(sys: &System) -> Self {
        let store = match sys {
            System::Store(s) => Some(s.stats()),
            System::Lists(..) => None,
        };
        let retries = match (sys, &store) {
            (System::Lists(_, h), _) => h.snapshot(),
            (_, Some(st)) => st
                .obs
                .as_ref()
                .map_or_else(leap_obs::HistSnapshot::empty, |o| o.txn_retries.clone()),
            _ => leap_obs::HistSnapshot::empty(),
        };
        Counters {
            stm: sys.domain().stats(),
            epoch: leap_ebr::default_collector().epoch(),
            retries,
            store,
        }
    }
}

/// p99 of the samples recorded between two snapshots of one histogram.
fn delta_p99(before: &leap_obs::HistSnapshot, after: &leap_obs::HistSnapshot) -> f64 {
    let buckets: Vec<u64> = after
        .buckets
        .iter()
        .enumerate()
        .map(|(i, &c)| c - before.buckets.get(i).copied().unwrap_or(0))
        .collect();
    let delta = leap_obs::HistSnapshot {
        count: buckets.iter().sum(),
        buckets,
        sum: after.sum.saturating_sub(before.sum),
        max: after.max,
    };
    delta.quantile_permille(990) as f64
}

/// The traced run: an untraced phase for counters and the baseline
/// throughput, then a traced phase on a fresh set-up for spans.
fn run_traced(args: &Args) -> Result<Report, String> {
    let (rebalance, scan) = (args.kind == Kind::Reshard, args.kind == Kind::Scan);
    let mut report = Report::new(&[
        PER_LAYER,
        if scan { SNAPSHOT_LAYER } else { &[] },
        if rebalance { RESHARD_LAYER } else { &[] },
    ]);
    phase("input generation");
    let spec = Spec::new(args.kind);
    let prefill = spec.prefill(args.seed);
    let half = Duration::from_secs(args.seconds) / 2;

    phase("set-up");
    let (sys, warm) = spec.setup(&prefill, args.seed, CLIENT_THREADS);
    report.absorb(&warm);
    let seqs: Vec<u64> = warm.iter().map(|o| o.seq).collect();
    phase("untraced phase");
    let before = Counters::take(&sys);
    let mode = Mode {
        traced: false,
        sample_lag: true,
        rebalance,
        ops_limit: None,
    };
    let a = timed_phase(&spec, &sys, None, args.seed, &seqs, &mode, half);
    let after = Counters::take(&sys);
    report.absorb(&a.outs);
    phase("checks at rest");
    report.absorb_quiescent(spec.check_quiescent(&sys));
    let lists: Vec<std::sync::Arc<leaplist::LeapListLt<u64>>> = match &sys {
        System::Store(s) => (0..s.shards()).map(|i| s.shard(i)).collect(),
        System::Lists(..) => Vec::new(),
    };
    let mut all_lists: Vec<&leaplist::LeapListLt<u64>> = lists.iter().map(|l| &**l).collect();
    all_lists.extend(sys.lists());
    let (keys, nodes) = all_lists.iter().fold((0usize, 0usize), |(k, n), l| {
        let sizes = l.node_sizes();
        (k + sizes.iter().sum::<usize>(), n + sizes.len())
    });
    let node_fill =
        keys as f64 / nodes.max(1) as f64 / leaplist::Params::default().node_size as f64;
    let bundle_depth = all_lists
        .iter()
        .map(|l| l.max_bundle_depth())
        .max()
        .unwrap_or(0);
    drop(all_lists);
    drop(lists);
    drop(sys);

    phase("set-up");
    let (sys, warm) = spec.setup(&prefill, args.seed, CLIENT_THREADS);
    report.absorb(&warm);
    let seqs: Vec<u64> = warm.iter().map(|o| o.seq).collect();
    let side = matches!(args.kind, Kind::Oltp | Kind::Paper14b).then(|| spec.side_list(&prefill));
    phase("traced phase");
    let mode = Mode {
        traced: true,
        sample_lag: false,
        rebalance,
        ops_limit: None,
    };
    let b = timed_phase(&spec, &sys, side.as_ref(), args.seed, &seqs, &mode, half);
    report.absorb(&b.outs);
    phase("checks at rest");
    report.absorb_quiescent(spec.check_quiescent(&sys));
    drop(sys);

    let mut variant = BTreeMap::new();
    if args.kind == Kind::Paper14b {
        let window = Duration::from_secs(args.seconds) / 4;
        for (name, run) in [
            (
                "variants.leap_lt_ops_s",
                variants::run::<leaplist::LeapListLt<u64>> as fn(_, _, _, _, _) -> _,
            ),
            (
                "variants.leap_tm_ops_s",
                variants::run::<leaplist::LeapListTm<u64>>,
            ),
            (
                "variants.leap_cop_ops_s",
                variants::run::<leaplist::LeapListCop<u64>>,
            ),
            (
                "variants.leap_rwlock_ops_s",
                variants::run::<leaplist::LeapListRwlock<u64>>,
            ),
        ] {
            phase("variants");
            let (ops_s, outs) = run(&spec, &prefill, args.seed, CLIENT_THREADS, window);
            report.absorb(&outs);
            variant.insert(name, ops_s);
        }
    }

    phase("trace output");
    let spans: Vec<trace::Span> = b
        .outs
        .iter()
        .flat_map(|o| o.spans.iter().copied())
        .collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.jsonl", args.kind.name()));
    let header = record::run_record(
        args.kind.name(),
        args.seed,
        CLIENT_THREADS,
        args.seconds,
        true,
    )
    .render();
    trace::write_jsonl(&path, &header, &spans)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("trace: {} spans written to {}", spans.len(), path.display());

    let mut by_name = trace::durations(&spans);
    // The median, or the tail: the highest percentile the span count
    // supports (see `stats::tail_pm`).
    let mut p = |name: &str, tail: bool| {
        by_name.get_mut(name).map_or(0.0, |v| {
            let pm = if tail {
                stats::tail_pm(v.len() as u64)
            } else {
                Some(500)
            };
            pm.map_or(0.0, |pm| quantile_of(v, pm) as f64)
        })
    };
    let is_store = args.kind != Kind::Paper14b;
    let m = &mut report.metrics;
    let a_ops = a.ops() as f64;
    let d = |f: fn(&leap_stm::StatsSnapshot) -> u64| (f(&after.stm) - f(&before.stm)) as f64;

    for (class, p50, p99) in [
        (Class::Get, None, "get.p99_us"),
        (Class::Txn, None, "txn.p99_us"),
        (Class::Put, Some("put.p50_us"), "put.p99_us"),
        (Class::Range, Some("range.p50_us"), "range.p99_us"),
        (Class::SnapScan, Some("snapscan.p50_us"), "snapscan.p99_us"),
    ]
    .into_iter()
    .filter(|(class, ..)| scan || !matches!(class, Class::SnapScan))
    {
        let mut h = a.hist(class);
        let tail = stats::tail_pm(h.count())
            .and_then(|pm| h.quantile(pm))
            .unwrap_or(0);
        if let Some(name) = p50 {
            m.set(name, h.quantile(500).unwrap_or(0) as f64 / 1000.0);
        }
        m.set(p99, tail as f64 / 1000.0);
    }
    let store_get = p("store.get", false);
    let router = p("router.shard_of", false);
    let lookup = p("leaplist.lookup", false);
    m.set(
        "store.get_self_ns",
        if is_store {
            store_get - router - lookup
        } else {
            0.0
        },
    );
    m.set("router.shard_of_ns", router);
    let txns = a.hist(Class::Txn).count().max(1) as f64;
    let store_delta = |f: fn(&leap_store::StoreStats) -> u64| match (&before.store, &after.store) {
        (Some(x), Some(y)) => (f(y) - f(x)) as f64,
        _ => 0.0,
    };
    m.set(
        "store.collision_batch_ratio",
        store_delta(|s| s.collision_batches) / txns,
    );
    m.set("leaplist.lookup_ns", lookup);
    m.set(
        "leaplist.update_p50_us",
        p("leaplist.update", false) / 1000.0,
    );
    m.set(
        "leaplist.update_p99_us",
        p("leaplist.update", true) / 1000.0,
    );
    m.set(
        "leaplist.range_query_us",
        p("leaplist.range_query", false) / 1000.0,
    );
    m.set("leaplist.node_fill", node_fill);
    m.set("leaplist.bundle_depth_max", bundle_depth as f64);
    m.set("stm.commits_per_op", d(|s| s.commits) / a_ops);
    m.set("stm.ro_commits_per_op", d(|s| s.read_only_commits) / a_ops);
    let commits = d(|s| s.total_commits());
    let attempts = commits + d(|s| s.total_aborts());
    m.set(
        "stm.commit_ratio",
        if attempts > 0.0 {
            commits / attempts
        } else {
            0.0
        },
    );
    m.set(
        "stm.conflict_read_aborts_per_kop",
        d(|s| s.conflict_read_aborts) * 1000.0 / a_ops,
    );
    m.set(
        "stm.conflict_commit_aborts_per_kop",
        d(|s| s.conflict_commit_aborts) * 1000.0 / a_ops,
    );
    m.set(
        "stm.explicit_aborts_per_kop",
        d(|s| s.explicit_aborts) * 1000.0 / a_ops,
    );
    m.set(
        "stm.attempts_p99",
        delta_p99(&before.retries, &after.retries),
    );
    let timeouts: u64 = a.outs.iter().chain(&b.outs).map(|o| o.timeouts).sum();
    m.set("stm.timeouts", timeouts as f64);
    let mut lag: Vec<u64> = a
        .outs
        .iter()
        .flat_map(|o| o.prune_lag.iter().copied())
        .collect();
    m.set("stm.prune_lag_p50", quantile_of(&mut lag, 500) as f64);
    m.set(
        "stm.prune_lag_max",
        lag.iter().copied().max().unwrap_or(0) as f64,
    );
    m.set(
        "ebr.epochs_per_s",
        (after.epoch - before.epoch) as f64 / a.elapsed,
    );
    if scan {
        m.set(
            "leaplist.snapshot_page_us",
            p("leaplist.snapshot_page", false) / 1000.0,
        );
        m.set("cursor.open_us", p("cursor.open", false) / 1000.0);
        m.set("cursor.page_p50_us", p("cursor.page", false) / 1000.0);
        m.set("cursor.page_p99_us", p("cursor.page", true) / 1000.0);
    }
    if rebalance {
        m.set(
            "store.key_spread_ratio",
            after.store.as_ref().map_or(0.0, |s| s.key_spread_ratio()),
        );
        m.set("rebalance.step_p50_us", p("rebalance.step", false) / 1000.0);
        m.set("rebalance.step_p99_us", p("rebalance.step", true) / 1000.0);
        let rebalance_ns: u64 = b.outs.iter().map(|o| o.rebalance_ns).sum();
        m.set(
            "rebalance.busy_share",
            rebalance_ns as f64 / 1e9 / (b.elapsed * CLIENT_THREADS as f64),
        );
        m.set(
            "rebalance.migrations",
            store_delta(|s| s.migrations_completed),
        );
        m.set(
            "rebalance.aborted_migrations",
            store_delta(|s| s.aborted_migrations),
        );
    }
    let probe_s =
        b.outs.iter().map(|o| o.probe_ns).sum::<u64>() as f64 / 1e9 / CLIENT_THREADS as f64;
    let traced_rate = b.ops() as f64 / (b.elapsed - probe_s);
    m.set("trace.overhead_ratio", traced_rate / (a_ops / a.elapsed));
    let traced_ops = by_name.get("op").map_or(1, Vec::len).max(1) as f64;
    let client: u64 = ["client.gen", "client.check"]
        .iter()
        .filter_map(|n| by_name.get(*n))
        .flatten()
        .sum();
    m.set("client.gen_ns", client as f64 / traced_ops);
    for name in [
        "variants.leap_lt_ops_s",
        "variants.leap_tm_ops_s",
        "variants.leap_cop_ops_s",
        "variants.leap_rwlock_ops_s",
    ] {
        m.set(name, variant.get(name).copied().unwrap_or(0.0));
    }
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.metrics.set("failed_op_ratio", failed_ratio);
    for (class, name) in [
        (Class::Get, "get"),
        (Class::Put, "put"),
        (Class::Txn, "txn"),
        (Class::Range, "range"),
        (Class::SnapScan, "snapscan"),
    ] {
        report.samples.insert(name, a.hist(class).count());
    }
    Ok(report)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: leapbench --workload <oltp|scan|reshard|paper-14b> --seed <n> \
                 --seconds <1-60> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let watchdog = start_watchdog();
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_e2e(&args)
    };
    drop(watchdog);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    let samples = report
        .samples
        .iter()
        .fold(leap_obs::Json::obj(), |j, (k, v)| {
            j.field(k, leap_obs::Json::U64(*v))
        });
    let run = record::run_record(
        args.kind.name(),
        args.seed,
        CLIENT_THREADS,
        args.seconds,
        args.trace,
    )
    .field("samples", samples);
    println!("run {}", run.render());
    print!("{}", report.metrics.lines());
    let metrics = match report.metrics.to_json() {
        Ok(j) => j,
        Err(missing) => {
            eprintln!("error: metrics never measured: {}", missing.join(", "));
            std::process::exit(1);
        }
    };
    let result = leap_obs::Json::obj()
        .field("correct", leap_obs::Json::Bool(report.wrong == 0))
        .field("attempted", leap_obs::Json::U64(report.attempted))
        .field("failed", leap_obs::Json::U64(report.failed))
        .field("metrics", metrics);
    println!("{}", result.render());
    if report.wrong > 0 {
        eprintln!("error: {} output checks failed", report.wrong);
        std::process::exit(1);
    }
}
