//! The paper's Leap-List variants on `paper-14b` inputs: each is built,
//! loaded with the same prefill through its composite update, and run
//! closed-loop with the same mix and checks, so their throughputs compare
//! like for like (the ordering of the paper's Fig. 14b).

use crate::check;
use crate::workload::{ClientOut, Op, Spec, OP_DEADLINE};
use leap_bench::rng::Rng64;
use leap_stm::RetryPolicy;
use leaplist::{LeapListCop, LeapListLt, LeapListRwlock, LeapListTm, Params};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub trait PaperList: Sized + Send + Sync {
    fn group(n: usize) -> Vec<Self>;
    fn lookup(&self, key: u64) -> Option<u64>;
    fn range_query(&self, lo: u64, hi: u64) -> Vec<(u64, u64)>;
    fn update_batch(lists: &[&Self], keys: &[u64], values: &[u64]) -> Vec<Option<u64>>;
    fn remove_batch(lists: &[&Self], keys: &[u64]) -> Vec<Option<u64>>;
}

macro_rules! paper_list {
    ($t:ident) => {
        impl PaperList for $t<u64> {
            fn group(n: usize) -> Vec<Self> {
                $t::group(n, Params::default())
            }
            fn lookup(&self, key: u64) -> Option<u64> {
                $t::lookup(self, key)
            }
            fn range_query(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
                $t::range_query(self, lo, hi)
            }
            fn update_batch(lists: &[&Self], keys: &[u64], values: &[u64]) -> Vec<Option<u64>> {
                $t::update_batch(lists, keys, values)
            }
            fn remove_batch(lists: &[&Self], keys: &[u64]) -> Vec<Option<u64>> {
                $t::remove_batch(lists, keys)
            }
        }
    };
}

paper_list!(LeapListLt);
paper_list!(LeapListTm);
paper_list!(LeapListCop);
paper_list!(LeapListRwlock);

/// Ops per second of variant `L` over `window`, and what its clients did.
/// Every call runs under the same [`OP_DEADLINE`] as the main loop's
/// Leap-LT calls; a call that runs out of it is a failed op.
pub fn run<L: PaperList>(
    spec: &Spec,
    prefill: &[Vec<(u64, u64)>],
    seed: u64,
    threads: usize,
    window: Duration,
) -> (f64, Vec<ClientOut>) {
    let lists = L::group(prefill.len());
    let refs: Vec<&L> = lists.iter().collect();
    let rows = prefill.iter().map(Vec::len).min().unwrap_or(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let refs = &refs;
            s.spawn(move || {
                for i in (t..rows).step_by(threads) {
                    let keys: Vec<u64> = prefill.iter().map(|p| p[i].0).collect();
                    let values: Vec<u64> = prefill.iter().map(|p| p[i].1).collect();
                    L::update_batch(refs, &keys, &values);
                }
            });
        }
    });
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (refs, stop) = (&refs, &stop);
                s.spawn(move || {
                    let mut rng = Rng64::new(seed ^ 0x7A21 ^ (t as u64 + 1) << 32);
                    let mut out = ClientOut::default();
                    // ORDERING: a plain stop request; no data rides on it.
                    while !stop.load(Ordering::Relaxed) {
                        let op = spec.next_op(&mut rng, check::stamp(t as u64 + 1, out.ops));
                        let policy = RetryPolicy::default().timeout(OP_DEADLINE);
                        let r = leap_stm::with_retry_budget(policy, || match &op {
                            Op::Get { list, key } => refs[*list]
                                .lookup(*key)
                                .map_or(Ok(()), |v| check::check_value(*key, v)),
                            Op::Range { list, lo, hi } => {
                                check::check_range(*lo, *hi, &refs[*list].range_query(*lo, *hi))
                            }
                            Op::Txn { keys, values } => {
                                let prev = match values {
                                    Some(v) => L::update_batch(refs, keys, v),
                                    None => L::remove_batch(refs, keys),
                                };
                                check::check_prev(keys, &prev)
                            }
                            _ => Err("paper-14b draws no such op".into()),
                        });
                        match r {
                            Ok(Ok(())) => {}
                            Ok(Err(e)) => out.fail(format!("variant: {e}")),
                            Err(timeout) => {
                                out.timeouts += 1;
                                out.fail(format!("variant: {timeout}"));
                            }
                        }
                        out.ops += 1;
                    }
                    out
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("variant client panicked"))
            .collect()
    });
    let ops: u64 = outs.iter().map(|o| o.ops).sum();
    (ops as f64 / start.elapsed().as_secs_f64(), outs)
}
