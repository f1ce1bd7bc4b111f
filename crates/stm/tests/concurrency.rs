//! Multi-threaded correctness tests for both STM modes: lost updates,
//! invariant preservation (bank transfers), snapshot consistency of
//! read-only transactions, and isolation of naked readers under write-back.

use leap_stm::{atomically, Mode, StmDomain, TVar};
use std::sync::Arc;

fn domains() -> Vec<Arc<StmDomain>> {
    vec![
        Arc::new(StmDomain::with_config(Mode::WriteBack, 12)),
        Arc::new(StmDomain::with_config(Mode::WriteThrough, 12)),
    ]
}

#[test]
fn no_lost_updates_on_shared_counter() {
    for domain in domains() {
        let counter = Arc::new(TVar::new(0u64));
        let threads = 4;
        let per_thread = 2_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let d = domain.clone();
                let c = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        atomically(&d, |tx| {
                            let x = tx.read(&*c)?;
                            tx.write(&*c, x + 1)
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            counter.naked_load(),
            threads as u64 * per_thread,
            "mode {:?}",
            domain.mode()
        );
    }
}

#[test]
fn bank_transfers_preserve_total() {
    for domain in domains() {
        let n_accounts = 16;
        let initial = 1_000u64;
        let accounts: Arc<Vec<TVar<u64>>> =
            Arc::new((0..n_accounts).map(|_| TVar::new(initial)).collect());
        let threads = 4;
        let transfers = 2_000;

        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let d = domain.clone();
                let accts = accounts.clone();
                std::thread::spawn(move || {
                    let mut rng = (t as u64 + 1) * 0x9E37_79B9;
                    let mut next = move || {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng
                    };
                    for _ in 0..transfers {
                        let from = (next() % n_accounts as u64) as usize;
                        let to = (next() % n_accounts as u64) as usize;
                        let amount = next() % 10;
                        atomically(&d, |tx| {
                            let f = tx.read(&accts[from])?;
                            let t_ = tx.read(&accts[to])?;
                            if f >= amount && from != to {
                                tx.write(&accts[from], f - amount)?;
                                tx.write(&accts[to], t_ + amount)?;
                            }
                            Ok(())
                        });
                    }
                })
            })
            .collect();

        // Concurrent auditors: every consistent snapshot must show the same
        // total.
        let audit_handles: Vec<_> = (0..2)
            .map(|_| {
                let d = domain.clone();
                let accts = accounts.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let total = atomically(&d, |tx| {
                            let mut sum = 0u64;
                            for a in accts.iter() {
                                sum += tx.read(a)?;
                            }
                            Ok(sum)
                        });
                        assert_eq!(
                            total,
                            n_accounts as u64 * initial,
                            "read-only snapshot saw a torn total"
                        );
                    }
                })
            })
            .collect();

        for h in handles {
            h.join().unwrap();
        }
        for h in audit_handles {
            h.join().unwrap();
        }
        let final_total: u64 = accounts.iter().map(|a| a.naked_load()).sum();
        assert_eq!(final_total, n_accounts as u64 * initial);
    }
}

#[test]
fn wb_naked_readers_never_observe_aborted_writes() {
    // Writers repeatedly write a poison value and then explicitly abort.
    // Under write-back, naked readers must never see the poison.
    let domain = Arc::new(StmDomain::with_config(Mode::WriteBack, 12));
    let v = Arc::new(TVar::new(0u64));
    const POISON: u64 = u64::MAX;

    let writer = {
        let d = domain.clone();
        let v = v.clone();
        std::thread::spawn(move || {
            for i in 0..5_000u64 {
                let mut tx = leap_stm::Txn::begin(&d);
                tx.write(&*v, POISON).unwrap();
                if i % 2 == 0 {
                    let _ = tx.explicit_abort();
                    drop(tx); // rollback: poison must never surface
                } else {
                    // Overwrite with a benign value before committing.
                    tx.write(&*v, i).unwrap();
                    let _ = tx.commit();
                }
            }
        })
    };
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let v = v.clone();
            std::thread::spawn(move || {
                for _ in 0..50_000 {
                    assert_ne!(v.naked_load(), POISON, "tentative write observed");
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}

#[test]
fn read_single_is_never_torn_under_writers() {
    // One writer commits (a, a) pairs transactionally; read_single of each
    // var individually always yields a committed (not mid-commit) value.
    for domain in domains() {
        let a = Arc::new(TVar::new(0u64));
        let d2 = domain.clone();
        let a2 = a.clone();
        let writer = std::thread::spawn(move || {
            for i in 1..=20_000u64 {
                atomically(&d2, |tx| tx.write(&*a2, i))
            }
        });
        let mut last = 0;
        for _ in 0..20_000 {
            let x = a.read_single(&domain);
            assert!(x >= last, "read_single went backwards: {x} < {last}");
            last = x;
        }
        writer.join().unwrap();
    }
}

#[test]
fn stats_accumulate_under_contention() {
    let domain = Arc::new(StmDomain::with_config(Mode::WriteBack, 4));
    let v = Arc::new(TVar::new(0u64));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let d = domain.clone();
            let v = v.clone();
            std::thread::spawn(move || {
                for _ in 0..1_000 {
                    atomically(&d, |tx| {
                        let x = tx.read(&*v)?;
                        tx.write(&*v, x + 1)
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let s = domain.stats();
    assert_eq!(v.naked_load(), 4_000);
    assert_eq!(s.commits, 4_000);
    // Aborts are workload-dependent, but the counters must be consistent.
    assert_eq!(s.explicit_aborts, 0);
}

/// A snapshot pin must never land below a prune bound read before it:
/// pruning to that bound may already have cut every version the pin
/// would resolve onto. Two writers cycle wiring tickets around tiny
/// commits (each ticket samples the clock before the commit bumps it)
/// while a reader alternates `prune_bound` and `pin_snapshot`.
#[test]
fn pin_never_lands_below_an_earlier_prune_bound() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let d = Arc::new(StmDomain::new());
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|_| {
            let (d, stop) = (d.clone(), stop.clone());
            std::thread::spawn(move || {
                let var = TVar::new(0u64);
                // ORDERING: a stop flag; nothing is published through it.
                while !stop.load(Ordering::Relaxed) {
                    let ticket = d.begin_wiring();
                    atomically(&d, |tx| tx.write(&var, 1));
                    drop(ticket);
                }
            })
        })
        .collect();
    // The race needs many rounds to show; unoptimized builds only smoke it.
    let rounds = if cfg!(debug_assertions) {
        100_000
    } else {
        2_000_000
    };
    let mut violation = None;
    for i in 0..rounds {
        let bound = d.prune_bound();
        let pin = d.pin_snapshot();
        if pin.ts() < bound {
            violation = Some((i, pin.ts(), bound));
            break;
        }
    }
    // ORDERING: a stop flag; the joins below synchronize.
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(violation, None, "(iteration, pin ts, earlier prune bound)");
}
