//! Property-based crash testing: a bank of accounts with transfer
//! transactions. The invariant — the total balance is conserved — must hold
//! after an adversarial crash at *any* write, under every failure-atomic
//! backend, regardless of whether recovery completes the interrupted
//! transfer (clobber) or rolls it back (undo/redo/atlas).

use std::sync::{Arc, Mutex};

use clobber_nvm::{ArgList, Backend, Runtime, RuntimeOptions};
use clobber_pmem::{CrashConfig, PAddr, PmemPool, PoolMode, PoolOptions};
use proptest::prelude::*;

const ACCOUNTS: u64 = 8;
const INITIAL: u64 = 1000;

fn register(rt: &Runtime) {
    rt.register("transfer", |tx, args| {
        let base = PAddr::new(args.u64(0)?);
        let from = args.u64(1)? % ACCOUNTS;
        let to = args.u64(2)? % ACCOUNTS;
        let amount = args.u64(3)? % 50;
        let from_bal = tx.read_u64(base.add(from * 8))?;
        if from_bal < amount || from == to {
            return Ok(Some(vec![0]));
        }
        tx.write_u64(base.add(from * 8), from_bal - amount)?;
        let to_bal = tx.read_u64(base.add(to * 8))?;
        tx.write_u64(base.add(to * 8), to_bal + amount)?;
        Ok(Some(vec![1]))
    });
}

fn total(pool: &PmemPool, base: PAddr) -> u64 {
    (0..ACCOUNTS)
        .map(|i| pool.read_u64(base.add(i * 8)).unwrap())
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn transfers_conserve_total_across_crashes(
        transfers in proptest::collection::vec((0u64..8, 0u64..8, 0u64..50), 1..25),
        crash_at in 0u64..40,
        seed in 0u64..10_000,
        backend_idx in 0usize..4,
    ) {
        let backend = [Backend::clobber(), Backend::Undo, Backend::Redo, Backend::Atlas][backend_idx];
        let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(8 << 20)).unwrap());
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
        register(&rt);
        let base = pool.alloc(ACCOUNTS * 8).unwrap();
        for i in 0..ACCOUNTS {
            pool.write_u64(base.add(i * 8), INITIAL).unwrap();
        }
        pool.persist(base, ACCOUNTS * 8).unwrap();
        rt.set_app_root(base).unwrap();

        // Crash image captured after the crash_at-th store (if reached).
        let image: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
        let countdown = Arc::new(Mutex::new(Some(crash_at)));
        let (img, cd) = (image.clone(), countdown);
        rt.set_write_probe(Some(Arc::new(move |pool| {
            let mut c = cd.lock().unwrap();
            match *c {
                Some(0) => {
                    *img.lock().unwrap() = Some(pool.crash_media(&CrashConfig::drop_all(seed)));
                    *c = None; // disarm: crash capture is expensive
                }
                Some(n) => *c = Some(n - 1),
                None => {}
            }
        })));

        for (f, t, a) in &transfers {
            let args = ArgList::new()
                .with_u64(base.offset())
                .with_u64(*f)
                .with_u64(*t)
                .with_u64(*a);
            rt.run("transfer", &args).unwrap();
        }
        prop_assert_eq!(total(&pool, base), ACCOUNTS * INITIAL, "pre-crash conservation");

        let media = image.lock().unwrap().take();
        if let Some(media) = media {
            let pool2 = Arc::new(PmemPool::open_from_media(media, PoolMode::CrashSim).unwrap());
            let rt2 = Runtime::open(pool2.clone(), RuntimeOptions::new(backend)).unwrap();
            register(&rt2);
            rt2.recover().unwrap();
            let base2 = rt2.app_root().unwrap();
            prop_assert_eq!(
                total(&pool2, base2),
                ACCOUNTS * INITIAL,
                "post-recovery conservation under {}",
                backend.label()
            );
            // The recovered bank keeps working.
            let args = ArgList::new()
                .with_u64(base2.offset())
                .with_u64(0)
                .with_u64(1)
                .with_u64(5);
            rt2.run("transfer", &args).unwrap();
            prop_assert_eq!(total(&pool2, base2), ACCOUNTS * INITIAL);
        }
    }
}
