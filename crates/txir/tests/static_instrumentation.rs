//! Soundness of the static clobber analysis, validated end-to-end.
//!
//! Two properties, checked for every program in the corpus:
//!
//! 1. **Differential**: executing the statically instrumented transaction
//!    (compiler-decided logging sites) leaves persistent state identical to
//!    executing it under the runtime's exact dynamic clobber detection.
//! 2. **Crash soundness**: crashing the statically instrumented execution
//!    at *every* persist event and recovering (restore clobber log,
//!    re-execute) converges to the same state as an uninterrupted run or
//!    leaves the untouched one — i.e. the refined analysis logs *enough*.

use std::sync::Arc;

use clobber_nvm::{ArgList, Runtime, RuntimeOptions, TxError};
use clobber_pmem::{CrashConfig, FaultPlan, PAddr, PmemPool, PoolMode, PoolOptions};
use clobber_txir::interp::{interpret, InterpError, TxAdapter};
use clobber_txir::pipeline::{compile, register_compiled, CompileOptions, TX_STEP_LIMIT};
use clobber_txir::programs;
use clobber_txir::Function;

/// Per-program setup: allocates and initializes inputs, returns the
/// argument list and a fingerprint function reading back the final state.
#[allow(clippy::type_complexity)]
struct Scenario {
    function: Function,
    args: ArgList,
    fingerprint: Box<dyn Fn(&PmemPool) -> Vec<u64>>,
}

fn alloc_init(pool: &PmemPool, words: &[u64]) -> PAddr {
    let a = pool.alloc(words.len() as u64 * 8).unwrap();
    for (i, w) in words.iter().enumerate() {
        pool.write_u64(a.add(i as u64 * 8), *w).unwrap();
    }
    pool.persist(a, words.len() as u64 * 8).unwrap();
    a
}

fn read_words(pool: &PmemPool, a: PAddr, n: u64) -> Vec<u64> {
    (0..n)
        .map(|i| pool.read_u64(a.add(i * 8)).unwrap())
        .collect()
}

/// Builds every scenario against `pool`.
fn scenarios(pool: &Arc<PmemPool>) -> Vec<Scenario> {
    let mut v = Vec::new();
    {
        let cell = alloc_init(pool, &[5]);
        v.push(Scenario {
            function: programs::counter_bump(),
            args: ArgList::new().with_u64(cell.offset()),
            fingerprint: Box::new(move |p| read_words(p, cell, 1)),
        });
    }
    {
        let head = alloc_init(pool, &[0]);
        v.push(Scenario {
            function: programs::list_insert(),
            args: ArgList::new().with_u64(head.offset()).with_u64(4242),
            fingerprint: Box::new(move |p| {
                // Walk the list, collecting values.
                let mut out = Vec::new();
                let mut cur = p.read_u64(head).unwrap();
                while cur != 0 && out.len() < 100 {
                    out.push(p.read_u64(PAddr::new(cur)).unwrap());
                    cur = p.read_u64(PAddr::new(cur + 8)).unwrap();
                }
                out
            }),
        });
    }
    {
        let arr = alloc_init(pool, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 0]);
        v.push(Scenario {
            function: programs::array_shift(),
            args: ArgList::new()
                .with_u64(arr.offset())
                .with_u64(9)
                .with_u64(99),
            fingerprint: Box::new(move |p| read_words(p, arr, 10)),
        });
    }
    {
        // Bucket with one existing node (key 7) so both paths are hit by
        // two scenario instances: update existing and prepend new.
        let node = alloc_init(pool, &[7, 70, 0]);
        let bucket = alloc_init(pool, &[node.offset()]);
        let walk = |bucket: PAddr| {
            move |p: &PmemPool| {
                let mut out = Vec::new();
                let mut cur = p.read_u64(bucket).unwrap();
                while cur != 0 && out.len() < 100 {
                    out.push(p.read_u64(PAddr::new(cur)).unwrap());
                    out.push(p.read_u64(PAddr::new(cur + 8)).unwrap());
                    cur = p.read_u64(PAddr::new(cur + 16)).unwrap();
                }
                out
            }
        };
        v.push(Scenario {
            function: programs::hashmap_put(),
            args: ArgList::new()
                .with_u64(bucket.offset())
                .with_u64(7)
                .with_u64(77),
            fingerprint: Box::new(walk(bucket)),
        });
        let node2 = alloc_init(pool, &[7, 70, 0]);
        let bucket2 = alloc_init(pool, &[node2.offset()]);
        v.push(Scenario {
            function: programs::hashmap_put(),
            args: ArgList::new()
                .with_u64(bucket2.offset())
                .with_u64(9)
                .with_u64(90),
            fingerprint: Box::new(walk(bucket2)),
        });
    }
    {
        // node and pred each have [key][next0..3].
        let pred = alloc_init(pool, &[100, 900, 901, 902, 903]);
        let node = alloc_init(pool, &[200, 0, 0, 0, 0]);
        v.push(Scenario {
            function: programs::skiplist_link(),
            args: ArgList::new()
                .with_u64(node.offset())
                .with_u64(pred.offset())
                .with_u64(4),
            fingerprint: Box::new(move |p| {
                let mut out = read_words(p, pred, 5);
                out.extend(read_words(p, node, 5));
                out
            }),
        });
    }
    {
        // x = [left: 1111, right: y], y = [left: 2222, right: 3333]
        let y = alloc_init(pool, &[2222, 3333]);
        let x = alloc_init(pool, &[1111, y.offset()]);
        let x_cell = alloc_init(pool, &[x.offset()]);
        v.push(Scenario {
            function: programs::rotate_left(),
            args: ArgList::new().with_u64(x_cell.offset()),
            fingerprint: Box::new(move |p| {
                let mut out = read_words(p, x_cell, 1);
                out.extend(read_words(p, x, 2));
                out.extend(read_words(p, y, 2));
                out
            }),
        });
    }
    {
        let price = alloc_init(pool, &[300]);
        let qty = alloc_init(pool, &[2]);
        let total = alloc_init(pool, &[1000]);
        v.push(Scenario {
            function: programs::reserve_item(),
            args: ArgList::new()
                .with_u64(price.offset())
                .with_u64(qty.offset())
                .with_u64(total.offset()),
            fingerprint: Box::new(move |p| {
                vec![
                    p.read_u64(price).unwrap(),
                    p.read_u64(qty).unwrap(),
                    p.read_u64(total).unwrap(),
                ]
            }),
        });
    }
    {
        let tri = alloc_init(pool, &[501, 502, 503]);
        v.push(Scenario {
            function: programs::relink_triangle(),
            args: ArgList::new()
                .with_u64(tri.offset())
                .with_u64(502)
                .with_u64(999),
            fingerprint: Box::new(move |p| read_words(p, tri, 3)),
        });
    }
    {
        let cell = alloc_init(pool, &[40]);
        v.push(Scenario {
            function: programs::loop_update(),
            args: ArgList::new().with_u64(cell.offset()),
            fingerprint: Box::new(move |p| read_words(p, cell, 1)),
        });
    }
    {
        let pq = alloc_init(pool, &[11, 22]);
        v.push(Scenario {
            function: programs::unexposed(),
            args: ArgList::new()
                .with_u64(pq.offset())
                .with_u64(pq.add(8).offset()),
            fingerprint: Box::new(move |p| read_words(p, pq, 2)),
        });
    }
    v
}

fn run_mode(scenario_index: usize, static_mode: bool) -> Vec<u64> {
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(16 << 20)).unwrap());
    let rt = Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap();
    let scen = scenarios(&pool).remove(scenario_index);
    let compiled = Arc::new(compile(scen.function.clone(), CompileOptions::default()).unwrap());
    let c2 = compiled.clone();
    rt.register(&scen.function.name, move |tx, args| {
        let mut argv = Vec::new();
        for i in 0..c2.function.n_params {
            argv.push(args.u64(i as usize)?);
        }
        let mut mem = if static_mode {
            TxAdapter::new_static(tx)
        } else {
            TxAdapter::new_dynamic(tx)
        };
        match interpret(
            &c2.function,
            &c2.clobber_sites,
            &mut mem,
            &argv,
            TX_STEP_LIMIT,
        ) {
            Ok(r) => Ok(r.map(|v| v.to_le_bytes().to_vec())),
            Err(InterpError::Tx(e)) => Err(e),
            Err(e) => Err(TxError::Aborted(e.to_string())),
        }
    });
    rt.run(&scen.function.name, &scen.args).unwrap();
    (scen.fingerprint)(&pool)
}

#[test]
fn static_and_dynamic_instrumentation_agree() {
    let n = {
        let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(16 << 20)).unwrap());
        scenarios(&pool).len()
    };
    for i in 0..n {
        let s = run_mode(i, true);
        let d = run_mode(i, false);
        assert_eq!(s, d, "scenario {i} diverged between static and dynamic");
        assert!(!s.is_empty());
    }
}

/// Crashes scenario `i`, compiled under `opts`, at every persist event of
/// its run — the body, whose stores wait for the commit, and the commit —
/// and recovers each adversarial image with the plain compiled txfunc.
/// Until the commit's log sync orders the begin nothing is durable and the
/// transaction never happened (`untouched`); from then on, through the
/// fence that clears its status word, recovery re-executes it
/// (`expected`). So the re-executing events are a non-empty suffix.
fn recover_at_every_event(i: usize, opts: CompileOptions, untouched: &[u64], expected: &[u64]) {
    let world = |plan: FaultPlan| {
        let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(16 << 20)).unwrap());
        let rt = Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap();
        let scen = scenarios(&pool).remove(i);
        let compiled = Arc::new(compile(scen.function.clone(), opts).unwrap());
        register_compiled(&rt, compiled.clone());
        pool.arm_faults(plan);
        let _ = rt.run(&scen.function.name, &scen.args);
        (pool, compiled)
    };
    let events = world(FaultPlan::count_only()).0.disarm_faults();
    let fingerprint = scenario_fingerprint(i).fingerprint;
    let mut begun = false;
    for k in 0..events {
        let (pool, compiled) = world(FaultPlan::crash_at(k));
        assert_eq!(pool.fault_tripped(), Some(k), "scenario {i}");
        let media = pool.crash_media(&CrashConfig::drop_all(42 + k));
        let pool2 = Arc::new(PmemPool::open_from_media(media, PoolMode::CrashSim).unwrap());
        let rt2 = Runtime::open(pool2.clone(), RuntimeOptions::default()).unwrap();
        register_compiled(&rt2, compiled.clone());
        let report = rt2.recover().unwrap();
        assert!(
            report.reexecuted.len() == 1 || !begun,
            "scenario {i} crash at event {k}/{events}: expected a re-execution"
        );
        begun = report.reexecuted.len() == 1;
        assert_eq!(
            fingerprint(&pool2),
            if begun { expected } else { untouched },
            "scenario {i} ({}) crash at event {k}/{events}",
            compiled.function.name
        );
    }
    assert!(begun, "scenario {i}: the last event re-executes");
}

#[test]
fn crash_at_every_event_recovers_to_the_uninterrupted_state() {
    let n = {
        let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(16 << 20)).unwrap());
        scenarios(&pool).len()
    };
    for i in 0..n {
        let expected = run_mode(i, true);
        let untouched = {
            let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(16 << 20)).unwrap());
            let _rt = Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap();
            (scenarios(&pool).remove(i).fingerprint)(&pool)
        };
        recover_at_every_event(i, CompileOptions::default(), &untouched, &expected);
    }
}

/// Rebuilds scenario `i`'s fingerprint closure using a *scratch* pool for
/// address discovery (setup is deterministic, so addresses match the
/// recovered pool's) — the recovered pool itself is never written.
fn scenario_fingerprint(i: usize) -> Scenario {
    let scratch = Arc::new(PmemPool::create(PoolOptions::crash_sim(16 << 20)).unwrap());
    let _rt = Runtime::create(scratch.clone(), RuntimeOptions::default()).unwrap();
    scenarios(&scratch).remove(i)
}

#[test]
fn conservative_instrumentation_is_also_crash_sound() {
    // The unrefined analysis logs a superset: it must recover correctly too.
    let pool = Arc::new(PmemPool::create(PoolOptions::crash_sim(16 << 20)).unwrap());
    let scen = scenarios(&pool).remove(9); // loop_update
    let compiled = compile(scen.function, CompileOptions { refine: false }).unwrap();
    assert!(compiled.clobber_sites.len() > 1);
    // loop_update: 40, then 40 + 1 (pre-loop) + 9 (loop) = 50.
    recover_at_every_event(9, CompileOptions { refine: false }, &[40], &[50]);
}
