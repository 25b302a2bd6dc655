//! STAMP-style `vacation`: a travel-agency database (paper §5.7).
//!
//! Four tables — cars, flights, rooms, customers — persisted in the pool.
//! Each task is one failure-atomic transaction spanning several tables:
//! a reservation examines *queries-per-task* items, reserves the cheapest
//! available one of each queried kind, and appends to the customer's
//! reservation list. Tables are either red-black trees or AVL trees, the
//! swap Fig. 11 performs.
//!
//! Record value: `[quantity][free][price]` (24 bytes). Customer value: a
//! count followed by `(kind, item, price)` triples.

use clobber_nvm::{ArgList, ArgValue, Runtime, Tx, TxError};
use clobber_pmem::{PAddr, PmemError, PmemPool};
use clobber_sim::LockRequest;
use clobber_workloads::vacation::{Action, ResKind};

use clobber_pds::{avltree, rbtree, AvlTree, RbTree};

const MAGIC: u64 = 0xC10B_0010;

/// Which tree implementation backs the four tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// Red-black trees (vacation's original tables).
    RedBlack,
    /// AVL trees (the STAMP-suite alternative, Fig. 11).
    Avl,
}

impl TreeKind {
    /// Stable label for CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            TreeKind::RedBlack => "rbtree",
            TreeKind::Avl => "avltree",
        }
    }

    fn tag(&self) -> u64 {
        match self {
            TreeKind::RedBlack => 0,
            TreeKind::Avl => 1,
        }
    }
}

/// Root layout: `[magic][kind][car][flight][room][customer]` where each
/// table field is a tree root-block address.
const T_KIND: u64 = 8;
const T_TABLES: u64 = 16;

/// The reservation txfunc name.
pub const TX_RESERVE: &str = "vacation_reserve";
/// The cancellation txfunc name.
pub const TX_CANCEL: &str = "vacation_cancel";
/// The add-item txfunc name.
pub const TX_ADD_ITEM: &str = "vacation_add_item";
/// The delete-item txfunc name.
pub const TX_DEL_ITEM: &str = "vacation_del_item";

/// Handle to a persistent vacation database.
#[derive(Debug, Clone, Copy)]
pub struct Vacation {
    root: PAddr,
    kind: TreeKind,
}

fn encode_record(quantity: u64, free: u64, price: u64) -> [u8; 24] {
    let mut v = [0u8; 24];
    v[..8].copy_from_slice(&quantity.to_le_bytes());
    v[8..16].copy_from_slice(&free.to_le_bytes());
    v[16..].copy_from_slice(&price.to_le_bytes());
    v
}

fn decode_record(v: &[u8]) -> (u64, u64, u64) {
    (
        u64::from_le_bytes(v[..8].try_into().expect("record")),
        u64::from_le_bytes(v[8..16].try_into().expect("record")),
        u64::from_le_bytes(v[16..24].try_into().expect("record")),
    )
}

fn tree_insert(
    tx: &mut Tx<'_>,
    kind_tag: u64,
    table: PAddr,
    key: u64,
    value: &[u8],
) -> Result<(), TxError> {
    if kind_tag == 0 {
        rbtree::tx_insert(tx, table, key, value)
    } else {
        avltree::tx_insert(tx, table, key, value)
    }
}

fn tree_get(
    tx: &mut Tx<'_>,
    kind_tag: u64,
    table: PAddr,
    key: u64,
) -> Result<Option<Vec<u8>>, TxError> {
    if kind_tag == 0 {
        rbtree::tx_get(tx, table, key)
    } else {
        avltree::tx_get(tx, table, key)
    }
}

fn table_addr(tx: &mut Tx<'_>, root: PAddr, idx: u64) -> Result<PAddr, TxError> {
    tx.read_paddr(root.add(T_TABLES + idx * 8))
}

impl Vacation {
    /// Creates the database and populates each reservation table with
    /// `relations` items (deterministic prices, quantity 100 each, as in
    /// STAMP).
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] if the pool is exhausted.
    pub fn create(rt: &Runtime, kind: TreeKind, relations: u64) -> Result<Vacation, TxError> {
        Self::register(rt);
        let pool = rt.pool();
        let root = pool.alloc(T_TABLES + 4 * 8)?;
        pool.write_u64(root, MAGIC)?;
        pool.write_u64(root.add(T_KIND), kind.tag())?;
        for i in 0..4u64 {
            let table = match kind {
                TreeKind::RedBlack => RbTree::create(rt)?.root(),
                TreeKind::Avl => AvlTree::create(rt)?.root(),
            };
            pool.write_u64(root.add(T_TABLES + i * 8), table.offset())?;
        }
        pool.persist(root, T_TABLES + 4 * 8)?;
        rt.set_app_root(root)?;
        let v = Vacation { root, kind };
        // Populate via the add-item transaction (99 is deterministic price
        // derivation; quantity 100 matches STAMP's manager initialization).
        for kind in ResKind::all() {
            for item in 0..relations {
                let price = 50 + (item.wrapping_mul(2_654_435_761) % 450);
                v.run_action(
                    rt,
                    0,
                    &Action::AddItem {
                        kind,
                        item,
                        quantity: 100,
                        price,
                    },
                )?;
            }
        }
        Ok(v)
    }

    /// Reopens an existing database after restart.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] if the app root holds no vacation
    /// database header.
    pub fn open(rt: &Runtime) -> Result<Vacation, TxError> {
        let root = rt.app_root()?;
        let pool = rt.pool();
        if pool.read_u64(root)? != MAGIC {
            let why = format!("no vacation database at {:#x}", root.offset());
            return Err(PmemError::CorruptPool(why).into());
        }
        let kind = if pool.read_u64(root.add(T_KIND))? == 0 {
            TreeKind::RedBlack
        } else {
            TreeKind::Avl
        };
        Ok(Vacation { root, kind })
    }

    /// The backing tree kind.
    pub fn kind(&self) -> TreeKind {
        self.kind
    }

    /// Registers all vacation txfuncs.
    pub fn register(rt: &Runtime) {
        rt.register(TX_RESERVE, |tx, args| {
            let root = PAddr::new(args.u64(0)?);
            let customer = args.u64(1)?;
            let kind_tag = tx.read_u64(root.add(T_KIND))?;
            // Remaining args: (table_idx, item) pairs.
            let mut queries = Vec::new();
            let mut i = 2;
            while args.u64(i).is_ok() {
                queries.push((args.u64(i)?, args.u64(i + 1)?));
                i += 2;
            }
            // Per kind, pick the cheapest queried item with availability.
            let mut picks: [Option<(u64, u64)>; 3] = [None; 3]; // (item, price)
            for &(tbl, item) in &queries {
                let table = table_addr(tx, root, tbl)?;
                if let Some(rec) = tree_get(tx, kind_tag, table, item)? {
                    let (_q, free, price) = decode_record(&rec);
                    if free > 0 {
                        let slot = &mut picks[tbl as usize];
                        let better = slot.map(|(_, p)| price < p).unwrap_or(true);
                        if better {
                            *slot = Some((item, price));
                        }
                    }
                }
            }
            // Reserve each pick: decrement availability, extend the
            // customer's reservation list.
            let cust_table = table_addr(tx, root, 3)?;
            let mut cust_list = tree_get(tx, kind_tag, cust_table, customer)?
                .unwrap_or_else(|| 0u64.to_le_bytes().to_vec());
            let mut reserved_any = false;
            for (tbl, pick) in picks.iter().enumerate() {
                let (item, price) = match pick {
                    Some(p) => *p,
                    None => continue,
                };
                let table = table_addr(tx, root, tbl as u64)?;
                let rec = tree_get(tx, kind_tag, table, item)?.expect("picked item exists");
                let (q, free, p) = decode_record(&rec);
                tree_insert(tx, kind_tag, table, item, &encode_record(q, free - 1, p))?;
                let count = u64::from_le_bytes(cust_list[..8].try_into().expect("count"));
                cust_list[..8].copy_from_slice(&(count + 1).to_le_bytes());
                cust_list.extend_from_slice(&(tbl as u64).to_le_bytes());
                cust_list.extend_from_slice(&item.to_le_bytes());
                cust_list.extend_from_slice(&price.to_le_bytes());
                reserved_any = true;
            }
            if reserved_any {
                tree_insert(tx, kind_tag, cust_table, customer, &cust_list)?;
            }
            Ok(Some(vec![reserved_any as u8]))
        });
        rt.register(TX_CANCEL, |tx, args| {
            let root = PAddr::new(args.u64(0)?);
            let customer = args.u64(1)?;
            let kind_tag = tx.read_u64(root.add(T_KIND))?;
            let cust_table = table_addr(tx, root, 3)?;
            let mut cust_list = match tree_get(tx, kind_tag, cust_table, customer)? {
                Some(l) => l,
                None => return Ok(Some(vec![0])),
            };
            let count = u64::from_le_bytes(cust_list[..8].try_into().expect("count"));
            if count == 0 {
                return Ok(Some(vec![0]));
            }
            // Pop the most recent reservation and return its availability.
            let tail = cust_list.len() - 24;
            let tbl = u64::from_le_bytes(cust_list[tail..tail + 8].try_into().expect("kind"));
            let item = u64::from_le_bytes(cust_list[tail + 8..tail + 16].try_into().expect("item"));
            cust_list.truncate(tail);
            cust_list[..8].copy_from_slice(&(count - 1).to_le_bytes());
            let table = table_addr(tx, root, tbl)?;
            if let Some(rec) = tree_get(tx, kind_tag, table, item)? {
                let (q, free, p) = decode_record(&rec);
                tree_insert(tx, kind_tag, table, item, &encode_record(q, free + 1, p))?;
            }
            tree_insert(tx, kind_tag, cust_table, customer, &cust_list)?;
            Ok(Some(vec![1]))
        });
        rt.register(TX_ADD_ITEM, |tx, args| {
            let root = PAddr::new(args.u64(0)?);
            let tbl = args.u64(1)?;
            let item = args.u64(2)?;
            let quantity = args.u64(3)?;
            let price = args.u64(4)?;
            let kind_tag = tx.read_u64(root.add(T_KIND))?;
            let table = table_addr(tx, root, tbl)?;
            let (q, free) = match tree_get(tx, kind_tag, table, item)? {
                Some(rec) => {
                    let (q, free, _) = decode_record(&rec);
                    (q + quantity, free + quantity)
                }
                None => (quantity, quantity),
            };
            tree_insert(tx, kind_tag, table, item, &encode_record(q, free, price))?;
            Ok(None)
        });
        rt.register(TX_DEL_ITEM, |tx, args| {
            let root = PAddr::new(args.u64(0)?);
            let tbl = args.u64(1)?;
            let item = args.u64(2)?;
            let quantity = args.u64(3)?;
            let kind_tag = tx.read_u64(root.add(T_KIND))?;
            let table = table_addr(tx, root, tbl)?;
            if let Some(rec) = tree_get(tx, kind_tag, table, item)? {
                let (q, free, p) = decode_record(&rec);
                // Only unreserved stock can be withdrawn.
                let take = quantity.min(free);
                tree_insert(
                    tx,
                    kind_tag,
                    table,
                    item,
                    &encode_record(q - take, free - take, p),
                )?;
            }
            Ok(None)
        });
    }

    /// Executes one workload [`Action`] as a single failure-atomic
    /// transaction on logical-thread `slot`. Returns `true` for reservation
    /// actions that reserved or cancelled something.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn run_action(&self, rt: &Runtime, slot: usize, action: &Action) -> Result<bool, TxError> {
        let out = match action {
            Action::MakeReservation { customer, queries } => {
                let mut args = ArgList::new()
                    .with_u64(self.root.offset())
                    .with_u64(*customer);
                for (kind, item) in queries {
                    args.push(ArgValue::U64(kind.index() as u64));
                    args.push(ArgValue::U64(*item));
                }
                rt.run_on(slot, TX_RESERVE, &args)?
            }
            Action::CancelReservation { customer } => rt.run_on(
                slot,
                TX_CANCEL,
                &ArgList::new()
                    .with_u64(self.root.offset())
                    .with_u64(*customer),
            )?,
            Action::AddItem {
                kind,
                item,
                quantity,
                price,
            } => rt.run_on(
                slot,
                TX_ADD_ITEM,
                &ArgList::new()
                    .with_u64(self.root.offset())
                    .with_u64(kind.index() as u64)
                    .with_u64(*item)
                    .with_u64(*quantity)
                    .with_u64(*price),
            )?,
            Action::DeleteItem {
                kind,
                item,
                quantity,
            } => rt.run_on(
                slot,
                TX_DEL_ITEM,
                &ArgList::new()
                    .with_u64(self.root.offset())
                    .with_u64(kind.index() as u64)
                    .with_u64(*item)
                    .with_u64(*quantity),
            )?,
        };
        Ok(out == Some(vec![1]))
    }

    /// The simulated-lock set for `action`: exclusive locks on every table
    /// the transaction may touch (the paper's conservative 2PL across
    /// tables).
    pub fn locks_for(&self, action: &Action) -> Vec<LockRequest> {
        let base = self.root.offset().wrapping_mul(31);
        let table_lock = |i: u64| LockRequest::exclusive(base + i);
        match action {
            Action::MakeReservation { queries, .. } => {
                let mut locks: Vec<u64> = queries.iter().map(|(k, _)| k.index() as u64).collect();
                locks.push(3); // customers
                locks.sort_unstable();
                locks.dedup();
                locks.into_iter().map(table_lock).collect()
            }
            Action::CancelReservation { .. } => {
                // The cancelled kind is unknown until execution: lock all.
                (0..4).map(table_lock).collect()
            }
            Action::AddItem { kind, .. } | Action::DeleteItem { kind, .. } => {
                vec![table_lock(kind.index() as u64)]
            }
        }
    }

    /// Conservation check: across all tables,
    /// `quantity - free` must equal the number of reservations customers
    /// hold for that table, and prices must match. Returns the number of
    /// outstanding reservations.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] on a corrupt database.
    ///
    /// # Panics
    ///
    /// Panics if conservation is violated (this is a checker).
    pub fn verify(&self, pool: &PmemPool) -> Result<u64, TxError> {
        let dump_table = |idx: u64| -> Result<Vec<(u64, Vec<u8>)>, TxError> {
            let table = PAddr::new(pool.read_u64(self.root.add(T_TABLES + idx * 8))?);
            match self.kind {
                TreeKind::RedBlack => RbTree::open(pool, table)?.dump(pool),
                TreeKind::Avl => AvlTree::open(pool, table)?.dump(pool),
            }
        };
        // Outstanding per (table, item) from the item side.
        let mut outstanding: std::collections::HashMap<(u64, u64), i64> =
            std::collections::HashMap::new();
        for tbl in 0..3u64 {
            for (item, rec) in dump_table(tbl)? {
                let (q, free, _) = decode_record(&rec);
                assert!(free <= q, "free exceeds quantity");
                if q != free {
                    outstanding.insert((tbl, item), (q - free) as i64);
                }
            }
        }
        // Count from the customer side.
        let mut total = 0u64;
        for (_cust, list) in dump_table(3)? {
            let count = u64::from_le_bytes(list[..8].try_into().expect("count"));
            assert_eq!(
                list.len() as u64,
                8 + count * 24,
                "customer list length mismatch"
            );
            for i in 0..count {
                let off = 8 + (i * 24) as usize;
                let tbl = u64::from_le_bytes(list[off..off + 8].try_into().expect("tbl"));
                let item = u64::from_le_bytes(list[off + 8..off + 16].try_into().expect("item"));
                let e = outstanding.entry((tbl, item)).or_insert(0);
                *e -= 1;
                total += 1;
            }
        }
        for ((tbl, item), v) in outstanding {
            assert_eq!(v, 0, "conservation violated for table {tbl} item {item}");
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clobber_nvm::{Backend, RuntimeOptions};
    use clobber_pmem::{PmemPool, PoolOptions};
    use clobber_workloads::vacation::ActionStream;
    use std::sync::Arc;

    fn setup(kind: TreeKind, backend: Backend) -> (Arc<PmemPool>, Runtime, Vacation) {
        let pool = Arc::new(PmemPool::create(PoolOptions::performance(128 << 20)).unwrap());
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
        let v = Vacation::create(&rt, kind, 50).unwrap();
        (pool, rt, v)
    }

    #[test]
    fn reservation_decrements_availability() {
        let (pool, rt, v) = setup(TreeKind::RedBlack, Backend::clobber());
        let action = Action::MakeReservation {
            customer: 1,
            queries: vec![(ResKind::Car, 3), (ResKind::Car, 7)],
        };
        assert!(v.run_action(&rt, 0, &action).unwrap());
        assert_eq!(v.verify(&pool).unwrap(), 1);
    }

    #[test]
    fn cancel_returns_the_reservation() {
        let (pool, rt, v) = setup(TreeKind::RedBlack, Backend::clobber());
        v.run_action(
            &rt,
            0,
            &Action::MakeReservation {
                customer: 5,
                queries: vec![(ResKind::Room, 2)],
            },
        )
        .unwrap();
        assert_eq!(v.verify(&pool).unwrap(), 1);
        assert!(v
            .run_action(&rt, 0, &Action::CancelReservation { customer: 5 })
            .unwrap());
        assert_eq!(v.verify(&pool).unwrap(), 0);
        assert!(!v
            .run_action(&rt, 0, &Action::CancelReservation { customer: 5 })
            .unwrap());
    }

    #[test]
    fn full_workload_preserves_conservation() {
        for kind in [TreeKind::RedBlack, TreeKind::Avl] {
            for backend in [Backend::clobber(), Backend::Undo, Backend::Redo] {
                let (pool, rt, v) = setup(kind, backend);
                for action in ActionStream::new(300, 50, 20, 3, 7) {
                    v.run_action(&rt, 0, &action).unwrap();
                }
                v.verify(&pool).unwrap();
            }
        }
    }

    #[test]
    fn queries_per_task_changes_read_write_ratio() {
        // More queries per task = more reads per transaction (paper §5.7),
        // while the reserve writes stay bounded by 3 tables + customer.
        let stats_for = |q: usize| {
            let (pool, rt, v) = setup(TreeKind::RedBlack, Backend::clobber());
            let before = pool.stats().snapshot();
            for action in ActionStream::new(100, 50, 20, q, 9) {
                v.run_action(&rt, 0, &action).unwrap();
            }
            pool.stats().snapshot().delta(&before)
        };
        let low = stats_for(2);
        let high = stats_for(6);
        assert!(high.reads > low.reads, "{} vs {}", high.reads, low.reads);
    }

    #[test]
    fn lock_sets_cover_touched_tables() {
        let (_p, _rt, v) = {
            let pool = Arc::new(PmemPool::create(PoolOptions::performance(64 << 20)).unwrap());
            let rt = Runtime::create(pool.clone(), RuntimeOptions::default()).unwrap();
            let v = Vacation::create(&rt, TreeKind::Avl, 10).unwrap();
            (pool, rt, v)
        };
        let res = Action::MakeReservation {
            customer: 0,
            queries: vec![(ResKind::Car, 1), (ResKind::Car, 2)],
        };
        let locks = v.locks_for(&res);
        assert_eq!(locks.len(), 2, "car table + customers");
        let cancel = Action::CancelReservation { customer: 0 };
        assert_eq!(v.locks_for(&cancel).len(), 4);
    }

    #[test]
    fn reopen_finds_the_same_database() {
        let (pool, rt, v) = setup(TreeKind::Avl, Backend::clobber());
        v.run_action(
            &rt,
            0,
            &Action::MakeReservation {
                customer: 2,
                queries: vec![(ResKind::Flight, 4)],
            },
        )
        .unwrap();
        let rt2 = Runtime::open(pool.clone(), RuntimeOptions::default()).unwrap();
        Vacation::register(&rt2);
        let v2 = Vacation::open(&rt2).unwrap();
        assert_eq!(v2.kind(), TreeKind::Avl);
        assert_eq!(v2.verify(&pool).unwrap(), 1);
    }

    #[test]
    fn open_reports_a_wrong_root_magic_as_a_corrupt_pool() {
        let (pool, rt, _v) = setup(TreeKind::RedBlack, Backend::clobber());
        pool.write_u64(rt.app_root().unwrap(), 0).unwrap();
        assert!(matches!(
            Vacation::open(&rt),
            Err(TxError::Pmem(PmemError::CorruptPool(_)))
        ));
    }
}
