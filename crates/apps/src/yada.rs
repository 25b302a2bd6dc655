//! STAMP-style `yada`: Ruppert's Delaunay mesh refinement (paper §5.8).
//!
//! The mesh — points, triangles with neighbor links, boundary segments, and
//! the bad-triangle work queue — lives entirely in persistent memory, as in
//! the paper ("we persist the graph that stores all the mesh triangles, the
//! set that contains the mesh boundary segments, and the task queue that
//! holds the triangles that need to be refined"). Each refinement step is
//! one failure-atomic transaction:
//!
//! 1. pop a bad triangle (minimum angle below the constraint),
//! 2. compute its circumcenter,
//! 3. if the circumcenter encroaches a boundary segment, split that
//!    segment instead (Ruppert's rule); otherwise insert the circumcenter,
//! 4. re-triangulate the Bowyer–Watson cavity and enqueue any new bad
//!    triangles.
//!
//! Refinement at aggressive angle constraints is bounded by a size cutoff
//! (triangles below a minimal circumradius are never considered bad) plus a
//! point-capacity cap, so the run terminates for any constraint in the
//! paper's 15°–30° sweep.

use clobber_nvm::{ArgList, Runtime, Tx, TxError};
use clobber_pmem::{PAddr, PmemError, PmemPool};

use crate::geom::{
    self, circumcenter, encroaches, in_circumcircle, min_angle_deg, orient2d, Point,
};

const MAGIC: u64 = 0xC10B_0011;

// Root layout.
const R_POINTS: u64 = 8;
const R_POINTS_CAP: u64 = 16;
const R_POINTS_LEN: u64 = 24;
const R_TRI_HEAD: u64 = 32;
const R_QHEAD: u64 = 40;
const R_QTAIL: u64 = 48;
const R_SEG_HEAD: u64 = 56;
const R_ANGLE_X1000: u64 = 64;
const R_INSERTED: u64 = 72;
const R_PROCESSED: u64 = 80;
const R_MIN_R2: u64 = 88;
const ROOT_SIZE: u64 = 96;

// Triangle layout.
const T_V0: u64 = 0;
const T_N0: u64 = 24;
const T_ALIVE: u64 = 48;
const T_ALL_NEXT: u64 = 56;
const TRI_SIZE: u64 = 64;

// Queue node layout.
const Q_TRI: u64 = 0;
const Q_NEXT: u64 = 8;
const QNODE_SIZE: u64 = 16;

// Segment layout.
const S_PA: u64 = 0;
const S_PB: u64 = 8;
const S_NEXT: u64 = 16;
const S_ALIVE: u64 = 24;
const SEG_SIZE: u64 = 32;

/// Squared circumradius floor relative to the input density: triangles
/// smaller than `1/(4*sqrt(n))` in circumradius are never refined, which
/// bounds refinement for angle constraints beyond Ruppert's termination
/// guarantee (the paper sweeps up to 30°; Ruppert guarantees ~20.7°).
fn min_r2_for(n_points: usize) -> f64 {
    1.0 / (16.0 * n_points as f64)
}

/// The refinement txfunc name.
pub const TX_REFINE: &str = "yada_refine_step";

/// Outcome of one refinement step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A bad triangle was processed.
    Refined,
    /// The work queue is empty: the mesh meets the constraint.
    Done,
    /// The point budget is exhausted (reported, never silent).
    CapacityExhausted,
}

/// Summary of a refinement run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Refinement transactions executed.
    pub steps: u64,
    /// Points inserted (circumcenters + segment midpoints).
    pub inserted_points: u64,
    /// Final number of alive triangles.
    pub final_triangles: u64,
    /// `true` if refinement stopped on the capacity cap rather than
    /// convergence.
    pub capped: bool,
}

/// Handle to a persistent mesh under refinement.
#[derive(Debug, Clone, Copy)]
pub struct Yada {
    root: PAddr,
}

fn f64_to_u64(v: f64) -> u64 {
    v.to_bits()
}

fn read_point(tx: &mut Tx<'_>, points: PAddr, i: u64) -> Result<Point, TxError> {
    let x = f64::from_bits(tx.read_u64(points.add(i * 16))?);
    let y = f64::from_bits(tx.read_u64(points.add(i * 16 + 8))?);
    Ok(Point::new(x, y))
}

fn tri_points(
    tx: &mut Tx<'_>,
    points: PAddr,
    tri: PAddr,
) -> Result<([u64; 3], [Point; 3]), TxError> {
    let v0 = tx.read_u64(tri.add(T_V0))?;
    let v1 = tx.read_u64(tri.add(T_V0 + 8))?;
    let v2 = tx.read_u64(tri.add(T_V0 + 16))?;
    Ok((
        [v0, v1, v2],
        [
            read_point(tx, points, v0)?,
            read_point(tx, points, v1)?,
            read_point(tx, points, v2)?,
        ],
    ))
}

/// Alive states: 0 = dead, 1 = alive, 2 = alive but exempt from further
/// refinement (its quality cannot be improved without violating the size
/// floor; counted and reported, never silent).
fn is_alive(state: u64) -> bool {
    state != 0
}

fn is_bad(pts: &[Point; 3], angle_deg: f64, min_r2: f64) -> bool {
    let cc = circumcenter(pts[0], pts[1], pts[2]);
    let r2 = cc.dist2(&pts[0]);
    r2 > min_r2 && min_angle_deg(pts[0], pts[1], pts[2]) < angle_deg
}

impl Yada {
    /// Builds the persistent mesh from `n_points` seeded input points,
    /// with the given minimum-angle constraint in degrees.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] if the pool is exhausted.
    pub fn create(
        rt: &Runtime,
        n_points: usize,
        angle_deg: f64,
        seed: u64,
    ) -> Result<Yada, TxError> {
        Self::register(rt);
        let pool = rt.pool();
        let input = geom::generate_input(n_points, seed);
        let tri = geom::triangulate(&input);

        // Capacity: refinement inserts points; budget generously.
        let cap = (input.len() as u64) * 16 + 4096;
        let points_arr = pool.alloc(cap * 16)?;
        for (i, p) in tri.points.iter().enumerate() {
            pool.write_u64(points_arr.add(i as u64 * 16), f64_to_u64(p.x))?;
            pool.write_u64(points_arr.add(i as u64 * 16 + 8), f64_to_u64(p.y))?;
        }
        pool.persist(points_arr, tri.points.len() as u64 * 16)?;

        // Triangles: allocate all first so neighbor links can be direct.
        let addrs: Vec<PAddr> = (0..tri.tris.len())
            .map(|_| pool.alloc(TRI_SIZE))
            .collect::<Result<_, _>>()?;
        let mut tri_head = PAddr::NULL;
        for (i, t) in tri.tris.iter().enumerate() {
            let a = addrs[i];
            for k in 0..3 {
                pool.write_u64(a.add(T_V0 + k as u64 * 8), t.v[k] as u64)?;
                let n = if t.n[k] == geom::NO_TRI {
                    PAddr::NULL
                } else {
                    addrs[t.n[k]]
                };
                pool.write_u64(a.add(T_N0 + k as u64 * 8), n.offset())?;
            }
            pool.write_u64(a.add(T_ALIVE), 1)?;
            pool.write_u64(a.add(T_ALL_NEXT), tri_head.offset())?;
            pool.persist(a, TRI_SIZE)?;
            tri_head = a;
        }

        // Boundary segments from the hull.
        let mut seg_head = PAddr::NULL;
        for (a, b) in tri.hull_edges() {
            let s = pool.alloc(SEG_SIZE)?;
            pool.write_u64(s.add(S_PA), a as u64)?;
            pool.write_u64(s.add(S_PB), b as u64)?;
            pool.write_u64(s.add(S_NEXT), seg_head.offset())?;
            pool.write_u64(s.add(S_ALIVE), 1)?;
            pool.persist(s, SEG_SIZE)?;
            seg_head = s;
        }

        // Initial work queue: all bad triangles.
        let mut qhead = PAddr::NULL;
        let mut qtail = PAddr::NULL;
        let min_r2 = min_r2_for(tri.points.len());
        for (i, t) in tri.tris.iter().enumerate() {
            let pts = [tri.points[t.v[0]], tri.points[t.v[1]], tri.points[t.v[2]]];
            if is_bad(&pts, angle_deg, min_r2) {
                let q = pool.alloc(QNODE_SIZE)?;
                pool.write_u64(q.add(Q_TRI), addrs[i].offset())?;
                pool.write_u64(q.add(Q_NEXT), 0)?;
                pool.persist(q, QNODE_SIZE)?;
                if qhead.is_null() {
                    qhead = q;
                } else {
                    pool.write_u64(qtail.add(Q_NEXT), q.offset())?;
                    pool.persist(qtail.add(Q_NEXT), 8)?;
                }
                qtail = q;
            }
        }

        let root = pool.alloc(ROOT_SIZE)?;
        pool.write_u64(root, MAGIC)?;
        pool.write_u64(root.add(R_POINTS), points_arr.offset())?;
        pool.write_u64(root.add(R_POINTS_CAP), cap)?;
        pool.write_u64(root.add(R_POINTS_LEN), tri.points.len() as u64)?;
        pool.write_u64(root.add(R_TRI_HEAD), tri_head.offset())?;
        pool.write_u64(root.add(R_QHEAD), qhead.offset())?;
        pool.write_u64(root.add(R_QTAIL), qtail.offset())?;
        pool.write_u64(root.add(R_SEG_HEAD), seg_head.offset())?;
        pool.write_u64(root.add(R_ANGLE_X1000), (angle_deg * 1000.0) as u64)?;
        pool.write_u64(root.add(R_INSERTED), 0)?;
        pool.write_u64(root.add(R_PROCESSED), 0)?;
        pool.write_u64(root.add(R_MIN_R2), f64_to_u64(min_r2))?;
        pool.persist(root, ROOT_SIZE)?;
        rt.set_app_root(root)?;
        Ok(Yada { root })
    }

    /// Reopens the mesh after a restart.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::CorruptPool`] if the app root holds no mesh
    /// header.
    pub fn open(rt: &Runtime) -> Result<Yada, TxError> {
        let root = rt.app_root()?;
        if rt.pool().read_u64(root)? != MAGIC {
            let why = format!("no yada mesh at {:#x}", root.offset());
            return Err(PmemError::CorruptPool(why).into());
        }
        Ok(Yada { root })
    }

    /// Registers the refinement txfunc.
    pub fn register(rt: &Runtime) {
        rt.register(TX_REFINE, |tx, args| {
            let root = PAddr::new(args.u64(0)?);
            refine_step_tx(tx, root).map(|o| {
                Some(vec![match o {
                    StepOutcome::Refined => 1,
                    StepOutcome::Done => 0,
                    StepOutcome::CapacityExhausted => 2,
                }])
            })
        });
    }

    /// Runs one refinement transaction on logical-thread `slot`.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn refine_step(&self, rt: &Runtime, slot: usize) -> Result<StepOutcome, TxError> {
        let out = rt.run_on(
            slot,
            TX_REFINE,
            &ArgList::new().with_u64(self.root.offset()),
        )?;
        Ok(match out.as_deref() {
            Some([1]) => StepOutcome::Refined,
            Some([2]) => StepOutcome::CapacityExhausted,
            _ => StepOutcome::Done,
        })
    }

    /// Refines until the queue drains or `max_steps` transactions ran.
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] on substrate failure.
    pub fn refine_all(
        &self,
        rt: &Runtime,
        slot: usize,
        max_steps: u64,
    ) -> Result<RefineStats, TxError> {
        let mut stats = RefineStats::default();
        loop {
            if stats.steps >= max_steps {
                stats.capped = true;
                break;
            }
            match self.refine_step(rt, slot)? {
                StepOutcome::Refined => stats.steps += 1,
                StepOutcome::Done => break,
                StepOutcome::CapacityExhausted => {
                    stats.capped = true;
                    break;
                }
            }
        }
        let pool = rt.pool();
        stats.inserted_points = pool.read_u64(self.root.add(R_INSERTED))?;
        stats.final_triangles = self.alive_triangles(pool)?;
        Ok(stats)
    }

    /// Counts alive triangles.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] on a corrupt mesh.
    pub fn alive_triangles(&self, pool: &PmemPool) -> Result<u64, TxError> {
        let mut n = 0;
        let mut cur = PAddr::new(pool.read_u64(self.root.add(R_TRI_HEAD))?);
        while !cur.is_null() {
            if is_alive(pool.read_u64(cur.add(T_ALIVE))?) {
                n += 1;
            }
            cur = PAddr::new(pool.read_u64(cur.add(T_ALL_NEXT))?);
        }
        Ok(n)
    }

    /// Number of mesh points.
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] on a corrupt mesh.
    pub fn point_count(&self, pool: &PmemPool) -> Result<u64, TxError> {
        Ok(pool.read_u64(self.root.add(R_POINTS_LEN))?)
    }

    /// Validates the mesh: every alive triangle is CCW with reciprocal
    /// neighbor links, and if `require_quality` also meets the angle
    /// constraint (modulo the size cutoff).
    ///
    /// # Errors
    ///
    /// Returns [`TxError::Pmem`] on a corrupt mesh.
    ///
    /// # Panics
    ///
    /// Panics on an invariant violation (this is a checker).
    pub fn verify(&self, pool: &PmemPool, require_quality: bool) -> Result<(), TxError> {
        let points = PAddr::new(pool.read_u64(self.root.add(R_POINTS))?);
        let angle = pool.read_u64(self.root.add(R_ANGLE_X1000))? as f64 / 1000.0;
        let min_r2 = f64::from_bits(pool.read_u64(self.root.add(R_MIN_R2))?);
        let read_pt = |i: u64| -> Result<Point, TxError> {
            Ok(Point::new(
                f64::from_bits(pool.read_u64(points.add(i * 16))?),
                f64::from_bits(pool.read_u64(points.add(i * 16 + 8))?),
            ))
        };
        let mut cur = PAddr::new(pool.read_u64(self.root.add(R_TRI_HEAD))?);
        while !cur.is_null() {
            let state = pool.read_u64(cur.add(T_ALIVE))?;
            if is_alive(state) {
                let v: Vec<u64> = (0..3)
                    .map(|k| pool.read_u64(cur.add(T_V0 + k * 8)))
                    .collect::<Result<_, _>>()?;
                let p: Vec<Point> = v.iter().map(|&i| read_pt(i)).collect::<Result<_, _>>()?;
                assert!(orient2d(p[0], p[1], p[2]) > 0.0, "triangle {cur:?} not CCW");
                for k in 0..3u64 {
                    let n = PAddr::new(pool.read_u64(cur.add(T_N0 + k * 8))?);
                    if n.is_null() {
                        continue;
                    }
                    assert!(
                        is_alive(pool.read_u64(n.add(T_ALIVE))?),
                        "alive triangle links to a dead neighbor"
                    );
                    let back = (0..3u64)
                        .any(|j| pool.read_u64(n.add(T_N0 + j * 8)).map(PAddr::new) == Ok(cur));
                    assert!(back, "neighbor link not reciprocal");
                }
                if require_quality && state == 1 {
                    let cc = circumcenter(p[0], p[1], p[2]);
                    let r2 = cc.dist2(&p[0]);
                    assert!(
                        r2 <= min_r2 || min_angle_deg(p[0], p[1], p[2]) >= angle,
                        "bad triangle survived refinement: angle {} < {angle}",
                        min_angle_deg(p[0], p[1], p[2])
                    );
                }
            }
            cur = PAddr::new(pool.read_u64(cur.add(T_ALL_NEXT))?);
        }
        Ok(())
    }
}

/// The body of one refinement transaction.
fn refine_step_tx(tx: &mut Tx<'_>, root: PAddr) -> Result<StepOutcome, TxError> {
    let points = tx.read_paddr(root.add(R_POINTS))?;
    let angle = tx.read_u64(root.add(R_ANGLE_X1000))? as f64 / 1000.0;
    let min_r2 = f64::from_bits(tx.read_u64(root.add(R_MIN_R2))?);
    // Pop until an alive, still-bad triangle surfaces.
    loop {
        let qhead = tx.read_paddr(root.add(R_QHEAD))?;
        if qhead.is_null() {
            return Ok(StepOutcome::Done);
        }
        let tri = tx.read_paddr(qhead.add(Q_TRI))?;
        let next = tx.read_paddr(qhead.add(Q_NEXT))?;
        tx.write_paddr(root.add(R_QHEAD), next)?;
        if next.is_null() {
            tx.write_paddr(root.add(R_QTAIL), PAddr::NULL)?;
        }
        tx.pfree(qhead)?;
        let state = tx.read_u64(tri.add(T_ALIVE))?;
        if state != 1 {
            continue; // dead, or exempt from refinement
        }
        let (_, pts) = tri_points(tx, points, tri)?;
        if !is_bad(&pts, angle, min_r2) {
            continue;
        }
        // Capacity pre-check before any insertion.
        let len = tx.read_u64(root.add(R_POINTS_LEN))?;
        let cap = tx.read_u64(root.add(R_POINTS_CAP))?;
        if len + 2 > cap {
            return Ok(StepOutcome::CapacityExhausted);
        }
        let cc = circumcenter(pts[0], pts[1], pts[2]);
        // Ruppert: a circumcenter that would encroach a boundary segment is
        // not inserted; the *splittable* segment is split instead. A
        // circumcenter escaping the (convex) domain provably encroaches the
        // segment it crosses; the nearest-splittable fallback covers the
        // floating-point margin of that lemma. When every relevant segment
        // is at the size floor: an in-box circumcenter is inserted anyway
        // (the empty-circumcircle packing argument still bounds point
        // count), an out-of-box one marks the triangle exempt.
        let outside = !(0.0..=1.0).contains(&cc.x) || !(0.0..=1.0).contains(&cc.y);
        let enc = find_encroached_splittable(tx, root, points, cc, min_r2)?;
        match (enc, outside) {
            (Some(seg), _) => {
                split_segment(tx, root, points, seg, angle, min_r2)?;
                // Splitting may leave the bad triangle untouched (the
                // midpoint cavity need not contain it): requeue it.
                if tx.read_u64(tri.add(T_ALIVE))? == 1 {
                    push_queue(tx, root, tri)?;
                }
            }
            (None, false) => insert_point(tx, root, points, cc, tri, angle, min_r2)?,
            (None, true) => match nearest_segment_splittable(tx, root, points, cc, min_r2)? {
                Some(seg) => {
                    split_segment(tx, root, points, seg, angle, min_r2)?;
                    if tx.read_u64(tri.add(T_ALIVE))? == 1 {
                        push_queue(tx, root, tri)?;
                    }
                }
                None => {
                    tx.write_u64(tri.add(T_ALIVE), 2)?;
                }
            },
        }
        let processed = tx.read_u64(root.add(R_PROCESSED))?;
        tx.write_u64(root.add(R_PROCESSED), processed + 1)?;
        return Ok(StepOutcome::Refined);
    }
}

fn find_encroached_splittable(
    tx: &mut Tx<'_>,
    root: PAddr,
    points: PAddr,
    p: Point,
    min_r2: f64,
) -> Result<Option<PAddr>, TxError> {
    let mut cur = tx.read_paddr(root.add(R_SEG_HEAD))?;
    while !cur.is_null() {
        if tx.read_u64(cur.add(S_ALIVE))? == 1 {
            let pa = tx.read_u64(cur.add(S_PA))?;
            let pb = tx.read_u64(cur.add(S_PB))?;
            let a = read_point(tx, points, pa)?;
            let b = read_point(tx, points, pb)?;
            if a.dist2(&b) / 4.0 > min_r2 && encroaches(a, b, p) {
                return Ok(Some(cur));
            }
        }
        cur = tx.read_paddr(cur.add(S_NEXT))?;
    }
    Ok(None)
}

fn nearest_segment_splittable(
    tx: &mut Tx<'_>,
    root: PAddr,
    points: PAddr,
    p: Point,
    min_r2: f64,
) -> Result<Option<PAddr>, TxError> {
    let mut best = PAddr::NULL;
    let mut best_d = f64::INFINITY;
    let mut cur = tx.read_paddr(root.add(R_SEG_HEAD))?;
    while !cur.is_null() {
        if tx.read_u64(cur.add(S_ALIVE))? == 1 {
            let pa = tx.read_u64(cur.add(S_PA))?;
            let pb = tx.read_u64(cur.add(S_PB))?;
            let a = read_point(tx, points, pa)?;
            let b = read_point(tx, points, pb)?;
            if a.dist2(&b) / 4.0 <= min_r2 {
                cur = tx.read_paddr(cur.add(S_NEXT))?;
                continue;
            }
            let mid = Point::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0);
            let d = mid.dist2(&p);
            if d < best_d {
                best_d = d;
                best = cur;
            }
        }
        cur = tx.read_paddr(cur.add(S_NEXT))?;
    }
    Ok(if best.is_null() { None } else { Some(best) })
}

fn split_segment(
    tx: &mut Tx<'_>,
    root: PAddr,
    points: PAddr,
    seg: PAddr,
    angle: f64,
    min_r2: f64,
) -> Result<(), TxError> {
    let pa = tx.read_u64(seg.add(S_PA))?;
    let pb = tx.read_u64(seg.add(S_PB))?;
    let a = read_point(tx, points, pa)?;
    let b = read_point(tx, points, pb)?;
    let m = Point::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0);
    // New point.
    let len = tx.read_u64(root.add(R_POINTS_LEN))?;
    tx.write_u64(points.add(len * 16), f64_to_u64(m.x))?;
    tx.write_u64(points.add(len * 16 + 8), f64_to_u64(m.y))?;
    tx.write_u64(root.add(R_POINTS_LEN), len + 1)?;
    // Replace the segment by its halves.
    tx.write_u64(seg.add(S_ALIVE), 0)?;
    let head = tx.read_paddr(root.add(R_SEG_HEAD))?;
    let s1 = tx.pmalloc(SEG_SIZE)?;
    let s2 = tx.pmalloc(SEG_SIZE)?;
    tx.write_u64(s1.add(S_PA), pa)?;
    tx.write_u64(s1.add(S_PB), len)?;
    tx.write_paddr(s1.add(S_NEXT), s2)?;
    tx.write_u64(s1.add(S_ALIVE), 1)?;
    tx.write_u64(s2.add(S_PA), len)?;
    tx.write_u64(s2.add(S_PB), pb)?;
    tx.write_paddr(s2.add(S_NEXT), head)?;
    tx.write_u64(s2.add(S_ALIVE), 1)?;
    tx.write_paddr(root.add(R_SEG_HEAD), s1)?;
    // Insert the midpoint into the triangulation: seed from a scan (the
    // midpoint is on the hull, so a containing circumcircle exists).
    let seed = find_seed(tx, root, points, m)?;
    insert_point_with_id(tx, root, points, m, len, seed, angle, min_r2)
}

/// Finds an alive triangle whose circumcircle contains `p` by scanning the
/// all-triangles list.
fn find_seed(tx: &mut Tx<'_>, root: PAddr, points: PAddr, p: Point) -> Result<PAddr, TxError> {
    let mut cur = tx.read_paddr(root.add(R_TRI_HEAD))?;
    while !cur.is_null() {
        if is_alive(tx.read_u64(cur.add(T_ALIVE))?) {
            let (_, pts) = tri_points(tx, points, cur)?;
            if in_circumcircle(pts[0], pts[1], pts[2], p) {
                return Ok(cur);
            }
        }
        cur = tx.read_paddr(cur.add(T_ALL_NEXT))?;
    }
    Err(TxError::CorruptVlog(
        "no triangle circumcircle contains the insertion point".into(),
    ))
}

fn insert_point(
    tx: &mut Tx<'_>,
    root: PAddr,
    points: PAddr,
    p: Point,
    seed: PAddr,
    angle: f64,
    min_r2: f64,
) -> Result<(), TxError> {
    let len = tx.read_u64(root.add(R_POINTS_LEN))?;
    tx.write_u64(points.add(len * 16), f64_to_u64(p.x))?;
    tx.write_u64(points.add(len * 16 + 8), f64_to_u64(p.y))?;
    tx.write_u64(root.add(R_POINTS_LEN), len + 1)?;
    insert_point_with_id(tx, root, points, p, len, seed, angle, min_r2)
}

/// Bowyer–Watson insertion of point `pid` at `p`, seeded at `seed`.
#[allow(clippy::too_many_arguments)]
fn insert_point_with_id(
    tx: &mut Tx<'_>,
    root: PAddr,
    points: PAddr,
    p: Point,
    pid: u64,
    seed: PAddr,
    angle: f64,
    min_r2: f64,
) -> Result<(), TxError> {
    // Grow the cavity from the seed.
    let seed_covers = {
        let (_, pts) = tri_points(tx, points, seed)?;
        in_circumcircle(pts[0], pts[1], pts[2], p)
    };
    let seed = if seed_covers {
        seed
    } else {
        find_seed(tx, root, points, p)?
    };
    let mut cavity: Vec<PAddr> = vec![seed];
    let mut stack = vec![seed];
    while let Some(t) = stack.pop() {
        for k in 0..3u64 {
            let n = tx.read_paddr(t.add(T_N0 + k * 8))?;
            if n.is_null() || cavity.contains(&n) {
                continue;
            }
            let (_, pts) = tri_points(tx, points, n)?;
            if in_circumcircle(pts[0], pts[1], pts[2], p) {
                cavity.push(n);
                stack.push(n);
            }
        }
    }
    // Boundary edges: (va, vb, outside-triangle).
    let mut boundary: Vec<(u64, u64, PAddr)> = Vec::new();
    for &t in &cavity {
        let (v, _) = tri_points(tx, points, t)?;
        for k in 0..3usize {
            let n = tx.read_paddr(t.add(T_N0 + k as u64 * 8))?;
            if n.is_null() || !cavity.contains(&n) {
                boundary.push((v[(k + 1) % 3], v[(k + 2) % 3], n));
            }
        }
    }
    // Kill the cavity.
    for &t in &cavity {
        tx.write_u64(t.add(T_ALIVE), 0)?;
    }
    // Fan of new triangles: (pid, a, b) with neighbor 0 = outside.
    let mut new_tris: Vec<(PAddr, u64, u64)> = Vec::new();
    let mut tri_head = tx.read_paddr(root.add(R_TRI_HEAD))?;
    for &(a, b, out) in &boundary {
        // A point landing exactly on a hull edge (a segment midpoint)
        // would make the fan triangle over that edge degenerate; the edge
        // splits into two hull edges instead (its fan triangle is simply
        // not built, leaving the adjacent fan edges as the new hull).
        if out.is_null() {
            let pa = read_point(tx, points, a)?;
            let pb = read_point(tx, points, b)?;
            if orient2d(p, pa, pb) <= 1e-12 {
                continue;
            }
        }
        let t = tx.pmalloc(TRI_SIZE)?;
        tx.write_u64(t.add(T_V0), pid)?;
        tx.write_u64(t.add(T_V0 + 8), a)?;
        tx.write_u64(t.add(T_V0 + 16), b)?;
        tx.write_paddr(t.add(T_N0), out)?;
        tx.write_u64(t.add(T_ALIVE), 1)?;
        tx.write_paddr(t.add(T_ALL_NEXT), tri_head)?;
        tri_head = t;
        if !out.is_null() {
            // Redirect the outside triangle's back link (a clobber of an
            // existing neighbor slot).
            for k in 0..3u64 {
                let (ov, _) = tri_points(tx, points, out)?;
                let (ea, eb) = (ov[((k + 1) % 3) as usize], ov[((k + 2) % 3) as usize]);
                if (ea == a && eb == b) || (ea == b && eb == a) {
                    tx.write_paddr(out.add(T_N0 + k * 8), t)?;
                    break;
                }
            }
        }
        new_tris.push((t, a, b));
    }
    tx.write_paddr(root.add(R_TRI_HEAD), tri_head)?;
    // Link the fan: triangle (pid, a, b): edge opposite v1 is (b, pid),
    // edge opposite v2 is (pid, a).
    for &(ti, ai, bi) in &new_tris {
        for &(tj, aj, bj) in &new_tris {
            if ti == tj {
                continue;
            }
            if bi == aj {
                tx.write_paddr(ti.add(T_N0 + 8), tj)?;
            }
            if ai == bj {
                tx.write_paddr(ti.add(T_N0 + 16), tj)?;
            }
        }
    }
    // Enqueue fresh bad triangles.
    for &(t, a, b) in &new_tris {
        let pa = read_point(tx, points, a)?;
        let pb = read_point(tx, points, b)?;
        if is_bad(&[p, pa, pb], angle, min_r2) {
            push_queue(tx, root, t)?;
        }
    }
    let ins = tx.read_u64(root.add(R_INSERTED))?;
    tx.write_u64(root.add(R_INSERTED), ins + 1)?;
    Ok(())
}

fn push_queue(tx: &mut Tx<'_>, root: PAddr, tri: PAddr) -> Result<(), TxError> {
    let q = tx.pmalloc(QNODE_SIZE)?;
    tx.write_paddr(q.add(Q_TRI), tri)?;
    tx.write_paddr(q.add(Q_NEXT), PAddr::NULL)?;
    let tail = tx.read_paddr(root.add(R_QTAIL))?;
    if tail.is_null() {
        tx.write_paddr(root.add(R_QHEAD), q)?;
    } else {
        tx.write_paddr(tail.add(Q_NEXT), q)?;
    }
    tx.write_paddr(root.add(R_QTAIL), q)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clobber_nvm::{Backend, Runtime, RuntimeOptions};
    use clobber_pmem::{PmemPool, PoolOptions};
    use std::sync::Arc;

    fn setup(backend: Backend, n: usize, angle: f64) -> (Arc<PmemPool>, Runtime, Yada) {
        let pool = Arc::new(PmemPool::create(PoolOptions::performance(256 << 20)).unwrap());
        let rt = Runtime::create(pool.clone(), RuntimeOptions::new(backend)).unwrap();
        let y = Yada::create(&rt, n, angle, 12345).unwrap();
        (pool, rt, y)
    }

    #[test]
    fn initial_mesh_is_valid() {
        let (pool, _rt, y) = setup(Backend::clobber(), 60, 20.0);
        y.verify(&pool, false).unwrap();
        assert!(y.alive_triangles(&pool).unwrap() > 60);
    }

    #[test]
    fn refinement_reaches_the_angle_constraint() {
        let (pool, rt, y) = setup(Backend::clobber(), 60, 20.0);
        let before_tris = y.alive_triangles(&pool).unwrap();
        let stats = y.refine_all(&rt, 0, 20_000).unwrap();
        assert!(!stats.capped, "refinement should converge: {stats:?}");
        assert!(
            stats.steps > 0,
            "the random mesh must contain bad triangles"
        );
        assert!(stats.final_triangles > before_tris);
        y.verify(&pool, true).unwrap();
    }

    #[test]
    fn stricter_angles_insert_more_points() {
        let run = |angle: f64| {
            let (_pool, rt, y) = setup(Backend::clobber(), 50, angle);
            y.refine_all(&rt, 0, 20_000).unwrap()
        };
        let lax = run(15.0);
        let strict = run(25.0);
        assert!(
            strict.inserted_points > lax.inserted_points,
            "strict {strict:?} vs lax {lax:?}"
        );
    }

    #[test]
    fn refinement_works_under_undo_backend() {
        let (pool, rt, y) = setup(Backend::Undo, 40, 18.0);
        let stats = y.refine_all(&rt, 0, 20_000).unwrap();
        assert!(!stats.capped);
        y.verify(&pool, true).unwrap();
        let _ = stats;
    }

    #[test]
    fn point_count_grows_by_inserted_points() {
        let (pool, rt, y) = setup(Backend::clobber(), 40, 20.0);
        let before = y.point_count(&pool).unwrap();
        let stats = y.refine_all(&rt, 0, 20_000).unwrap();
        let after = y.point_count(&pool).unwrap();
        assert_eq!(after - before, stats.inserted_points);
    }

    #[test]
    fn reopen_resumes_refinement() {
        let (pool, rt, y) = setup(Backend::clobber(), 50, 22.0);
        // Run a few steps, then "restart" the process.
        for _ in 0..5 {
            y.refine_step(&rt, 0).unwrap();
        }
        let rt2 = Runtime::open(pool.clone(), RuntimeOptions::default()).unwrap();
        Yada::register(&rt2);
        rt2.recover().unwrap();
        let y2 = Yada::open(&rt2).unwrap();
        let stats = y2.refine_all(&rt2, 0, 20_000).unwrap();
        assert!(!stats.capped);
        y2.verify(&pool, true).unwrap();
        let _ = stats;
    }

    #[test]
    fn open_reports_a_wrong_root_magic_as_a_corrupt_pool() {
        let (pool, rt, _y) = setup(Backend::clobber(), 60, 20.0);
        pool.write_u64(rt.app_root().unwrap(), 0).unwrap();
        assert!(matches!(
            Yada::open(&rt),
            Err(TxError::Pmem(PmemError::CorruptPool(_)))
        ));
    }
}
