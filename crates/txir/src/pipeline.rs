//! The compilation pipeline: validate → CFG/dominators/alias →
//! clobber-write identification → (optional) refinement → instrumented
//! transaction.
//!
//! Timing of the two phases is recorded so Fig. 14's compile-time overhead
//! experiment can compare the front-end-only baseline (what plain Clang
//! does) against the full Clobber-NVM pass pipeline.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use clobber_nvm::{Runtime, TxError};

use crate::alias::AliasAnalysis;
use crate::cfg::Cfg;
use crate::clobber::{conservative, refine, ClobberAnalysis};
use crate::dom::DomTree;
use crate::interp::{interpret, InterpError, TxAdapter};
use crate::ir::{Function, IrError, ValueId};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Run the dependency-analysis refinement (paper §4.4). `false`
    /// reproduces Fig. 13's unoptimized variant.
    pub refine: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { refine: true }
    }
}

/// Wall-clock cost of each pipeline phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileTiming {
    /// Front-end work every compiler performs: validation and CFG
    /// construction.
    pub frontend_ns: u64,
    /// The added Clobber-NVM analyses: dominators, alias analysis,
    /// identification, refinement.
    pub passes_ns: u64,
}

/// A compiled, instrumented transaction.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The validated function.
    pub function: Function,
    /// Store instructions instrumented with the clobber-log callback.
    pub clobber_sites: BTreeSet<ValueId>,
    /// The analysis that produced the instrumentation.
    pub analysis: ClobberAnalysis,
    /// Instrumented-site count before refinement (equals
    /// `clobber_sites.len()` when refinement is disabled).
    pub conservative_sites: usize,
    /// Per-phase compile times.
    pub timing: CompileTiming,
}

/// Runs the full pipeline on `function`.
///
/// # Errors
///
/// Returns [`IrError`] if the function fails validation.
pub fn compile(function: Function, opts: CompileOptions) -> Result<Compiled, IrError> {
    let t0 = Instant::now();
    function.validate()?;
    let cfg = Cfg::new(&function);
    let frontend_ns = t0.elapsed().as_nanos() as u64;

    let t1 = Instant::now();
    let dom = DomTree::new(&function, &cfg);
    let aa = AliasAnalysis::new(&function);
    let cons = conservative(&function, &cfg, &dom, &aa);
    let conservative_sites = cons.clobber_stores.len();
    let analysis = if opts.refine {
        refine(&function, &dom, &aa, &cons)
    } else {
        cons
    };
    let passes_ns = t1.elapsed().as_nanos() as u64;

    Ok(Compiled {
        clobber_sites: analysis.clobber_stores.clone(),
        analysis,
        conservative_sites,
        function,
        timing: CompileTiming {
            frontend_ns,
            passes_ns,
        },
    })
}

/// Step budget for registered transactions; deterministic transactions are
/// expected to terminate far below it.
pub const TX_STEP_LIMIT: u64 = 10_000_000;

/// Registers a compiled transaction with the runtime under its IR name.
/// Arguments are passed as `u64`s; a `Ret` value is returned as 8 LE bytes.
pub fn register_compiled(rt: &Runtime, compiled: Arc<Compiled>) {
    let name = compiled.function.name.clone();
    rt.register(&name, move |tx, args| {
        let mut argv = Vec::with_capacity(compiled.function.n_params as usize);
        for i in 0..compiled.function.n_params {
            argv.push(args.u64(i as usize)?);
        }
        let mut mem = TxAdapter::new_static(tx);
        match interpret(
            &compiled.function,
            &compiled.clobber_sites,
            &mut mem,
            &argv,
            TX_STEP_LIMIT,
        ) {
            Ok(ret) => Ok(ret.map(|v| v.to_le_bytes().to_vec())),
            Err(InterpError::Tx(e)) => Err(e),
            Err(e) => Err(TxError::Aborted(e.to_string())),
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::FuncBuilder;

    fn rmw() -> Function {
        let mut b = FuncBuilder::new("rmw", 1);
        let p = b.param(0);
        let v = b.load(p);
        let one = b.constant(1);
        let v1 = b.add(v, one);
        b.store(p, v1);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn compile_identifies_sites_and_times_phases() {
        let c = compile(rmw(), CompileOptions::default()).unwrap();
        assert_eq!(c.clobber_sites.len(), 1);
        assert_eq!(c.conservative_sites, 1);
        // Phase timing is monotonic wall clock; both phases ran.
        assert!(c.timing.passes_ns > 0);
    }

    #[test]
    fn refinement_can_be_disabled() {
        // shadowed pattern: two must-alias stores after one read.
        let mut b = FuncBuilder::new("sh", 1);
        let q = b.param(0);
        let v = b.load(q);
        let one = b.constant(1);
        let v1 = b.add(v, one);
        b.store(q, v1);
        let v2 = b.add(v1, one);
        b.store(q, v2);
        b.ret(None);
        let f = b.finish();
        let refined = compile(f.clone(), CompileOptions { refine: true }).unwrap();
        let cons = compile(f, CompileOptions { refine: false }).unwrap();
        assert_eq!(refined.clobber_sites.len(), 1);
        assert_eq!(cons.clobber_sites.len(), 2);
        assert_eq!(cons.conservative_sites, cons.clobber_sites.len());
    }

    #[test]
    fn compile_rejects_invalid_ir() {
        let mut f = rmw();
        f.blocks[0].term = crate::ir::Terminator::Br(crate::ir::BlockId(9));
        assert!(compile(f, CompileOptions::default()).is_err());
    }
}
