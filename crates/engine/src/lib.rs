//! The SQL engine substrate for the SOFT reproduction.
//!
//! An in-memory SQL engine with the three-stage pipeline the paper's
//! root-cause analysis is organised around (parse / optimize / execute), a
//! provenance-carrying evaluator, roughly 190 built-in functions across the
//! paper's categories, feature-branch coverage of the function component,
//! a crash model where injected faults surface as values, and the fault-
//! predicate language the dialect corpus is written in.
//!
//! # Examples
//!
//! ```
//! use soft_engine::{Engine, ExecOutcome};
//!
//! let mut e = Engine::with_default_functions(Default::default());
//! match e.execute("SELECT JSON_LENGTH('[1,2,3]', '$[2]')") {
//!     ExecOutcome::Rows(rs) => assert_eq!(rs.rows[0][0].render(), "1"),
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod catalog;
pub mod coverage;
pub mod error;
pub mod eval;
pub mod executor;
pub mod fault;
pub mod functions;
pub mod regex;
pub mod registry;

mod engine;
mod shape;

pub use coverage::Coverage;
pub use engine::{BatchArena, Engine, EngineConfig, Prepared, MIN_BATCH_GROUP};
pub use error::{CrashKind, CrashReport, ExecOutcome, ResultSet, SqlError, Stage};
pub use eval::{Evaluated, Provenance};
pub use fault::{
    FaultSet, FaultSite, FaultSpec, LogicQuirkSpec, PatternId, ProvPred, QuirkEffect, Trigger,
    ValuePred,
};
pub use registry::{FunctionDef, FunctionRegistry, Limits};
pub use shape::ShapeKey;

// Thread-safety audit for the sharded campaign runner: every worker owns a
// private session (catalog, session state, coverage, crash log), but all
// clones of one engine share its backend (config, registry, faults) through
// an `Arc`, read by every worker at once. The campaign depends on nothing
// in the backend using interior mutability: the registry stores plain `fn`
// pointers and the faults are owned data. `Send + Sync` is enforced here at
// compile time, so an `Rc`, a `RefCell` or a raw pointer fails the build
// instead of the campaign. A `Mutex`, an atomic or a lazily filled cache
// would pass this check yet let one shard's work change another's results,
// and reports must not depend on the worker count: keep them out of the
// backend.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<FaultSet>();
    assert_send_sync::<FunctionRegistry>();
    assert_send_sync::<Coverage>();
    assert_send_sync::<CrashReport>();
    assert_send_sync::<registry::SessionState>();
};
