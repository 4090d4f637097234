//! `tsg-check`: the workspace's sync facade and concurrency model checker.
//!
//! Every parallel engine in the workspace imports its synchronization
//! primitives (`AtomicUsize`, `AtomicBool`, `Mutex`, `Condvar`,
//! `thread::spawn`) from [`sync`] and [`thread`] instead of `std`
//! directly. The facade has two personalities:
//!
//! * **Normal builds** — a zero-cost `pub use std::sync::...` alias.
//!   Nothing is wrapped, nothing is instrumented; the engines compile to
//!   exactly the code they compiled to before the facade existed.
//!
//! * **`--cfg tsg_model` builds** — the same names resolve to
//!   instrumented wrappers backed by a deterministic scheduler
//!   (`model::Checker`): cooperative virtual threads serialized on a
//!   baton, bounded-exhaustive DFS over interleavings with a preemption
//!   bound (CHESS-style), seeded-random schedules beyond the bound, a
//!   vector-clock data-race detector over atomic/lock accesses, and
//!   deadlock / lost-wakeup detection when every virtual thread blocks.
//!
//! The wrappers are *dual-mode*: code running on a model-checker virtual
//! thread is scheduled and race-checked, while the same types used from
//! an ordinary OS thread (e.g. the rest of the test binary) transparently
//! delegate to `std`. That lets a `--cfg tsg_model` build still run the
//! normal unit-test suite unchanged.
//!
//! Like the `shims/` crates, this is vendored, std-only code: no external
//! dependencies, no `unsafe`.

pub mod sync;
pub mod thread;

#[cfg(tsg_model)]
mod clock;
#[cfg(tsg_model)]
mod explore;
#[cfg(tsg_model)]
mod runtime;

/// Model-checker entry points. Only exists under `--cfg tsg_model`.
#[cfg(tsg_model)]
pub mod model {
    pub use crate::explore::{Checker, Race, Report};

    /// True when the calling OS thread is currently a model-checker
    /// virtual thread (i.e. facade operations are being scheduled and
    /// race-checked rather than delegated to `std`).
    #[must_use]
    pub fn on_model_thread() -> bool {
        crate::runtime::current().is_some()
    }
}

/// True when the crate was compiled with the instrumented model runtime.
#[must_use]
pub fn model_build() -> bool {
    cfg!(tsg_model)
}
