//! # bbec-bdd — a from-scratch ROBDD package with complement edges
//!
//! Reduced Ordered Binary Decision Diagrams in the spirit of Bryant (1986)
//! and the CUDD package used by the reproduced paper (Scholl & Becker,
//! DAC 2001): hash-consed nodes in per-level unique tables, an ITE-based
//! operator core with a computed cache, existential/universal quantification,
//! functional composition, reference-counted garbage collection and **dynamic
//! variable reordering by Rudell sifting**.
//!
//! Handles are **tagged complement edges** (Brace/Rudell/Bryant, DAC 1990):
//! a [`Bdd`] packs a node index and a complement bit, so a function and its
//! negation share one node, [`BddManager::not`] is an O(1) bit flip with no
//! cache traffic, and every dual operator pair (`or`/`and`, `xnor`/`xor`,
//! `forall`/`exists`) shares a single recursion and one set of computed-table
//! entries. The canonical form keeps every stored then-edge uncomplemented;
//! [`BddManager::check_invariants`] enforces it.
//!
//! The package is deliberately single-threaded: a [`BddManager`] owns every
//! node, and functions are identified by copyable [`Bdd`] handles into the
//! manager. Handles stay valid across garbage collection and reordering as
//! long as they are *protected* (see below); swapping adjacent levels updates
//! nodes in place, so a protected handle keeps denoting the same Boolean
//! function under any variable order.
//!
//! ## Protection contract
//!
//! Operations never free nodes on their own. Nodes are only reclaimed by
//! [`BddManager::collect_garbage`] and (for newly dead nodes) during
//! [`BddManager::reorder`]/[`BddManager::sift_to_fixpoint`]. A handle you
//! want to keep across those calls must be protected with
//! [`BddManager::protect`] and later released with [`BddManager::release`].
//! Variable projection functions returned by [`BddManager::var`] and the two
//! constants are always protected.
//!
//! ## Budgets
//!
//! Install a [`Budget`] with [`BddManager::set_budget`] to cap live nodes,
//! apply steps, or wall-clock time for the budgeted `try_*` operations
//! (`try_ite`, `try_and`, `try_exists`, …), which return [`BudgetExceeded`]
//! as a value instead of panicking. After an abort the manager stays fully
//! usable: protected nodes survive, and the aborted operation's
//! intermediates are reclaimed by the next garbage collection. The classic
//! infallible names (`and`, `ite`, …) run with the budget ignored.
//!
//! ## Example
//!
//! ```rust
//! use bbec_bdd::BddManager;
//!
//! let mut m = BddManager::new();
//! let x = m.new_var();
//! let y = m.new_var();
//! let (fx, fy) = (m.var(x), m.var(y));
//!
//! // x XOR y, built two different ways, hash-conses to the same node.
//! let a = m.xor(fx, fy);
//! let nx = m.not(fx);
//! let ny = m.not(fy);
//! let t1 = m.and(fx, ny);
//! let t2 = m.and(nx, fy);
//! let b = m.or(t1, t2);
//! assert_eq!(a, b);
//!
//! // Two of the four assignments satisfy it.
//! assert_eq!(m.sat_count(a), 2.0);
//! ```

mod analysis;
mod apply;
mod budget;
mod cache;
mod cube;
mod dot;
mod hasher;
pub mod io;
mod manager;
mod pool;
mod quant;
mod reorder;

pub use analysis::SatAssignment;
/// Re-exported from `bbec-trace`, where the telemetry types live since the
/// observability layer was split out; the `bbec-bdd` API is unchanged.
pub use bbec_trace::OpTelemetry;
pub use budget::{Budget, BudgetExceeded};
pub use cache::{clamp_cache_bits, DEFAULT_CACHE_BITS, MAX_CACHE_BITS, MIN_CACHE_BITS};
pub use cube::Cube;
pub use manager::{Bdd, BddManager, BddStats, BddVar, ReorderSettings};
pub use pool::{ManagerPool, PoolStats};

#[cfg(test)]
mod tests {
    #[test]
    fn crate_compiles() {}
}
