//! Byzantine broadcast primitives for the BVC reproduction.
//!
//! The paper uses two communication primitives as cited black boxes; this
//! crate implements both from scratch:
//!
//! * **Synchronous Byzantine broadcast** (`n ≥ 3f + 1`) — used by Step 1 of
//!   the Exact BVC algorithm.  Built as the classical reduction "source sends,
//!   then everyone runs EIG consensus on what they received":
//!   [`EigTree`] implements the consensus core, [`BroadcastInstance`] the
//!   per-source broadcast state machine (`f + 2` synchronous rounds).
//!   Each tree is a flat arena of `Option<V>` in breadth-first node order,
//!   laid out by an [`EigShape`] that the trees of one `(n, f)` share; a
//!   relay names its node by that integer id ([`Label`]).  A relay is ignored
//!   unless its id lies in the round's level and its label does not contain
//!   the sender, and the first value written to a node wins.  A round's
//!   relays travel as one [`RelayBatch`], an `Arc`-shared slice, so the
//!   `n − 1` copies of a message share one allocation.
//! * **Asynchronous reliable broadcast** (`n ≥ 3f + 1`) — the first building
//!   block of the AAD-style exchange used by the Approximate BVC algorithm.
//!   [`ReliableBroadcastInstance`] implements Bracha-style echo broadcast with
//!   consistency, validity and totality.
//!
//! All types here are pure per-process state machines: they produce and
//! consume protocol messages but perform no I/O, so they can be driven by the
//! synchronous round executor, the asynchronous simulator or the threaded
//! runtime from `bvc-net`, with Byzantine behaviours injected by `bvc-adversary`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod eig;
pub mod reliable;

pub use broadcast::{BroadcastInstance, BroadcastMessage, RelayBatch};
pub use eig::{strict_majority, EigShape, EigTree, Label};
pub use reliable::{RbMessage, RbStep, ReliableBroadcastInstance};
