//! Offline shim for the `crossbeam` crate.
//!
//! Only the work-stealing deques of `crossbeam-deque` are provided (the [`deque`]
//! module: `Worker` / `Stealer` / `Injector` / `Steal`), mutex-backed.

pub mod deque;
