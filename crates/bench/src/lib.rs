//! Shared helpers for the Criterion benches live in the bench crate root,
//! beside the [`sampler`] dev tool (`cargo run --release -p
//! janitizer-bench --bin sampler`).

pub mod sampler;
