//! The GoFree reproduction's benchmark: every workload measured on two
//! clocks — host time (medians of interleaved samples) and the
//! simulation's virtual ticks (exact for a given seed) — end to end with
//! tracing off, then layer by layer in a separate traced pass that times
//! the benchmark's own calls into each crate's public functions.
//!
//! See README.md for the workloads, the metrics and how they relate.

pub mod calib;
pub mod metrics;
pub mod micro;
pub mod refs;
pub mod run;
pub mod stats;
pub mod traced;
pub mod work;
