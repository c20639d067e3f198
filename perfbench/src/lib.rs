//! Reference-normalized, CPU-pinned benchmark of the layered-consensus
//! engine: four closed-loop workloads driven only through the public
//! functions of `layered-core`, `layered-sync-mobile`, `layered-cert` and
//! `layered-bench`. See `README.md` in this directory.

#![forbid(unsafe_code)]

pub mod measure;
pub mod run;
pub mod scan;
pub mod serve;
pub mod suite;
pub mod trace;
