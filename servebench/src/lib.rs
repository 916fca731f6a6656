//! Serving benchmark of the HNLPU functional engine: workload generation,
//! engine passes with their checks, per-layer probes and the span
//! recorder. The `servebench` binary drives them from the command line.

pub mod engine;
pub mod host;
pub mod layers;
pub mod trace;
pub mod workload;
