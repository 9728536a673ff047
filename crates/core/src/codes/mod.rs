//! Concrete code constructions.
//!
//! * [`ccsds_c2`] — the CCSDS 131.1-O-2 near-earth (8176, 7156) code that is
//!   the target of the paper.
//! * [`ar4ja`] — the AR4JA deep-space protograph family (the paper's §6
//!   future work).
//! * [`small`] — structurally similar but much smaller codes used by tests,
//!   quick examples, and fast benchmark variants.
//!
//! All of them are reachable declaratively through the
//! [`CodeSpec`](crate::CodeSpec) registry (`demo`, `c2`,
//! `ar4ja:r=1/2,k=1024`, `shortened:c2,k=4096`).

pub mod ar4ja;
pub mod ccsds_c2;
pub mod small;
