//! Sparse matrix substrate for the Misam reproduction.
//!
//! This crate provides the storage formats, reference multiplication
//! kernels, and synthetic matrix generators that every other Misam crate
//! builds on:
//!
//! - [`CooMatrix`], [`CsrMatrix`], [`CscMatrix`] — the three storage formats
//!   used throughout the paper (§2.1), with lossless conversions between
//!   them.
//! - [`kernels`] — software reference implementations of the three SpGEMM
//!   dataflows (inner product, outer product, row-wise/Gustavson) plus
//!   SpMM against a dense right-hand side. These are the functional ground
//!   truth that the cycle-level simulator's outputs are checked against.
//! - [`gen`] — seeded synthetic generators covering every sparsity regime
//!   in the paper's Figure 1: uniform random, power-law graphs, banded/FEM,
//!   circuit-like, and structured-pruned DNN layers. Every family runs in
//!   two deterministic stages: an O(rows) *structure stage* emitting a
//!   [`Structure`], and a lazy *fill stage* ([`LazyMatrix`]) that only
//!   materializes a CSR for consumers that need element values.
//! - [`structure`] / [`lazy`] — the structural matrix descriptions and
//!   lazy materialization behind the two-stage generators; profiles
//!   synthesize from a [`Structure`] in O(rows + cols) via
//!   [`MatrixProfile::synthesize`], bit-identical to profiling the
//!   materialized matrix.
//! - [`suitesparse`] — a catalog of synthetic stand-ins for the sixteen
//!   SuiteSparse matrices of Table 3, matching their published dimensions,
//!   nonzero counts and structural class.
//! - [`io`] — Matrix Market (`.mtx`) reading and writing.
//! - [`CsrRef`] / [`slab`] — the storage-generic borrowed view of a CSR
//!   matrix and the mmap-backed `.msab` slab format behind out-of-core
//!   ingest of real matrices; a streaming two-pass converter turns a
//!   `.mtx` file into a slab without holding the matrix in memory.
//!
//! # Example
//!
//! ```
//! use misam_sparse::{CsrMatrix, kernels};
//! use misam_sparse::gen::{self, SparsityRegime};
//!
//! let a = gen::uniform_random(64, 64, 0.01, 1);
//! let b = gen::uniform_random(64, 64, 0.01, 2);
//! let c = kernels::spgemm_rowwise(&a, &b);
//! assert_eq!(c.rows(), 64);
//! assert_eq!(c.cols(), 64);
//! assert_eq!(SparsityRegime::classify(a.density()), SparsityRegime::HighlySparse);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

mod coo;
mod csc;
mod csr;
mod error;
mod view;

pub mod fnv;
pub mod gen;
pub mod io;
pub mod kernels;
pub mod lazy;
pub mod profile;
pub mod simd;
pub mod slab;
pub mod structure;
pub mod suitesparse;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use error::SparseError;
pub use lazy::{LazyMatrix, LazyOperand};
pub use profile::MatrixProfile;
pub use structure::{RowRuns, Structure};
pub use view::CsrRef;

/// Result alias used by fallible operations in this crate.
pub type Result<T> = std::result::Result<T, SparseError>;
