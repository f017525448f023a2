#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! The paper-figure tables of the DIALGA reproduction.
//!
//! Every table of the paper's evaluation (Figs. 3–19) and of this
//! repository's extension experiments is one function in [`figures`]
//! behind one static registry; the `figures` binary prints them, writes
//! them to `results/<name>.csv` (`--csv`) or checks the committed CSVs
//! against a fresh run (`--check`). [`systems`] maps each compared library
//! onto a simulated task source and [`table`] renders rows.

pub mod figures;
pub mod systems;
pub mod table;

pub use figures::{Figure, FIGURES};
pub use systems::{Spec, System};
