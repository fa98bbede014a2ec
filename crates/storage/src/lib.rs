//! # pdsm-storage
//!
//! In-memory relational storage with **arbitrary vertical partitioning**, the
//! substrate for the Partially Decomposed Storage Model (PDSM) of
//! *Pirk et al., "CPU and Cache Efficient Management of Memory-Resident
//! Databases", ICDE 2013*.
//!
//! A [`Table`] stores its rows in one or more [`Partition`]s. Each partition
//! holds a contiguous, fixed-stride array of *tuple fragments*: the values of
//! a subset of the table's columns, interleaved row-major. The three classic
//! storage models are special cases of the partitioning [`Layout`]:
//!
//! * **NSM / row store** — a single partition containing every column,
//! * **DSM / column store** — one partition per column,
//! * **PDSM / hybrid** — any other grouping.
//!
//! Strings are dictionary-encoded (a fixed-width `u32` code lives in the
//! partition, the bytes live in a per-column [`Dictionary`]), so every
//! partition has a fixed stride and scans translate into predictable,
//! prefetcher-friendly memory traffic — the property the paper's cost model
//! (crate `pdsm-cost`) relies on.
//!
//! ```
//! use pdsm_storage::{ColumnDef, DataType, Layout, Schema, Table, Value};
//!
//! let schema = Schema::new(vec![
//!     ColumnDef::new("id", DataType::Int32),
//!     ColumnDef::new("name", DataType::Str),
//!     ColumnDef::new("price", DataType::Float64),
//! ]);
//! // Hybrid layout: (id, price) together, name alone.
//! let layout = Layout::from_groups(vec![vec![0, 2], vec![1]], 3).unwrap();
//! let mut t = Table::with_layout("products", schema, layout).unwrap();
//! t.insert(&[Value::Int32(1), Value::from("widget"), Value::Float64(9.99)])
//!     .unwrap();
//! assert_eq!(t.get(0, 1).unwrap(), Value::from("widget"));
//! ```

pub mod bitmap;
mod crc;
pub mod dictionary;
pub mod error;
pub mod hash;
pub mod layout;
mod mapping;
pub mod partition;
pub mod persist;
pub mod row;
pub mod schema;
pub mod stats;
pub mod table;
pub mod types;
pub mod zonemap;

pub use bitmap::Bitmap;
pub use crc::{crc32, Crc32};
pub use dictionary::Dictionary;
pub use error::{Error, Result};
pub use layout::{Layout, LayoutKind};
pub use mapping::start_write_back;
pub use partition::{F64Col, I32Col, I64Col, Partition, U32Col};
pub use persist::ByteReader;
pub use row::Row;
pub use schema::{ColId, ColumnDef, Schema};
pub use stats::ColumnStats;
pub use table::Table;
pub use types::{DataType, Value};
pub use zonemap::{ColZone, ZoneBlock, ZoneMap, ZoneOp, ZonePred, ZONE_BLOCK_ROWS};
