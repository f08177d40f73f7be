#![warn(missing_docs)]

//! # catnap-util
//!
//! Zero-dependency support library for the Catnap reproduction. The
//! whole workspace builds offline from a cold cargo cache: everything
//! the simulator previously pulled from crates.io (`rand`, `serde`,
//! `serde_json`, `proptest`, `criterion`) is replaced by the three
//! small modules here.
//!
//! * [`rng`] — [`SimRng`](rng::SimRng), a seedable xoshiro256\*\*
//!   generator with SplitMix64 seeding, uniform ranges, shuffling, and
//!   independent named streams for decorrelated simulation components.
//! * [`json`] — a minimal JSON value type with a serializer, a parser,
//!   and [`ToJson`](json::ToJson)/[`FromJson`](json::FromJson) traits
//!   used by the trace format and the benchmark output files.
//! * [`check`] — a mini property-testing runner: N seeded cases over
//!   `SimRng`-driven generators, failing-seed reporting, and
//!   shrink-by-halving.
//! * [`pool`] — [`fan_out`](pool::fan_out), an order-preserving scoped
//!   fan-out with a serial fallback, used to run benchmark sweep points
//!   in parallel.
//! * [`codec`] — the checkpoint binary format: little-endian
//!   [`ByteWriter`](codec::ByteWriter)/[`ByteReader`](codec::ByteReader)
//!   primitives, an incremental FNV-1a hasher, and the versioned
//!   magic + fingerprint + checksum container (`seal`/`open`).

pub mod check;
pub mod codec;
pub mod json;
pub mod pool;
pub mod rng;

pub use check::Checker;
pub use codec::{ByteReader, ByteWriter, CodecError, Fnv64};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::SimRng;
