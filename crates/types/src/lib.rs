//! Core data types for the SOFT reproduction.
//!
//! This crate is the bottom layer of the reproduction of *Understanding and
//! Detecting SQL Function Bugs* (EuroSys '25): the SQL value model and every
//! "internal data type" substrate the paper's studied bugs live in —
//! arbitrary-precision decimals, civil dates, JSON, XML, WKT geometry and
//! network addresses — plus the casting engine and the boundary-value
//! vocabulary the whole system is organised around.
//!
//! # Examples
//!
//! ```
//! use soft_types::prelude::*;
//!
//! // A 48-digit decimal — the MDEV-8407 boundary — survives parsing intact.
//! let d: Decimal = "123456789012345678901234567890123456789012346789".parse().unwrap();
//! assert_eq!(d.total_digits(), 48);
//!
//! // And is classified as a boundary value.
//! let classes = soft_types::boundary::classify(&Value::Decimal(d));
//! assert!(classes.contains(&BoundaryClass::ManyDigits(40)));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod boundary;
pub mod cast;
pub mod category;
pub mod datetime;
pub mod decimal;
pub mod geometry;
pub mod hex;
pub mod inet;
pub mod json;
pub mod value;
pub mod xml;

/// Convenient re-exports of the most-used items.
pub mod prelude {
    pub use crate::boundary::BoundaryClass;
    pub use crate::cast::{cast, CastError, CastLimits, CastMode, CastStrictness};
    pub use crate::category::FunctionCategory;
    pub use crate::datetime::{Date, DateTime, Interval, Time};
    pub use crate::decimal::Decimal;
    pub use crate::geometry::Geometry;
    pub use crate::json::JsonValue;
    pub use crate::value::{DataType, Value};
    pub use crate::xml::XmlDocument;
}
