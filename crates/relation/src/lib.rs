//! # systolic-relation
//!
//! The relational data model substrate for the Kung & Lehman (SIGMOD 1980)
//! reproduction: typed values and underlying domains with reversible integer
//! encoding (§2.3), schemas and union-compatibility (§2.4), relations and
//! multi-relations (§2.5), a catalog owning the encoding dictionaries, and
//! seeded synthetic workload generators for the experiments.
//!
//! ```
//! use systolic_relation::{Catalog, Column, Datum, DomainKind, Schema};
//!
//! let mut catalog = Catalog::new();
//! let names = catalog.add_domain("names", DomainKind::Str);
//! let schema = Schema::new(vec![Column::new("name", names)]);
//! let rel = catalog
//!     .encode_relation(schema, &[vec![Datum::str("ada")], vec![Datum::str("alan")]])
//!     .unwrap();
//! assert_eq!(rel.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod columnar;
pub mod csv;
pub mod domain;
pub mod error;
pub mod gen;
pub mod relation;
pub mod schema;
pub mod store;

pub use catalog::Catalog;
pub use columnar::{ColumnarRelation, CompositeSpec};
pub use csv::{export_csv, import_csv, render_field, split_line};
pub use domain::{Datum, Domain, DomainId, DomainKind, Elem};
pub use error::RelationError;
pub use relation::{MultiRelation, Relation, Row};
pub use schema::{Column, Schema};
pub use store::{Database, StoreError};
