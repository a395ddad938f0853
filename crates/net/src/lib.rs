//! Network substrate: IPv4 addresses, CIDR prefixes, longest-prefix-match
//! routing tables, and AS metadata.
//!
//! This crate stands in for the external datasets the paper consumes:
//! CAIDA's RouteViews prefix-to-AS mapping (a [`PrefixTable`] /
//! [`RoutingHistory`]), the AS classification dataset ([`AsType`]), and the
//! AS-to-organization dataset (country codes on [`AsInfo`]). It also
//! hosts the consistent-hash [`Ring`] the cluster router uses to place
//! request fingerprints onto daemon shards, and (Linux only) the `epoll`
//! wrapper and `scatter` client the serve tier's sockets run on.

pub mod asdb;
#[cfg(target_os = "linux")]
pub mod epoll;
pub mod ip;
pub mod prefix;
pub mod ring;
#[cfg(target_os = "linux")]
pub mod scatter;
pub mod table;

pub use asdb::{AsDatabase, AsInfo, AsNumber, AsType};
pub use ip::Ipv4;
pub use prefix::Prefix;
pub use ring::{EpochRing, Ring};
pub use table::{PrefixTable, RoutingHistory};
