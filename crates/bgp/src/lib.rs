//! BGP substrate.
//!
//! Section III-C of the paper labels every node with its parent AS "by
//! identifying the longest advertised prefix in a BGP table that matches
//! the IP address and recording the AS which originated that prefix",
//! using RouteViews tables. This crate supplies that machinery:
//!
//! - [`Ipv4Prefix`]: validated CIDR prefixes.
//! - [`PrefixTrie`]: a binary radix trie with longest-prefix matching.
//! - [`PrefixAllocator`]: carves address space into per-AS allocations
//!   (the ground-truth generator uses it to hand out interface IPs).
//! - [`RouteTable`]: a simulated RouteViews snapshot — the union of
//!   advertised prefixes with origin ASes, including the small fraction
//!   of address space that is *not* covered (the paper finds 2.8% /
//!   1.5% of addresses unmapped and groups them into a separate AS).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod prefix;
pub mod table;
pub mod trie;

pub use alloc::PrefixAllocator;
pub use prefix::{AsId, Ipv4Prefix, PrefixError};
pub use table::{RouteTable, RouteTableConfig};
pub use trie::{PrefixTrie, TrieInvariant};
