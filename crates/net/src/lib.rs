//! # langcrux-net
//!
//! The simulated internet substrate: URL addressing, country vantage points
//! and commercial-VPN modelling, deterministic fault injection, and a
//! geo-aware host registry that serves localized vs. global page variants.
//!
//! This crate replaces the paper's live-web + VPN infrastructure with an
//! observable equivalent: sites serve their native-language experience only
//! to in-country egress (VPN or residential), exactly the property that
//! forced the paper to route crawls "through VPN servers physically hosted
//! in the corresponding country".
//!
//! * [`url`] — minimal absolute-URL parsing.
//! * [`geo`] — [`geo::Vantage`], VPN providers with partial coverage, and
//!   per-country provider selection.
//! * [`fault`] — smoltcp-style deterministic fault injection at the HTTP
//!   level (timeouts, resets, VPN detection, latency shaping).
//! * [`types`] — request/variant/error types.
//! * [`internet`] — the host registry and serving logic.

pub mod fault;
pub mod geo;
pub mod internet;
pub mod types;
pub mod url;

pub use fault::{ChaosKillPlan, FaultDice, FaultPlan};
pub use geo::{select_provider, vpn_vantage, Vantage, VpnProviderId};
pub use internet::{ContentServer, FetchMeta, HostResolver, Internet, NetMetrics, ResolvedHost};
pub use types::{ContentVariant, FetchError, Request};
pub use url::Url;
