//! Request, variant and error types of the simulated HTTP layer.

use crate::geo::Vantage;
use crate::url::Url;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which variant of a site's content a response carries.
///
/// Geo-aware sites serve [`ContentVariant::Localized`] to national egress
/// and [`ContentVariant::Global`] (typically English-dominant) to everyone
/// else — the behaviour that makes the paper's VPN methodology necessary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContentVariant {
    /// The in-country experience in the native language.
    Localized,
    /// The international/English-dominant variant.
    Global,
    /// A stripped "access restricted" page (geo-block or bot wall).
    Restricted,
}

/// A simulated HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    pub url: Url,
    pub vantage: Vantage,
    /// Retry ordinal, 0 for the first attempt. Participates in fault
    /// derivation so retries see fresh rolls.
    pub attempt: u32,
}

impl Request {
    pub fn new(url: Url, vantage: Vantage) -> Self {
        Request {
            url,
            vantage,
            attempt: 0,
        }
    }

    /// The same request with the next attempt ordinal.
    pub fn retry(&self) -> Request {
        Request {
            url: self.url.clone(),
            vantage: self.vantage,
            attempt: self.attempt + 1,
        }
    }
}

/// Why a fetch failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FetchError {
    /// Hostname not in the simulated DNS.
    UnknownHost(String),
    /// The request timed out.
    Timeout,
    /// Connection reset mid-transfer.
    ConnectionReset,
    /// The origin answered with a transient 5xx (overload, bad gateway).
    ServerError(u16),
    /// The site refused this vantage outright (geo-block wall).
    GeoBlocked,
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::UnknownHost(h) => write!(f, "unknown host: {h}"),
            FetchError::Timeout => f.write_str("request timed out"),
            FetchError::ConnectionReset => f.write_str("connection reset"),
            FetchError::ServerError(code) => write!(f, "server error: {code}"),
            FetchError::GeoBlocked => f.write_str("geo-blocked"),
        }
    }
}

impl std::error::Error for FetchError {}

impl FetchError {
    /// Whether a retry at the same vantage can plausibly succeed.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            FetchError::Timeout | FetchError::ConnectionReset | FetchError::ServerError(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_increments_attempt() {
        let r = Request::new(Url::from_host("a.bd"), Vantage::Cloud);
        assert_eq!(r.attempt, 0);
        assert_eq!(r.retry().attempt, 1);
        assert_eq!(r.retry().retry().attempt, 2);
    }

    #[test]
    fn retryability() {
        assert!(FetchError::Timeout.is_retryable());
        assert!(FetchError::ConnectionReset.is_retryable());
        assert!(FetchError::ServerError(503).is_retryable());
        assert!(!FetchError::GeoBlocked.is_retryable());
        assert!(!FetchError::UnknownHost("x".into()).is_retryable());
    }

    #[test]
    fn error_display() {
        assert_eq!(FetchError::Timeout.to_string(), "request timed out");
        assert!(FetchError::UnknownHost("x.y".into())
            .to_string()
            .contains("x.y"));
    }
}
