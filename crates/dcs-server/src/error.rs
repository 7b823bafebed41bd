//! Error type of the mining service.

/// Everything that can go wrong while serving or speaking the protocol.
#[derive(Debug)]
pub enum ServerError {
    /// A request was not a JSON object or lacked required fields.
    BadRequest(String),
    /// The named session does not exist.
    UnknownSession(String),
    /// A session with the name already exists.
    SessionExists(String),
    /// The mining-job queue is full.
    Busy,
    /// The server shed the request under load; retry after the hinted delay.
    Overloaded {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// A request line exceeded [`crate::MAX_REQUEST_BYTES`]; the server
    /// answers once and closes the connection.
    RequestTooLarge {
        /// The line limit, in bytes.
        max_request_bytes: usize,
    },
    /// The underlying mining library rejected the input.
    Dcs(dcs_core::DcsError),
    /// Opening or decoding a binary graph pack failed.
    Pack(dcs_graph::PackError),
    /// The client declared a protocol version this server does not speak.
    UnsupportedProto {
        /// The `"proto"` value the client sent.
        requested: u64,
    },
    /// A socket-level failure.
    Io(std::io::Error),
    /// The peer answered with `ok: false` (client side).
    Remote(String),
    /// The connection closed before a response arrived (client side).
    ConnectionClosed,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServerError::UnknownSession(name) => write!(f, "unknown session {name:?}"),
            ServerError::SessionExists(name) => write!(f, "session {name:?} already exists"),
            ServerError::Busy => write!(f, "server busy: job queue full"),
            ServerError::Overloaded { .. } => write!(f, "overloaded"),
            ServerError::RequestTooLarge { .. } => write!(f, "request_too_large"),
            ServerError::Dcs(e) => write!(f, "{e}"),
            ServerError::Pack(e) => write!(f, "cannot load graph pack: {e}"),
            ServerError::UnsupportedProto { requested } => write!(
                f,
                "unsupported proto {requested} (server speaks proto {})",
                crate::protocol::PROTO_VERSION
            ),
            ServerError::Io(e) => write!(f, "I/O error: {e}"),
            ServerError::Remote(msg) => write!(f, "server error: {msg}"),
            ServerError::ConnectionClosed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Dcs(e) => Some(e),
            ServerError::Pack(e) => Some(e),
            ServerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dcs_core::DcsError> for ServerError {
    fn from(e: dcs_core::DcsError) -> Self {
        ServerError::Dcs(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<dcs_graph::PackError> for ServerError {
    fn from(e: dcs_graph::PackError) -> Self {
        ServerError::Pack(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ServerError::BadRequest("no cmd".into())
            .to_string()
            .contains("no cmd"));
        assert!(ServerError::UnknownSession("x".into())
            .to_string()
            .contains("x"));
        assert!(ServerError::Busy.to_string().contains("busy"));
        assert_eq!(
            ServerError::Overloaded { retry_after_ms: 50 }.to_string(),
            "overloaded"
        );
        assert_eq!(
            ServerError::RequestTooLarge {
                max_request_bytes: 8
            }
            .to_string(),
            "request_too_large"
        );
        assert!(ServerError::ConnectionClosed.to_string().contains("closed"));
        assert_eq!(
            ServerError::UnsupportedProto { requested: 9 }.to_string(),
            "unsupported proto 9 (server speaks proto 1)"
        );
    }
}
