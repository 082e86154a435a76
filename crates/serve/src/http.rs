//! A hand-rolled HTTP/1.1 layer over `std::net`.
//!
//! The container has no crates.io access, so there is no hyper/tokio; the
//! serve workload is CPU-bound page auditing, which per the workspace's
//! networking guidance runs fine on blocking OS threads. What this module
//! provides is deliberately small and fully testable without sockets:
//!
//! * [`RequestParser`] — an incremental (push-based) request parser. Bytes
//!   arrive in arbitrary chunks (TCP reads tear start-lines, CRLFs and
//!   bodies at any offset); the parser buffers and yields complete
//!   [`Request`]s. Pipelined requests in one read are handled: leftover
//!   bytes stay buffered for the next [`RequestParser::poll`].
//! * [`ParseError`] — typed protocol violations, each mapped to the HTTP
//!   status the server answers before closing the connection
//!   (malformed start-line → 400, oversized body → 413, oversized
//!   header block → 431).
//! * [`Response`] — a minimal response writer with keep-alive handling,
//!   plus chunked-encoding helpers ([`write_chunked_head`],
//!   [`write_chunk`], [`write_last_chunk`]) for responses whose length is
//!   not known up front (the streaming `/v1/batch` path).
//!
//! Request bodies may be framed either way: `Content-Length` or
//! `Transfer-Encoding: chunked` (chunk-size lines with extensions
//! ignored, trailers consumed and discarded, the same 400/413 typed-error
//! mapping as fixed-length bodies). Any *other* transfer coding — `gzip`,
//! a coding list, duplicated `chunked` — is rejected with 501; a request
//! declaring both `Content-Length` and chunked is rejected with 400
//! (request-smuggling precondition). No multiline header folding (folding
//! was deprecated by RFC 7230 and is rejected as malformed).

/// Byte-size limits enforced while parsing.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum size of the start-line + header block (431 beyond this).
    pub max_head_bytes: usize,
    /// Maximum `Content-Length` (413 beyond this).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            // Generous for HTML pages; the paper's corpus tops out well
            // below this even with Appendix-E extreme alt texts.
            max_body_bytes: 8 * 1024 * 1024,
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method verbatim (methods are case-sensitive tokens).
    pub method: String,
    /// Request target verbatim, e.g. `/v1/audit`.
    pub path: String,
    /// Header `(name, value)` pairs; names are lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First header value for `name` (lower-case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// HTTP/1.1 default: keep-alive unless `Connection: close`.
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A protocol violation, with the status the server should answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Start-line is not `METHOD SP TARGET SP HTTP/1.x`.
    BadStartLine,
    /// A header line without `:`, an empty/illegal header name, or
    /// obs-fold continuation.
    BadHeader,
    /// `Content-Length` missing on a method requiring none, duplicated,
    /// or not a decimal number.
    BadContentLength,
    /// A chunk-size line that is not hex digits (+ optional extension),
    /// or a missing CRLF after chunk data.
    BadChunk,
    /// Both `Content-Length` and `Transfer-Encoding: chunked` declared —
    /// ambiguous framing is a request-smuggling vector.
    ConflictingFraming,
    /// Start-line + headers (or chunked trailers) exceed
    /// [`Limits::max_head_bytes`].
    HeadTooLarge,
    /// Declared body exceeds [`Limits::max_body_bytes`].
    BodyTooLarge(usize),
    /// A transfer coding other than a single `chunked` — this server
    /// implements no compression codings.
    UnsupportedTransferEncoding,
}

impl ParseError {
    /// HTTP status code the server answers with.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::BodyTooLarge(_) => 413,
            ParseError::HeadTooLarge => 431,
            ParseError::UnsupportedTransferEncoding => 501,
            _ => 400,
        }
    }

    /// Human-readable detail for the JSON error body.
    pub fn detail(&self) -> String {
        match self {
            ParseError::BadStartLine => "malformed request line".to_string(),
            ParseError::BadHeader => "malformed header".to_string(),
            ParseError::BadContentLength => "missing or invalid content-length".to_string(),
            ParseError::BadChunk => "malformed chunked framing".to_string(),
            ParseError::ConflictingFraming => {
                "both content-length and transfer-encoding declared".to_string()
            }
            ParseError::HeadTooLarge => "header block too large".to_string(),
            ParseError::BodyTooLarge(n) => format!("declared body of {n} bytes exceeds limit"),
            ParseError::UnsupportedTransferEncoding => "unsupported transfer-encoding".to_string(),
        }
    }
}

/// Parsed start-line + headers, waiting for the body to arrive.
#[derive(Debug)]
struct PendingHead {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    body: BodyState,
}

/// How the body of the pending request is framed, and how far the
/// decoder has progressed.
#[derive(Debug)]
enum BodyState {
    /// `Content-Length` framing: wait until this many bytes buffered.
    Fixed(usize),
    /// `Transfer-Encoding: chunked`: decode incrementally into `decoded`.
    Chunked { decoded: Vec<u8>, phase: ChunkPhase },
}

/// Chunked-decoder state. Each variant resumes cleanly from a partial
/// buffer, so TCP may tear the stream anywhere — including inside a
/// chunk-size line, a data CRLF, or a trailer line.
#[derive(Debug)]
enum ChunkPhase {
    /// Waiting for a complete `size[;extension]\r\n` line.
    SizeLine,
    /// Consuming chunk data.
    Data { remaining: usize },
    /// Expecting the `\r\n` that closes a data chunk.
    DataCrlf,
    /// After the `0` chunk: consume trailer lines until the empty line.
    /// `seen` bounds total trailer bytes (431 beyond the head limit).
    Trailers { seen: usize },
}

/// A chunk-size line (hex size + optional extension) longer than this is
/// malformed: 16 hex digits already cover the full u64 range, and the
/// server ignores extensions, so there is no legitimate reason to stream
/// an unbounded extension.
const CHUNK_LINE_MAX: usize = 256;

/// Incremental request parser.
///
/// Feed raw bytes with [`feed`](RequestParser::feed) as they arrive from
/// the socket, then drain complete requests with
/// [`poll`](RequestParser::poll). The parse result is independent of how
/// the byte stream was chunked — the property the proptests pin down.
#[derive(Debug)]
pub struct RequestParser {
    limits: Limits,
    buf: Vec<u8>,
    pending: Option<PendingHead>,
    /// A protocol error is sticky: the connection is poisoned.
    failed: bool,
}

impl RequestParser {
    pub fn new(limits: Limits) -> Self {
        RequestParser {
            limits,
            buf: Vec::new(),
            pending: None,
            failed: false,
        }
    }

    /// Append bytes read from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a completed request.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Try to complete one request from the buffered bytes.
    ///
    /// `Ok(None)` means "need more bytes". Errors are sticky — after a
    /// protocol violation the connection must be answered and closed.
    pub fn poll(&mut self) -> Result<Option<Request>, ParseError> {
        if self.failed {
            return Err(ParseError::BadStartLine);
        }
        match self.poll_inner() {
            Err(e) => {
                self.failed = true;
                Err(e)
            }
            ok => ok,
        }
    }

    /// True while a request is partially buffered (a head without its
    /// body, or raw bytes short of a complete head). The server's
    /// request-deadline timer runs exactly while this holds — it is what
    /// distinguishes a slowloris mid-request dribble from an idle
    /// keep-alive connection.
    pub fn mid_request(&self) -> bool {
        self.pending.is_some() || !self.buf.is_empty()
    }

    fn poll_inner(&mut self) -> Result<Option<Request>, ParseError> {
        if self.pending.is_none() {
            let Some(head_end) = find_head_end(&self.buf) else {
                // No terminator yet: enforce the head limit on what has
                // accumulated so a slow-loris header stream cannot grow
                // the buffer without bound.
                if self.buf.len() > self.limits.max_head_bytes {
                    return Err(ParseError::HeadTooLarge);
                }
                return Ok(None);
            };
            if head_end > self.limits.max_head_bytes {
                return Err(ParseError::HeadTooLarge);
            }
            let head = parse_head(&self.buf[..head_end], self.limits.max_body_bytes)?;
            self.buf.drain(..head_end + 4);
            self.pending = Some(head);
        }

        let pending = self.pending.as_mut().expect("pending head");
        let complete = match &mut pending.body {
            BodyState::Fixed(need) => self.buf.len() >= *need,
            BodyState::Chunked { decoded, phase } => {
                advance_chunked(&mut self.buf, decoded, phase, &self.limits)?
            }
        };
        if !complete {
            return Ok(None);
        }
        let head = self.pending.take().expect("pending head");
        let body = match head.body {
            BodyState::Fixed(need) => self.buf.drain(..need).collect(),
            BodyState::Chunked { decoded, .. } => decoded,
        };
        Ok(Some(Request {
            method: head.method,
            path: head.path,
            headers: head.headers,
            body,
        }))
    }
}

/// Offset of the next `\r\n`, if buffered.
fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

/// Advance the chunked decoder as far as the buffered bytes allow.
/// Returns `Ok(true)` once the terminating chunk and its trailers have
/// been fully consumed. Progress is byte-exact: leftover bytes after the
/// final CRLF belong to the next pipelined request and stay in `buf`.
fn advance_chunked(
    buf: &mut Vec<u8>,
    decoded: &mut Vec<u8>,
    phase: &mut ChunkPhase,
    limits: &Limits,
) -> Result<bool, ParseError> {
    loop {
        match phase {
            ChunkPhase::SizeLine => {
                let Some(eol) = find_crlf(buf) else {
                    if buf.len() > CHUNK_LINE_MAX {
                        return Err(ParseError::BadChunk);
                    }
                    return Ok(false);
                };
                if eol > CHUNK_LINE_MAX {
                    return Err(ParseError::BadChunk);
                }
                let line = std::str::from_utf8(&buf[..eol]).map_err(|_| ParseError::BadChunk)?;
                // `size[;extension]` — extensions are ignored per the RFC
                // 9112 "MAY ignore" allowance; the size is strict hex.
                let size_str = line.split(';').next().unwrap_or("").trim();
                if size_str.is_empty()
                    || size_str.len() > 16
                    || !size_str.bytes().all(|b| b.is_ascii_hexdigit())
                {
                    return Err(ParseError::BadChunk);
                }
                let size = u64::from_str_radix(size_str, 16)
                    .ok()
                    .and_then(|s| usize::try_from(s).ok())
                    .ok_or(ParseError::BadChunk)?;
                // The 413 fires on the *declared* total, exactly like
                // the Content-Length path: no need to buffer the data
                // first. Saturating arithmetic — a `ffffffffffffffff`
                // chunk size must trip the limit, not wrap the check in
                // release builds and stream unbounded data past it.
                if size > limits.max_body_bytes.saturating_sub(decoded.len()) {
                    return Err(ParseError::BodyTooLarge(decoded.len().saturating_add(size)));
                }
                buf.drain(..eol + 2);
                *phase = if size == 0 {
                    ChunkPhase::Trailers { seen: 0 }
                } else {
                    ChunkPhase::Data { remaining: size }
                };
            }
            ChunkPhase::Data { remaining } => {
                let take = (*remaining).min(buf.len());
                decoded.extend(buf.drain(..take));
                *remaining -= take;
                if *remaining > 0 {
                    return Ok(false);
                }
                *phase = ChunkPhase::DataCrlf;
            }
            ChunkPhase::DataCrlf => {
                if buf.len() < 2 {
                    return Ok(false);
                }
                if &buf[..2] != b"\r\n" {
                    return Err(ParseError::BadChunk);
                }
                buf.drain(..2);
                *phase = ChunkPhase::SizeLine;
            }
            ChunkPhase::Trailers { seen } => {
                let Some(eol) = find_crlf(buf) else {
                    if *seen + buf.len() > limits.max_head_bytes {
                        return Err(ParseError::HeadTooLarge);
                    }
                    return Ok(false);
                };
                if eol == 0 {
                    // Empty line: the request is complete. Trailers were
                    // consumed and discarded — the service keys on the
                    // decoded body, never on trailing metadata.
                    buf.drain(..2);
                    return Ok(true);
                }
                let line = &buf[..eol];
                if line[0] == b' ' || line[0] == b'\t' {
                    return Err(ParseError::BadHeader);
                }
                let colon = line
                    .iter()
                    .position(|&b| b == b':')
                    .ok_or(ParseError::BadHeader)?;
                if colon == 0 || !line[..colon].iter().all(|&b| is_token_byte(b)) {
                    return Err(ParseError::BadHeader);
                }
                *seen += eol + 2;
                if *seen > limits.max_head_bytes {
                    return Err(ParseError::HeadTooLarge);
                }
                buf.drain(..eol + 2);
            }
        }
    }
}

/// Offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(head: &[u8], max_body: usize) -> Result<PendingHead, ParseError> {
    let head = std::str::from_utf8(head).map_err(|_| ParseError::BadHeader)?;
    let mut lines = head.split("\r\n");
    let start = lines.next().ok_or(ParseError::BadStartLine)?;

    // METHOD SP TARGET SP HTTP/1.x — exactly three space-separated parts.
    let mut parts = start.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => return Err(ParseError::BadStartLine),
    };
    if method.is_empty()
        || !method
            .bytes()
            .all(|b| b.is_ascii_uppercase() || b == b'-' || b == b'_')
    {
        return Err(ParseError::BadStartLine);
    }
    if path.is_empty() || !path.starts_with('/') {
        return Err(ParseError::BadStartLine);
    }
    if !version.starts_with("HTTP/1.") || version.len() != 8 {
        return Err(ParseError::BadStartLine);
    }

    let mut headers = Vec::new();
    for line in lines {
        // A line starting with whitespace would be RFC 7230 obs-fold.
        if line.starts_with(' ') || line.starts_with('\t') {
            return Err(ParseError::BadHeader);
        }
        let (name, value) = line.split_once(':').ok_or(ParseError::BadHeader)?;
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(ParseError::BadHeader);
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // Transfer codings: exactly one `Transfer-Encoding: chunked` selects
    // the chunked decoder. Anything else — `gzip`, a coding list, a
    // duplicated `chunked` — is a coding this server does not implement
    // (501). A request declaring *both* chunked and Content-Length has
    // ambiguous framing (smuggling vector) and is rejected outright.
    let te_present = headers.iter().any(|(n, _)| n == "transfer-encoding");
    let codings: Vec<String> = headers
        .iter()
        .filter(|(n, _)| n == "transfer-encoding")
        .flat_map(|(_, v)| v.split(','))
        .map(|c| c.trim().to_ascii_lowercase())
        .filter(|c| !c.is_empty())
        .collect();
    let chunked = match codings.as_slice() {
        // An empty Transfer-Encoding value declares nothing parseable.
        [] if te_present => return Err(ParseError::UnsupportedTransferEncoding),
        [] => false,
        [only] if only == "chunked" => true,
        _ => return Err(ParseError::UnsupportedTransferEncoding),
    };

    let mut lengths = headers.iter().filter(|(n, _)| n == "content-length");
    let content_length = match (lengths.next(), lengths.next()) {
        (None, _) => None,
        // DIGIT-only per RFC 9110 — `usize::from_str` alone would also
        // accept a leading `+`, which an intermediary may frame
        // differently (request-smuggling precondition).
        (Some((_, v)), None) => {
            if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseError::BadContentLength);
            }
            Some(
                v.parse::<usize>()
                    .map_err(|_| ParseError::BadContentLength)?,
            )
        }
        // Conflicting duplicate content-lengths are a smuggling vector.
        (Some(_), Some(_)) => return Err(ParseError::BadContentLength),
    };

    let body = if chunked {
        if content_length.is_some() {
            return Err(ParseError::ConflictingFraming);
        }
        BodyState::Chunked {
            decoded: Vec::new(),
            phase: ChunkPhase::SizeLine,
        }
    } else {
        let declared = content_length.unwrap_or(0);
        if declared > max_body {
            return Err(ParseError::BodyTooLarge(declared));
        }
        BodyState::Fixed(declared)
    };

    Ok(PendingHead {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    })
}

/// RFC 7230 `tchar` (the subset that matters for header names).
fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'!' | b'#' | b'$' | b'%' | b'&')
}

/// Reason phrase for the status codes the service emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A response payload: owned bytes for one-off documents, shared bytes
/// for cache hits so the cached JSON is never copied per request.
#[derive(Debug, Clone)]
pub enum Body {
    Owned(Vec<u8>),
    Shared(std::sync::Arc<Vec<u8>>),
}

impl Body {
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Body::Owned(v) => v,
            Body::Shared(v) => v,
        }
    }

    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Body {}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Body {
        Body::Owned(v)
    }
}

impl From<std::sync::Arc<Vec<u8>>> for Body {
    fn from(v: std::sync::Arc<Vec<u8>>) -> Body {
        Body::Shared(v)
    }
}

/// A response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Body,
    /// Whether the connection survives this exchange.
    pub keep_alive: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Body>, keep_alive: bool) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            keep_alive,
        }
    }

    /// A Prometheus text-format (exposition format 0.0.4) response.
    pub fn prometheus(status: u16, body: impl Into<Body>, keep_alive: bool) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into(),
            keep_alive,
        }
    }

    /// The standard JSON error envelope.
    pub fn error(status: u16, detail: &str, keep_alive: bool) -> Response {
        let body = format!(
            "{{\"error\":{},\"status\":{status}}}",
            json_escape_string(detail)
        );
        Response::json(status, body.into_bytes(), keep_alive)
    }

    /// Serialize head + body into `out` (cleared first). Taking the
    /// buffer from the caller lets the connection loop reuse one
    /// allocation across every response it writes.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        use std::io::Write;
        out.clear();
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len(),
            if self.keep_alive {
                "keep-alive"
            } else {
                "close"
            },
        )
        .expect("write to Vec");
        out.extend_from_slice(self.body.as_slice());
    }

    /// Serialize head + body into one write-ready buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_into(&mut out);
        out
    }
}

/// Serialize the head of a `Transfer-Encoding: chunked` response into
/// `out` (cleared first). Used when the body length is unknown up front —
/// the streaming `/v1/batch` path writes elements as they complete.
pub fn write_chunked_head(out: &mut Vec<u8>, status: u16, content_type: &str, keep_alive: bool) {
    use std::io::Write;
    out.clear();
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
        status,
        reason_phrase(status),
        content_type,
        if keep_alive { "keep-alive" } else { "close" },
    )
    .expect("write to Vec");
}

/// Append one chunk (`hex-size CRLF data CRLF`) to `out`. Empty data is
/// skipped — a zero-size chunk would terminate the stream.
pub fn write_chunk(out: &mut Vec<u8>, data: &[u8]) {
    use std::io::Write;
    if data.is_empty() {
        return;
    }
    write!(out, "{:x}\r\n", data.len()).expect("write to Vec");
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// Append the terminating `0 CRLF CRLF` chunk to `out`.
pub fn write_last_chunk(out: &mut Vec<u8>) {
    out.extend_from_slice(b"0\r\n\r\n");
}

/// The connection governor's shed answer: a fully serialized
/// `503 Service Unavailable` with a `Retry-After` hint, written straight
/// from the accept loop when the connection cap and pending queue are
/// both full. Hand-assembled because [`Response`] has no extra-header
/// slot and this is the one response that needs one.
pub fn shed_response_bytes(retry_after_secs: u32) -> Vec<u8> {
    let body = format!("{{\"error\":\"server at connection capacity\",\"status\":503,\"retry_after\":{retry_after_secs}}}");
    format!(
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\nContent-Length: {}\r\nRetry-After: {retry_after_secs}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Minimal JSON string escaping for error details (matches the
/// `serde_json` shim's escaping rules).
fn json_escape_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Result<Option<Request>, ParseError> {
        let mut p = RequestParser::new(Limits::default());
        p.feed(bytes);
        p.poll()
    }

    #[test]
    fn parses_simple_get() {
        let req = parse_all(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_all(b"POST /v1/audit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn byte_at_a_time_equals_one_shot() {
        let raw = b"POST /v1/audit HTTP/1.1\r\nContent-Type: text/html\r\nContent-Length: 11\r\n\r\n<html></html>"; // body longer than 11 on purpose: pipelined residue
        let one_shot = {
            let mut p = RequestParser::new(Limits::default());
            p.feed(raw);
            p.poll().unwrap().unwrap()
        };
        let mut p = RequestParser::new(Limits::default());
        let mut trickled = None;
        for b in raw.iter() {
            p.feed(&[*b]);
            if let Some(req) = p.poll().unwrap() {
                trickled = Some(req);
                break;
            }
        }
        assert_eq!(trickled.unwrap(), one_shot);
        assert_eq!(one_shot.body, b"<html></htm");
    }

    #[test]
    fn pipelined_requests_drain_in_order() {
        let mut p = RequestParser::new(Limits::default());
        p.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        assert_eq!(p.poll().unwrap().unwrap().path, "/a");
        assert_eq!(p.poll().unwrap().unwrap().path, "/b");
        assert_eq!(p.poll().unwrap(), None);
    }

    #[test]
    fn connection_close_observed() {
        let req = parse_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive());
    }

    #[test]
    fn malformed_start_lines_are_400() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2\r\n\r\n",
            b" / HTTP/1.1\r\n\r\n",
        ] {
            let err = parse_all(raw).unwrap_err();
            assert_eq!(err.status(), 400, "{raw:?} -> {err:?}");
        }
    }

    #[test]
    fn malformed_headers_are_400() {
        for raw in [
            &b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n"[..],
            b"GET / HTTP/1.1\r\n: novalue\r\n\r\n",
            b"GET / HTTP/1.1\r\nBad Header: x\r\n\r\n",
            b"GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n",
        ] {
            assert_eq!(parse_all(raw).unwrap_err().status(), 400, "{raw:?}");
        }
    }

    #[test]
    fn oversized_declared_body_is_413() {
        let limits = Limits {
            max_body_bytes: 100,
            ..Limits::default()
        };
        let mut p = RequestParser::new(limits);
        p.feed(b"POST / HTTP/1.1\r\nContent-Length: 101\r\n\r\n");
        let err = p.poll().unwrap_err();
        assert_eq!(err, ParseError::BodyTooLarge(101));
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn oversized_head_is_431_even_without_terminator() {
        let limits = Limits {
            max_head_bytes: 64,
            ..Limits::default()
        };
        let mut p = RequestParser::new(limits);
        p.feed(b"GET / HTTP/1.1\r\n");
        // Keep streaming header bytes without ever finishing the head.
        let mut err = None;
        for _ in 0..64 {
            p.feed(b"X-Filler: aaaaaaaaaaaaaaaa\r\n");
            match p.poll() {
                Ok(None) => continue,
                Ok(Some(_)) => panic!("head never terminated"),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(err.unwrap().status(), 431);
    }

    #[test]
    fn non_digit_content_length_rejected() {
        // `usize::from_str` accepts a leading `+`; RFC 9110 does not.
        for raw in [
            &b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello"[..],
            b"POST / HTTP/1.1\r\nContent-Length:\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 0x5\r\n\r\nhello",
        ] {
            let err = parse_all(raw).unwrap_err();
            assert_eq!(err, ParseError::BadContentLength, "{raw:?}");
        }
    }

    #[test]
    fn duplicate_content_length_rejected() {
        let err = parse_all(b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nx")
            .unwrap_err();
        assert_eq!(err, ParseError::BadContentLength);
    }

    // ---- chunked transfer decoding -------------------------------------

    #[test]
    fn chunked_body_decodes() {
        let req = parse_all(
            b"POST /v1/audit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.body, b"hello world");
        assert_eq!(req.path, "/v1/audit");
    }

    #[test]
    fn chunked_size_is_hex_and_extensions_are_ignored() {
        let req = parse_all(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              A;name=value;flag\r\n0123456789\r\n0\r\n\r\n",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.body, b"0123456789");
    }

    #[test]
    fn chunked_trailers_are_consumed_and_discarded() {
        let mut p = RequestParser::new(Limits::default());
        p.feed(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              3\r\nabc\r\n0\r\nX-Checksum: 99\r\nX-Other: y\r\n\r\n\
              GET /next HTTP/1.1\r\n\r\n",
        );
        let req = p.poll().unwrap().unwrap();
        assert_eq!(req.body, b"abc");
        assert!(req.header("x-checksum").is_none(), "trailers are discarded");
        // The pipelined follow-up starts exactly after the trailer CRLF.
        assert_eq!(p.poll().unwrap().unwrap().path, "/next");
    }

    #[test]
    fn chunked_empty_body() {
        let req = parse_all(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.body.is_empty());
    }

    #[test]
    fn chunked_byte_at_a_time_decodes_identically() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    4;x=1\r\nwiki\r\n5\r\npedia\r\n0\r\nT: v\r\n\r\n";
        let one_shot = parse_all(raw).unwrap().unwrap();
        let mut p = RequestParser::new(Limits::default());
        let mut trickled = None;
        for b in raw.iter() {
            p.feed(&[*b]);
            if let Some(req) = p.poll().unwrap() {
                trickled = Some(req);
            }
        }
        assert_eq!(trickled.unwrap(), one_shot);
        assert_eq!(one_shot.body, b"wikipedia");
    }

    #[test]
    fn chunked_malformed_framing_is_400() {
        for raw in [
            // Non-hex size.
            &b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\nab\r\n0\r\n\r\n"[..],
            // Empty size line.
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\r\n0\r\n\r\n",
            // Missing CRLF after chunk data.
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcX\r\n0\r\n\r\n",
            // 17 hex digits overflow the size field.
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n11111111111111111\r\n",
        ] {
            let err = parse_all(raw).unwrap_err();
            assert_eq!(err, ParseError::BadChunk, "{raw:?}");
            assert_eq!(err.status(), 400);
        }
    }

    #[test]
    fn chunked_declared_total_over_limit_is_413() {
        let limits = Limits {
            max_body_bytes: 16,
            ..Limits::default()
        };
        let mut p = RequestParser::new(limits);
        // 0x10 = 16 decoded so far, then one more byte declared: 413
        // before that byte's data even arrives.
        p.feed(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n10\r\naaaaaaaaaaaaaaaa\r\n1\r\n",
        );
        let err = p.poll().unwrap_err();
        assert_eq!(err, ParseError::BodyTooLarge(17));
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn chunked_huge_size_cannot_wrap_past_the_limit() {
        // `decoded.len() + size` overflows usize for a 16-hex-digit
        // size; the check must saturate and answer 413, not wrap to a
        // small number and stream unbounded data (release-mode DoS).
        let mut p = RequestParser::new(Limits::default());
        p.feed(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1\r\nA\r\nffffffffffffffff\r\n",
        );
        let err = p.poll().unwrap_err();
        assert_eq!(err.status(), 413, "{err:?}");
    }

    #[test]
    fn chunked_terminal_chunk_allowed_at_exact_limit() {
        // A body that exactly fills the limit must still terminate: the
        // `0` chunk is not a size declaration.
        let limits = Limits {
            max_body_bytes: 4,
            ..Limits::default()
        };
        let mut p = RequestParser::new(limits);
        p.feed(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n0\r\n\r\n");
        assert_eq!(p.poll().unwrap().unwrap().body, b"abcd");
    }

    #[test]
    fn chunked_oversized_trailers_are_431() {
        let limits = Limits {
            max_head_bytes: 64,
            ..Limits::default()
        };
        let mut p = RequestParser::new(limits);
        p.feed(b"POST / HTTP/1.1\r\nTE2: x\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n");
        assert_eq!(p.poll(), Ok(None));
        let mut err = None;
        for _ in 0..16 {
            p.feed(b"X-Trailer-Filler: aaaaaaaaaaaaaaaa\r\n");
            match p.poll() {
                Ok(None) => continue,
                Ok(Some(_)) => panic!("trailers never terminated"),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(err.unwrap().status(), 431);
    }

    #[test]
    fn unknown_transfer_codings_stay_501() {
        // The regression pair: chunked must parse (above), every other
        // coding — and ambiguous coding lists — must still answer 501.
        for raw in [
            &b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n"[..],
            b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked, chunked\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding:\r\n\r\n",
        ] {
            let err = parse_all(raw).unwrap_err();
            assert_eq!(err, ParseError::UnsupportedTransferEncoding, "{raw:?}");
            assert_eq!(err.status(), 501, "{raw:?}");
        }
    }

    #[test]
    fn chunked_plus_content_length_is_rejected() {
        let err = parse_all(
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n",
        )
        .unwrap_err();
        assert_eq!(err, ParseError::ConflictingFraming);
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn mid_request_tracks_partial_state() {
        let mut p = RequestParser::new(Limits::default());
        assert!(!p.mid_request());
        p.feed(b"GET / HT");
        assert!(p.mid_request());
        p.feed(b"TP/1.1\r\n\r\n");
        assert!(p.poll().unwrap().is_some());
        assert!(!p.mid_request(), "fully drained parser is idle");
    }

    #[test]
    fn errors_are_sticky() {
        let mut p = RequestParser::new(Limits::default());
        p.feed(b"BROKEN\r\n\r\nGET / HTTP/1.1\r\n\r\n");
        assert!(p.poll().is_err());
        assert!(p.poll().is_err(), "poisoned parser must stay failed");
    }

    #[test]
    fn response_bytes_shape() {
        let r = Response::json(200, b"{}".to_vec(), true);
        let bytes = r.to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn error_body_escapes_json() {
        let r = Response::error(400, "bad \"quote\"", false);
        let text = String::from_utf8(r.body.to_vec()).unwrap();
        assert_eq!(text, "{\"error\":\"bad \\\"quote\\\"\",\"status\":400}");
    }

    #[test]
    fn chunked_response_round_trips_through_the_parser() {
        // Self-test the writer against our own decoder: a chunked POST
        // assembled with write_chunk parses back to the same body.
        let mut raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        write_chunk(&mut raw, b"[");
        write_chunk(&mut raw, b"{\"a\":1}");
        write_chunk(&mut raw, b""); // skipped, must not terminate
        write_chunk(&mut raw, b"]");
        write_last_chunk(&mut raw);
        let req = parse_all(&raw).unwrap().unwrap();
        assert_eq!(req.body, b"[{\"a\":1}]");
    }

    #[test]
    fn chunked_head_shape() {
        let mut out = Vec::new();
        write_chunked_head(&mut out, 200, "application/json", true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(!text.contains("Content-Length"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    #[test]
    fn shed_response_carries_retry_after() {
        let text = String::from_utf8(shed_response_bytes(1)).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        let declared: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(declared, body.len());
    }
}
