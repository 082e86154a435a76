//! An incremental HTTP/1.1 response reader for the load generator.
//!
//! Bytes are pushed as they arrive and a response is handed out only once
//! it is complete, head and body together; until then nothing is
//! consumed. A read that times out or returns half a body therefore
//! leaves the reader exactly where it was, and the next read resumes it.
//! (`serve::loadgen::read_response` drains the head before the body has
//! arrived, so a timeout mid-body loses the head and desynchronises the
//! connection.)

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    pub status: u16,
    /// The body, de-chunked when the response was chunked.
    pub body: Vec<u8>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed response: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

#[derive(Default)]
pub struct ResponseReader {
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as complete responses.
    consumed: usize,
}

impl ResponseReader {
    pub fn new() -> Self {
        ResponseReader::default()
    }

    /// Append bytes read from the connection.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.consumed > 0 && self.consumed * 2 >= self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, if all of it has arrived.
    pub fn next_response(&mut self) -> Result<Option<HttpResponse>, ProtocolError> {
        match parse(&self.buf[self.consumed..])? {
            Some((response, used)) => {
                self.consumed += used;
                Ok(Some(response))
            }
            None => Ok(None),
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn bad(what: &str) -> ProtocolError {
    ProtocolError(what.to_string())
}

/// Parse one response from the front of `bytes`: `None` while incomplete,
/// else the response and the bytes it spans.
fn parse(bytes: &[u8]) -> Result<Option<(HttpResponse, usize)>, ProtocolError> {
    let Some(head_end) = find(bytes, b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&bytes[..head_end]).map_err(|_| bad("head is not utf-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("status line"))?;
    let mut content_length = None;
    let mut chunked = false;
    for line in lines {
        let (name, value) = line.split_once(':').ok_or_else(|| bad("header line"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse::<usize>().map_err(|_| bad("content-length"))?);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value.eq_ignore_ascii_case("chunked");
        }
    }
    let body_start = head_end + 4;
    if chunked {
        let mut body = Vec::new();
        let mut at = body_start;
        loop {
            let Some(line_len) = find(&bytes[at..], b"\r\n") else {
                return Ok(None);
            };
            let size_text =
                std::str::from_utf8(&bytes[at..at + line_len]).map_err(|_| bad("chunk size"))?;
            let size_text = size_text.split(';').next().unwrap_or_default().trim();
            let size = usize::from_str_radix(size_text, 16).map_err(|_| bad("chunk size"))?;
            at += line_len + 2;
            if size == 0 {
                // Last chunk, then the (empty) trailer section.
                if bytes.len() < at + 2 {
                    return Ok(None);
                }
                if &bytes[at..at + 2] != b"\r\n" {
                    return Err(bad("chunked trailer"));
                }
                return Ok(Some((HttpResponse { status, body }, at + 2)));
            }
            if bytes.len() < at + size + 2 {
                return Ok(None);
            }
            body.extend_from_slice(&bytes[at..at + size]);
            if &bytes[at + size..at + size + 2] != b"\r\n" {
                return Err(bad("chunk terminator"));
            }
            at += size + 2;
        }
    }
    let len = content_length.unwrap_or(0);
    if bytes.len() < body_start + len {
        return Ok(None);
    }
    let body = bytes[body_start..body_start + len].to_vec();
    Ok(Some((HttpResponse { status, body }, body_start + len)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Vec<u8> {
        let mut s = Vec::new();
        s.extend_from_slice(b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 7\r\n\r\n{\"a\":1}");
        s.extend_from_slice(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\n[\r\n5\r\n{},{}\r\n1\r\n]\r\n0\r\n\r\n",
        );
        s.extend_from_slice(b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n");
        s
    }

    fn expected() -> Vec<HttpResponse> {
        vec![
            HttpResponse {
                status: 200,
                body: b"{\"a\":1}".to_vec(),
            },
            HttpResponse {
                status: 200,
                body: b"[{},{}]".to_vec(),
            },
            HttpResponse {
                status: 503,
                body: Vec::new(),
            },
        ]
    }

    /// Every way of splitting the stream into two reads, with a "timeout"
    /// (a poll that finds nothing new) after each, yields the same three
    /// responses: nothing is lost or misparsed mid-head or mid-body.
    #[test]
    fn resumes_after_a_timeout_at_any_byte() {
        let bytes = stream();
        for cut in 0..=bytes.len() {
            let mut reader = ResponseReader::new();
            let mut got = Vec::new();
            for part in [&bytes[..cut], &bytes[cut..]] {
                reader.push(part);
                while let Some(r) = reader.next_response().unwrap() {
                    got.push(r);
                }
                // The timed-out poll: no bytes, state untouched.
                assert!(reader.next_response().unwrap().is_none());
            }
            assert_eq!(got, expected(), "cut at {cut}");
        }
    }

    #[test]
    fn byte_at_a_time() {
        let mut reader = ResponseReader::new();
        let mut got = Vec::new();
        for b in stream() {
            reader.push(&[b]);
            if let Some(r) = reader.next_response().unwrap() {
                got.push(r);
            }
        }
        assert_eq!(got, expected());
    }

    #[test]
    fn garbage_is_an_error() {
        let mut reader = ResponseReader::new();
        reader.push(b"SMTP ready\r\n\r\n");
        assert!(reader.next_response().is_err());
    }
}
