//! A blocking HTTP/1.1 client for the audit service: one request at a
//! time over a caller's keep-alive connection. The distributed build's
//! executor drives its worker processes with it, and the tests and the
//! `serve_audit` example talk to a live server through it. Its response
//! reader understands both framings, `Content-Length` and chunked.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Pull more bytes from the socket into `buf`, erroring on EOF.
fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<()> {
    let mut byte = [0u8; 2048];
    let n = stream.read(&mut byte)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    buf.extend_from_slice(&byte[..n]);
    Ok(())
}

/// Read one HTTP/1.1 response: status + body, de-chunked if the server
/// answered with `Transfer-Encoding: chunked` (the streaming `/v1/batch`
/// path), `Content-Length`-delimited otherwise.
///
/// `scratch` is the connection's read buffer: exactly one response is
/// consumed from it, and any pipelined surplus is *left in it* for the
/// next call — so pass the same buffer for the lifetime of a connection.
pub fn read_response(
    stream: &mut TcpStream,
    scratch: &mut Vec<u8>,
) -> std::io::Result<(u16, Vec<u8>)> {
    let head_end = loop {
        if let Some(pos) = scratch.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        read_more(stream, scratch)?;
    };
    let head = std::str::from_utf8(&scratch[..head_end])
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-utf8 head"))?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let header = |name: &str| {
        head.lines().find_map(|line| {
            let (n, value) = line.split_once(':')?;
            n.eq_ignore_ascii_case(name).then(|| value.trim())
        })
    };
    let chunked = header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
    let content_length: Option<usize> = header("content-length").and_then(|v| v.parse().ok());
    scratch.drain(..head_end + 4);

    if chunked {
        let decoded = dechunk(stream, scratch)?;
        return Ok((status, decoded));
    }
    let content_length = content_length.ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "missing content-length")
    })?;
    while scratch.len() < content_length {
        read_more(stream, scratch)?;
    }
    let body: Vec<u8> = scratch.drain(..content_length).collect();
    Ok((status, body))
}

/// Decode a chunked response body out of `buf` (pulling from the socket
/// as needed), leaving any pipelined surplus in `buf`. Trailers are
/// consumed and discarded.
fn dechunk(stream: &mut TcpStream, buf: &mut Vec<u8>) -> std::io::Result<Vec<u8>> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut decoded = Vec::new();
    loop {
        // One complete `size\r\n` line.
        let eol = loop {
            if let Some(pos) = buf.windows(2).position(|w| w == b"\r\n") {
                break pos;
            }
            read_more(stream, buf)?;
        };
        let line = std::str::from_utf8(&buf[..eol]).map_err(|_| bad("non-utf8 chunk size"))?;
        let size_str = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16).map_err(|_| bad("bad chunk size"))?;
        buf.drain(..eol + 2);
        if size == 0 {
            // Trailers (the server sends none, but consume defensively)
            // up to and including the final empty line.
            loop {
                let eol = loop {
                    if let Some(pos) = buf.windows(2).position(|w| w == b"\r\n") {
                        break pos;
                    }
                    read_more(stream, buf)?;
                };
                buf.drain(..eol + 2);
                if eol == 0 {
                    return Ok(decoded);
                }
            }
        }
        while buf.len() < size + 2 {
            read_more(stream, buf)?;
        }
        decoded.extend_from_slice(&buf[..size]);
        if &buf[size..size + 2] != b"\r\n" {
            return Err(bad("missing chunk data CRLF"));
        }
        buf.drain(..size + 2);
    }
}

/// Issue one `POST` and wait for the response.
pub fn post(
    stream: &mut TcpStream,
    path: &str,
    body: &[u8],
    scratch: &mut Vec<u8>,
) -> std::io::Result<(u16, Vec<u8>)> {
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: loadgen\r\nContent-Type: text/html\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut request = Vec::with_capacity(head.len() + body.len());
    request.extend_from_slice(head.as_bytes());
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    read_response(stream, scratch)
}

/// Issue one `GET` and wait for the response.
pub fn get(
    stream: &mut TcpStream,
    path: &str,
    scratch: &mut Vec<u8>,
) -> std::io::Result<(u16, Vec<u8>)> {
    let request = format!("GET {path} HTTP/1.1\r\nHost: loadgen\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    read_response(stream, scratch)
}
