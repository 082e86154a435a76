//! Live-server replay shared by the parser proptest suites.

use langcrux_serve::{spawn, ServeConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Replay one raw request byte stream — torn in two at `cut` — against
/// a fresh server, returning its complete raw response stream. The
/// client half-closes after sending, so keep-alive responses still end
/// in EOF. Callers compare a torn replay with the untorn one (`cut ==
/// raw.len()`), so use only deterministic-body endpoints: `/v1/healthz`
/// and `/v1/stats` carry uptime.
pub fn replay_torn(raw: &[u8], cut: usize) -> Vec<u8> {
    let cut = cut % (raw.len() + 1);
    let server = spawn(ServeConfig::default()).expect("spawn");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.write_all(&raw[..cut]).expect("first half");
    if cut != raw.len() {
        // A real TCP tear: let the server read a short segment.
        std::thread::sleep(Duration::from_millis(2));
        stream.write_all(&raw[cut..]).expect("second half");
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    server.shutdown();
    out
}
