//! Shared by the raw-protocol tests.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use acp_serve::wire::{read_response, write_request, Request, Response};

/// Connects to `addr` and joins `job` as `client` of `clients` over the
/// raw protocol, for cases the typed client cannot emit.
pub fn raw_join(addr: SocketAddr, job: u64, client: u32, clients: u32) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    let hello = Request::Hello {
        job,
        client,
        clients,
    };
    write_request(&mut &stream, &hello).unwrap();
    assert!(matches!(
        read_response(&mut &stream).unwrap(),
        Response::Welcome { .. }
    ));
    stream
}
