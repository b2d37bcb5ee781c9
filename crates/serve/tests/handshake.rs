//! The handshake bounds what a peer can make the server hold: the member
//! list a `Hello` registers, and the time a connection may stay silent
//! before saying it.

use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::time::Duration;

use acp_collectives::{Communicator, ReduceOp};
use acp_serve::wire::{read_response, write_request, Reject, Request, Response};
use acp_serve::{ServeConfig, ServedCommunicator, Server};

/// One past the largest member list a client can decode (`wire`'s
/// `MAX_MEMBERS`).
const TOO_MANY_CLIENTS: u32 = (1 << 20) + 1;

#[test]
fn a_hello_above_the_member_cap_is_rejected() {
    let server = Server::spawn(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let hello = Request::Hello {
        job: 1,
        client: 0,
        clients: TOO_MANY_CLIENTS,
    };
    write_request(&mut &stream, &hello).unwrap();
    match read_response(&mut &stream).unwrap() {
        Response::Reject(Reject::Rejected { detail }) => {
            assert!(detail.contains("out of range"), "got: {detail}");
        }
        other => panic!("expected a structured reject, got {other:?}"),
    }

    // The server is unharmed: a normal two-client job still aggregates.
    let handles: Vec<_> = (0..2u32)
        .map(|c| {
            std::thread::spawn(move || {
                let mut comm = ServedCommunicator::connect(addr, 2, c, 2).unwrap();
                let mut buf = vec![c as f32 + 1.0; 5];
                comm.all_reduce(&mut buf, ReduceOp::Sum).unwrap();
                buf
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), vec![3.0; 5]);
    }
}

#[test]
fn a_silent_connection_is_closed_at_the_step_deadline() {
    let server = Server::spawn(ServeConfig {
        step_deadline: Duration::from_millis(200),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Ok(n) => panic!("a silent peer was sent {n} bytes"),
        Err(e) => panic!("the server kept a silent connection open: {e}"),
    }
}
