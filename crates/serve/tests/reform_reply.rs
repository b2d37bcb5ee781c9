//! A `Reformed` reply is checked before the client adopts any of it: a
//! member list without this client, or out of order, fails the reform and
//! leaves the session at its old epoch.

use std::net::TcpListener;

use acp_collectives::{CommError, Communicator};
use acp_serve::wire::{read_request, write_response, Reject, Request, Response};
use acp_serve::ServedCommunicator;

#[test]
fn a_bad_reformed_reply_is_not_adopted() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // A fake service: welcome client 0 of 2, answer two reforms with a
    // list that lacks it and one out of order, then report the epoch the
    // next submission carries.
    let service = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let Request::Hello { job, .. } = read_request(&mut stream).unwrap() else {
            panic!("expected a Hello");
        };
        let welcome = Response::Welcome {
            job,
            epoch: 0,
            clients: 2,
            rank: 0,
        };
        write_response(&mut stream, &welcome).unwrap();
        let mut reform_epochs = Vec::new();
        for members in [vec![7], vec![1, 0]] {
            let Request::Reform { epoch, .. } = read_request(&mut stream).unwrap() else {
                panic!("expected a Reform");
            };
            reform_epochs.push(epoch);
            write_response(&mut stream, &Response::Reformed { epoch: 1, members }).unwrap();
        }
        let Request::Submit(submit) = read_request(&mut stream).unwrap() else {
            panic!("expected a Submit");
        };
        let refusal = Reject::Rejected {
            detail: "end of test".to_string(),
        };
        write_response(&mut stream, &Response::Reject(refusal)).unwrap();
        (reform_epochs, submit.epoch)
    });

    let mut comm = ServedCommunicator::connect(addr, 3, 0, 2).unwrap();
    for bad in ["without this client", "out of order"] {
        let err = comm.reform().unwrap_err();
        assert_eq!(err, CommError::ProtocolMismatch, "reply {bad}");
        assert_eq!(comm.membership().epoch(), 0, "reply {bad}");
        assert_eq!((comm.rank(), comm.world_size()), (0, 2), "reply {bad}");
    }
    assert!(matches!(comm.barrier(), Err(CommError::Rejected { .. })));
    let (reform_epochs, submit_epoch) = service.join().unwrap();
    assert_eq!(reform_epochs, vec![0, 0]);
    assert_eq!(submit_epoch, 0, "the barrier went out at the old epoch");
}
