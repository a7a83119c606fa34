//! A verifier client built from the public wire and codec types, so one
//! connection can be driven by a writer thread and a reader thread.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use tlc_core::plan::DataPlan;
use tlc_core::verify::remote::codec::{
    Hello, HelloAck, Register, Registered, VerdictMsg, MAGIC, PROTOCOL_VERSION,
};
use tlc_core::verify::remote::{IngressConfig, IngressHandle, IngressReport, IngressServer};
use tlc_core::verify::service::ServiceConfig;
use tlc_crypto::PublicKey;
use tlc_net::wire::{Frame, FrameDecoder, FrameKind, DEFAULT_MAX_PAYLOAD};

/// Binds and spawns a verifier on loopback with the shipped defaults.
pub fn spawn_server(workers: usize) -> IngressHandle {
    let server = IngressServer::bind(
        ("127.0.0.1", 0),
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
        IngressConfig::default(),
    )
    .expect("bind loopback verifier");
    server.spawn().expect("spawn verifier")
}

pub fn stop_server(handle: IngressHandle) -> IngressReport {
    handle.shutdown().expect("verifier loop exits cleanly")
}

/// Reading half: turns the byte stream back into frames.
pub struct FrameReader {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

impl FrameReader {
    pub fn new(stream: TcpStream) -> FrameReader {
        FrameReader {
            stream,
            decoder: FrameDecoder::new(DEFAULT_MAX_PAYLOAD),
            buf: vec![0; 64 * 1024],
        }
    }

    /// Next frame, or `None` once the peer closed the stream.
    pub fn next(&mut self) -> Option<Frame> {
        loop {
            if let Some(f) = self.decoder.next_frame() {
                return Some(f);
            }
            let n = self.stream.read(&mut self.buf).ok()?;
            if n == 0 {
                return None;
            }
            self.decoder.push(&self.buf[..n]).ok()?;
        }
    }
}

pub fn send(stream: &mut TcpStream, frame: &Frame, scratch: &mut Vec<u8>) {
    scratch.clear();
    frame
        .encode_into(scratch)
        .expect("frame under the payload cap");
    stream.write_all(scratch).expect("loopback write");
}

/// A handshaken session with every relationship registered.
pub struct Session {
    pub writer: TcpStream,
    pub reader: FrameReader,
    pub window: u32,
    /// Server relationship id per registered key pair, in input order.
    pub rels: Vec<u64>,
}

/// Connects, says HELLO and registers `pairs` (pipelined).
pub fn open_session(
    addr: std::net::SocketAddr,
    plan: DataPlan,
    pairs: &[(PublicKey, PublicKey)],
) -> Session {
    let mut writer = TcpStream::connect(addr).expect("connect to verifier");
    writer.set_nodelay(true).expect("nodelay");
    let mut reader = FrameReader::new(writer.try_clone().expect("clone socket"));
    let mut scratch = Vec::new();
    let hello = Hello {
        magic: MAGIC,
        version: PROTOCOL_VERSION,
        window: 0,
    };
    send(&mut writer, &hello.to_frame(), &mut scratch);
    let ack = reader.next().expect("HELLO_ACK");
    assert_eq!(ack.kind, FrameKind::HelloAck, "server refused the session");
    let ack = HelloAck::decode(&ack.payload).expect("HELLO_ACK payload");
    for (req, (edge_key, operator_key)) in pairs.iter().enumerate() {
        let msg = Register {
            req: req as u32,
            capacity: 0,
            plan,
            edge_key: edge_key.clone(),
            operator_key: operator_key.clone(),
        };
        send(&mut writer, &msg.to_frame(), &mut scratch);
    }
    let mut rels = vec![0u64; pairs.len()];
    for _ in 0..pairs.len() {
        let f = reader.next().expect("REGISTERED");
        assert_eq!(f.kind, FrameKind::Registered, "registration refused");
        let r = Registered::decode(&f.payload).expect("REGISTERED payload");
        rels[r.req as usize] = r.rel;
    }
    Session {
        writer,
        reader,
        window: ack.window.max(1),
        rels,
    }
}

/// Outcome of reading one frame on a submit stream.
pub enum Incoming {
    Verdict(VerdictMsg),
    /// Anything but a verdict: BUSY, ERROR, a stray frame, or a decode
    /// failure. Counted as a failed operation by the caller.
    Other(FrameKind),
    Closed,
}

pub fn read_verdict(reader: &mut FrameReader) -> Incoming {
    match reader.next() {
        None => Incoming::Closed,
        Some(f) if f.kind == FrameKind::Verdict => match VerdictMsg::decode(&f.payload) {
            Ok(v) => Incoming::Verdict(v),
            Err(_) => Incoming::Other(FrameKind::Verdict),
        },
        Some(f) => Incoming::Other(f.kind),
    }
}

/// Says GOODBYE and waits for the acknowledgement, then closes.
pub fn close_session(mut writer: TcpStream, mut reader: FrameReader) {
    let mut scratch = Vec::new();
    send(
        &mut writer,
        &Frame::new(FrameKind::Goodbye, Vec::new()),
        &mut scratch,
    );
    while let Some(f) = reader.next() {
        if f.kind == FrameKind::GoodbyeAck {
            break;
        }
    }
    let _ = writer.shutdown(Shutdown::Both);
}
