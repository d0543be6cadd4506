//! The socket engine without processes: the frame parser and reader on
//! hostile and arbitrarily split byte streams, the write path through a
//! writer that takes a few bytes at a time, and a corrupt peer over an
//! in-process socket pair.

use std::io;

use mimir_datagen::{rank_rng, RankRng};

use super::*;

/// A non-blocking stream in memory: `read` serves `data` up to the next
/// cut and then would block once; `write` takes at most `take` bytes
/// and would block on every other call. EOF once `closed`.
struct Pipe {
    data: Vec<u8>,
    pos: usize,
    cuts: Vec<usize>,
    closed: bool,
    take: usize,
    stall: bool,
}

impl Pipe {
    fn reader(data: &[u8], mut cuts: Vec<usize>, closed: bool) -> Pipe {
        cuts.sort_unstable();
        cuts.reverse();
        Pipe {
            data: data.to_vec(),
            pos: 0,
            cuts,
            closed,
            take: 0,
            stall: false,
        }
    }

    fn writer(take: usize) -> Pipe {
        Pipe {
            take,
            ..Pipe::reader(&[], Vec::new(), false)
        }
    }
}

impl Read for Pipe {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        while self.cuts.last().is_some_and(|&c| c < self.pos) {
            self.cuts.pop();
        }
        if self.cuts.last() == Some(&self.pos) {
            self.cuts.pop();
            return Err(ErrorKind::WouldBlock.into());
        }
        let end = self.cuts.last().map_or(self.data.len(), |&c| c);
        let n = buf.len().min(end.min(self.data.len()) - self.pos);
        if n == 0 {
            return if self.closed {
                Ok(0)
            } else {
                Err(ErrorKind::WouldBlock.into())
            };
        }
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for Pipe {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stall = !self.stall;
        if self.stall {
            return Err(ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(self.take);
        self.data.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// `(tag, flow, kind, payload)`: a message as the tests compare it.
type Flat = (Tag, u64, u8, Vec<u8>);

fn flatten(msg: Msg) -> Flat {
    let (kind, bytes) = match msg.data {
        Payload::Heap(b) => (KIND_HEAP, b),
        Payload::Small(v) => (KIND_SMALL, v.to_le_bytes().to_vec()),
    };
    (msg.tag, msg.flow, kind, bytes)
}

fn unflatten(f: &Flat) -> Msg {
    let data = match f.2 {
        KIND_HEAP => Payload::Heap(f.3.clone()),
        _ => Payload::Small(u64::from_le_bytes(
            f.3.as_slice().try_into().expect("8 value bytes"),
        )),
    };
    let (tag, flow) = (f.0, f.1);
    Msg { tag, data, flow }
}

fn random_frames(rng: &mut RankRng, n: usize) -> Vec<Flat> {
    (0..n)
        .map(|_| {
            let kind = rng.gen_range(0..2) as u8;
            let len = match (kind, rng.gen_range(0..8)) {
                (KIND_HEAP, 0) => 0,
                (KIND_HEAP, 1) => rng.gen_range(0..3 * STAGE),
                (KIND_HEAP, _) => rng.gen_range(0..64),
                _ => 8,
            };
            let payload = (0..len).map(|_| rng.next_u64() as u8).collect();
            let tag = rng.next_u64() as Tag;
            (tag, rng.next_u64(), kind, payload)
        })
        .collect()
}

/// The frames' wire bytes, through the real write path and a writer
/// that takes `take` bytes on every other call.
fn encode(frames: &[Flat], take: usize) -> Vec<u8> {
    let mut outbox: VecDeque<OutFrame> =
        frames.iter().map(|f| OutFrame::new(unflatten(f))).collect();
    let mut wire = Pipe::writer(take);
    let mut pool = BufPool::default();
    while !outbox.is_empty() {
        flush(&mut outbox, &mut wire, &mut pool).expect("the pipe never fails");
    }
    wire.data
}

/// Pumps `src` until it blocks with nothing left or ends: the frames
/// decoded, whether the stream ended, and the reader for inspection.
fn decode(src: &mut Pipe) -> (Vec<Flat>, bool, FrameReader) {
    let mut reader = FrameReader::new();
    let mut pool = BufPool::default();
    let mut out = Vec::new();
    loop {
        let mut sink = |msg| out.push(flatten(msg));
        if reader.pump(src, &mut pool, &mut sink).is_err() {
            return (out, true, reader);
        }
        if src.pos == src.data.len() && !src.closed {
            return (out, false, reader);
        }
    }
}

#[test]
fn parser_rejects_what_is_not_a_frame() {
    let mut hdr = [0u8; HEADER];
    for (kind, len, ok) in [
        (KIND_HEAP, u32::MAX, true),
        (KIND_SMALL, 8, true),
        (KIND_SMALL, 7, false),
        (KIND_SMALL, 0, false),
        (2, 8, false),
        (2, u32::MAX, false),
        (3, 8, false),
        (255, 0, false),
    ] {
        encode_header(&mut hdr, len, kind, 9, 11);
        let mut bytes = hdr.to_vec();
        bytes.extend_from_slice(&[0xEE; 8]);
        assert_eq!(parse_frame(&bytes).is_ok(), ok, "kind {kind} len {len}");
    }
    // A heap header is reported with its length, never allocated for.
    encode_header(&mut hdr, u32::MAX, KIND_HEAP, 9, 11);
    match parse_frame(&hdr) {
        Ok(Some((Parsed::Heap(head), HEADER))) => assert_eq!(head.len, u32::MAX as usize),
        other => panic!("heap header: {other:?}"),
    }
}

#[test]
fn every_strict_prefix_of_a_frame_needs_more() {
    let mut rng = rank_rng(0xF2A3, 0);
    for f in random_frames(&mut rng, 64) {
        let wire = encode(std::slice::from_ref(&f), usize::MAX);
        // Inline frames parse whole; of a heap frame, only the header.
        let whole = if f.2 == KIND_HEAP { HEADER } else { wire.len() };
        for cut in 0..whole {
            assert!(matches!(parse_frame(&wire[..cut]), Ok(None)), "cut {cut}");
        }
        let (_, used) = parse_frame(&wire).expect("valid").expect("complete");
        assert_eq!(used, whole);
    }
}

#[test]
fn any_split_of_a_frame_stream_decodes_to_the_frames_sent() {
    for case in 0..64 {
        let mut rng = rank_rng(0x5711, case);
        let n = 1 + rng.gen_range(0..12);
        let frames = random_frames(&mut rng, n);
        let wire = encode(&frames, 1 + rng.gen_range(0..2 * STAGE));
        let cuts = (0..rng.gen_range(0..24))
            .map(|_| rng.gen_range(0..wire.len() + 1))
            .collect();
        let (got, ended, _) = decode(&mut Pipe::reader(&wire, cuts, false));
        assert!(!ended, "case {case}: an open stream is not a dead one");
        assert_eq!(got, frames, "case {case}");
    }
}

#[test]
fn every_prefix_of_a_frame_stream_ends_as_a_disconnect() {
    let mut rng = rank_rng(0x7E0F, 0);
    let frames = random_frames(&mut rng, 10);
    let wire = encode(&frames, usize::MAX);
    for cut in 0..=wire.len() {
        let (got, ended, _) = decode(&mut Pipe::reader(&wire[..cut], vec![cut / 2], true));
        assert!(ended, "cut {cut}: EOF, mid-frame or not, ends the stream");
        assert_eq!(got[..], frames[..got.len()], "cut {cut}: whole frames only");
    }
}

#[test]
fn arbitrary_bytes_never_panic_or_allocate_ahead_of_arrival() {
    for case in 0..256 {
        let mut rng = rank_rng(0xBAD5, case);
        let mut bytes: Vec<u8> = (0..rng.gen_range(0..3 * STAGE))
            .map(|_| rng.next_u64() as u8)
            .collect();
        if case % 2 == 0 && bytes.len() > 4 {
            bytes[4] = KIND_HEAP; // a plausible header announcing anything
        }
        let cuts = (0..rng.gen_range(0..6))
            .map(|_| rng.gen_range(0..bytes.len() + 1))
            .collect();
        let (_, _, reader) = decode(&mut Pipe::reader(&bytes, cuts, case % 3 == 0));
        if let Some((_, buf)) = &reader.heap {
            assert!(
                buf.capacity() <= 2 * (bytes.len() + READ_CHUNK),
                "case {case}: {} B held for {} B received",
                buf.capacity(),
                bytes.len()
            );
        }
    }
}

#[test]
fn corrupt_bytes_from_a_peer_are_a_disconnect_for_every_waiter() {
    let (a, b) = UnixStream::pair().expect("socket pair");
    let mut t = world_transport(1, vec![Some(b), None], 0).expect("rank 1");
    let mut stats = CommCounters::default();
    // One good frame, then a frame of an unknown kind.
    let mut wire = encode(&[(3, 0, KIND_SMALL, 42u64.to_le_bytes().to_vec())], 64);
    wire.extend_from_slice(&[0xFF; HEADER]);
    (&a).write_all(&wire).expect("raw bytes");
    assert!(matches!(t.recv(0, &mut stats), Ok(Msg { tag: 3, .. })));
    assert!(t.recv(0, &mut stats).is_err(), "then the peer is dead");
    drop(a);
}
