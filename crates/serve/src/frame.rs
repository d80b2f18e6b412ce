//! Length-prefixed framing over a byte stream.
//!
//! Every protocol message travels as one frame: a big-endian `u32`
//! payload length followed by the payload. Frames are capped at
//! [`MAX_FRAME`] bytes — a hostile length prefix is rejected before any
//! allocation is sized from it, and the connection (not the daemon) pays
//! for it.
//!
//! [`write_frame`] hands the prefix and the payload to the writer in one
//! vectored write, so the prefix never leaves on its own. Combined with
//! `TCP_NODELAY` on every socket, that keeps a request clear of the
//! Nagle/delayed-ACK interaction, which otherwise holds the payload back
//! ~40 ms waiting for the peer to acknowledge the prefix.
//!
//! [`FrameReader`] accumulates bytes across `read` calls, so it is safe
//! on sockets with read timeouts: a timeout mid-frame keeps the partial
//! bytes buffered and surfaces [`FrameError::Idle`] for the caller's
//! shutdown poll, instead of corrupting the stream the way a bare
//! `read_exact` would. It reads straight into the payload buffer and
//! hands that buffer out whole, so payload bytes are never copied; only
//! bytes of a following frame that arrived in the same read are.

use std::io::{self, ErrorKind, IoSlice, IoSliceMut, Read, Write};

/// Hard cap on a frame payload (16 MiB — a ~500k-task binary graph).
pub const MAX_FRAME: usize = 16 << 20;

/// Largest single read. The payload buffer grows by at most this much
/// ahead of the bytes that have arrived, whatever the prefix announces.
const READ_CHUNK: usize = 64 << 10;

/// Payload space offered alongside a prefix that is not yet complete.
const FIRST_READ: usize = 4 << 10;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream in the middle of a frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`]; the stream cannot be
    /// resynchronized past it.
    Oversize(usize),
    /// A read timed out (sockets with a read timeout only). `mid_frame`
    /// tells the caller whether partial frame bytes are buffered.
    Idle { mid_frame: bool },
    /// Any other I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "stream closed mid-frame"),
            FrameError::Oversize(n) => write!(f, "frame of {n} bytes exceeds cap {MAX_FRAME}"),
            FrameError::Idle { mid_frame } => write!(f, "read timed out (mid_frame={mid_frame})"),
            FrameError::Io(e) => write!(f, "{e}"),
        }
    }
}

/// Write one frame (length prefix + payload) as a single vectored write,
/// continuing after short writes, and flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let prefix = (payload.len() as u32).to_be_bytes();
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(payload)];
    let mut bufs = &mut slices[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Incremental frame decoder holding partial bytes between `poll` calls.
#[derive(Default)]
pub struct FrameReader {
    /// Length prefix of the frame in progress; `head_len` of its bytes
    /// have arrived.
    head: [u8; 4],
    head_len: usize,
    /// The frame's payload bytes (`..filled`), then zeroed space for the
    /// next read. `filled` stays 0 until the prefix is complete.
    buf: Vec<u8>,
    filled: usize,
}

impl FrameReader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether partial frame bytes are currently buffered.
    pub fn mid_frame(&self) -> bool {
        self.head_len > 0
    }

    /// Read until one complete frame is available and return its payload.
    /// `Ok(None)` is a clean EOF at a frame boundary; EOF mid-frame is
    /// [`FrameError::Truncated`]. On a socket with a read timeout, a
    /// timeout returns [`FrameError::Idle`] with the partial bytes kept
    /// buffered for the next call.
    pub fn poll(&mut self, r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
        loop {
            let want = if self.head_len == 4 {
                let len = u32::from_be_bytes(self.head) as usize;
                if len > MAX_FRAME {
                    return Err(FrameError::Oversize(len));
                }
                if self.filled >= len {
                    return Ok(Some(self.take_frame(len)));
                }
                len - self.filled
            } else {
                FIRST_READ
            };
            // Grow by what one read can fill, never by the announced
            // length: memory follows the bytes that actually arrive.
            let end = self.filled + want.min(READ_CHUNK);
            if self.buf.len() < end {
                self.buf.resize(end, 0);
            }
            let mut bufs = [
                IoSliceMut::new(&mut self.head[self.head_len..]),
                IoSliceMut::new(&mut self.buf[self.filled..]),
            ];
            match r.read_vectored(&mut bufs) {
                Ok(0) => {
                    return if self.head_len == 0 {
                        Ok(None)
                    } else {
                        Err(FrameError::Truncated)
                    };
                }
                Ok(n) => {
                    let h = n.min(4 - self.head_len);
                    self.head_len += h;
                    self.filled += n - h;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(FrameError::Idle {
                        mid_frame: self.mid_frame(),
                    });
                }
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// Hand out the buffered payload of `len` bytes. Bytes past it belong
    /// to the next frame: its prefix moves to `head` and the rest to a
    /// fresh buffer — the only bytes the reader copies.
    fn take_frame(&mut self, len: usize) -> Vec<u8> {
        let next = &self.buf[len..self.filled];
        let h = next.len().min(4);
        self.head[..h].copy_from_slice(&next[..h]);
        self.head_len = h;
        let rest = next[h..].to_vec();
        self.filled = rest.len();
        let mut payload = std::mem::replace(&mut self.buf, rest);
        payload.truncate(len);
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"beta gamma").unwrap();
        let mut r = FrameReader::new();
        let mut src = &wire[..];
        assert_eq!(r.poll(&mut src).unwrap().unwrap(), b"alpha");
        assert_eq!(r.poll(&mut src).unwrap().unwrap(), b"");
        assert_eq!(r.poll(&mut src).unwrap().unwrap(), b"beta gamma");
        assert!(r.poll(&mut src).unwrap().is_none());
    }

    #[test]
    fn eof_mid_frame_is_truncated() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        for cut in 1..wire.len() {
            let mut r = FrameReader::new();
            let mut src = &wire[..cut];
            assert!(
                matches!(r.poll(&mut src), Err(FrameError::Truncated)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversize_prefix_is_rejected_before_reading_payload() {
        let wire = (MAX_FRAME as u32 + 1).to_be_bytes();
        let mut r = FrameReader::new();
        assert!(matches!(
            r.poll(&mut &wire[..]),
            Err(FrameError::Oversize(_))
        ));
    }

    /// A writer that records each call and accepts at most `per_call`
    /// bytes, optionally failing every other call with `Interrupted`.
    struct Recorder {
        wire: Vec<u8>,
        calls: usize,
        per_call: usize,
        interrupt: bool,
    }

    impl Recorder {
        fn new(per_call: usize, interrupt: bool) -> Self {
            Recorder {
                wire: Vec::new(),
                calls: 0,
                per_call,
                interrupt,
            }
        }
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupt && self.calls % 2 == 1 {
                return Err(io::Error::new(ErrorKind::Interrupted, "signal"));
            }
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(self.per_call - n);
                self.wire.extend_from_slice(&b[..take]);
                n += take;
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_vectored_write() {
        for payload in [&b""[..], b"x", &[9u8; 100_000]] {
            let mut w = Recorder::new(usize::MAX, false);
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.calls, 1, "payload of {} bytes", payload.len());
            assert_eq!(&w.wire[..4], &(payload.len() as u32).to_be_bytes());
            assert_eq!(&w.wire[4..], payload);
        }
    }

    #[test]
    fn short_and_interrupted_writes_still_deliver_the_exact_frame() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut want = (payload.len() as u32).to_be_bytes().to_vec();
        want.extend_from_slice(&payload);
        for (per_call, interrupt) in [(1, false), (3, false), (usize::MAX, true), (1, true)] {
            let mut w = Recorder::new(per_call, interrupt);
            write_frame(&mut w, &payload).unwrap();
            assert_eq!(w.wire, want, "per_call {per_call}, interrupt {interrupt}");
        }
        let mut w = Recorder::new(1, false);
        write_frame(&mut w, b"").unwrap();
        assert_eq!(w.wire, [0, 0, 0, 0]);
    }

    /// A reader that serves `data` in the given chunk sizes, one chunk
    /// per call (the last one repeats), timing out once the data is gone
    /// if `idle_at_end` is set and reporting EOF otherwise.
    struct Chunked<'a> {
        data: &'a [u8],
        chunks: Vec<usize>,
        reads: usize,
        idle_at_end: bool,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.read_vectored(&mut [IoSliceMut::new(buf)])
        }

        fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
            if self.data.is_empty() && self.idle_at_end {
                return Err(io::Error::new(ErrorKind::WouldBlock, "timeout"));
            }
            let chunk = self.chunks[self.reads.min(self.chunks.len() - 1)];
            self.reads += 1;
            let mut src = &self.data[..chunk.min(self.data.len())];
            let n = src.read_vectored(bufs)?;
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn frames_split_at_every_byte_read_back_identically() {
        let payloads: [&[u8]; 3] = [b"alpha", b"", b"beta gamma"];
        let mut wire = Vec::new();
        for p in payloads {
            write_frame(&mut wire, p).unwrap();
        }
        let read_all = |chunks: Vec<usize>| {
            let mut src = Chunked {
                data: &wire,
                chunks,
                reads: 0,
                idle_at_end: false,
            };
            let mut r = FrameReader::new();
            let mut got = Vec::new();
            while let Some(p) = r.poll(&mut src).unwrap() {
                got.push(p);
            }
            got
        };
        assert_eq!(read_all(vec![1]), payloads);
        for cut in 1..wire.len() {
            assert_eq!(read_all(vec![cut, wire.len()]), payloads, "cut at {cut}");
        }
    }

    #[test]
    fn three_frames_in_one_read_with_the_last_partial() {
        let mut wire = Vec::new();
        for p in [&b"one"[..], b"two", b"three"] {
            write_frame(&mut wire, p).unwrap();
        }
        let cut = wire.len() - 2;
        let mut src = Chunked {
            data: &wire[..cut],
            chunks: vec![usize::MAX],
            reads: 0,
            idle_at_end: true,
        };
        let mut r = FrameReader::new();
        assert_eq!(r.poll(&mut src).unwrap().unwrap(), b"one");
        assert_eq!(r.poll(&mut src).unwrap().unwrap(), b"two");
        assert_eq!(src.reads, 1, "both frames came from the first read");
        assert!(matches!(
            r.poll(&mut src),
            Err(FrameError::Idle { mid_frame: true })
        ));
        src.data = &wire[cut..];
        assert_eq!(r.poll(&mut src).unwrap().unwrap(), b"three");
        assert!(!r.mid_frame());
    }

    #[test]
    fn large_frames_are_read_in_large_chunks() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[1u8; 200_000]).unwrap();
        let mut src = Chunked {
            data: &wire,
            chunks: vec![usize::MAX],
            reads: 0,
            idle_at_end: false,
        };
        let mut r = FrameReader::new();
        assert_eq!(r.poll(&mut src).unwrap().unwrap().len(), 200_000);
        // One read for the prefix and the first bytes, then 64 KiB chunks.
        assert!(src.reads <= 5, "{} reads", src.reads);
    }

    #[test]
    fn bare_max_prefix_allocates_only_what_arrived() {
        let wire = (MAX_FRAME as u32).to_be_bytes();
        let mut src = Chunked {
            data: &wire,
            chunks: vec![usize::MAX],
            reads: 0,
            idle_at_end: true,
        };
        let mut r = FrameReader::new();
        for _ in 0..3 {
            assert!(matches!(
                r.poll(&mut src),
                Err(FrameError::Idle { mid_frame: true })
            ));
        }
        assert!(r.buf.capacity() <= READ_CHUNK, "{}", r.buf.capacity());
    }

    /// A reader that yields one byte per call then times out, simulating a
    /// slow client on a socket with a read timeout.
    struct Dribble<'a> {
        data: &'a [u8],
        pos: usize,
        ready: bool,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(ErrorKind::WouldBlock, "timeout"));
            }
            self.ready = false;
            if self.pos == self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn partial_bytes_survive_timeouts() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"slowly").unwrap();
        let mut src = Dribble {
            data: &wire,
            pos: 0,
            ready: false,
        };
        let mut r = FrameReader::new();
        let mut idles = 0;
        loop {
            match r.poll(&mut src) {
                Ok(Some(p)) => {
                    assert_eq!(p, b"slowly");
                    break;
                }
                Ok(None) => panic!("hit EOF before the frame completed"),
                Err(FrameError::Idle { .. }) => idles += 1,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(idles > wire.len() / 2, "every byte cost one timeout");
    }
}
