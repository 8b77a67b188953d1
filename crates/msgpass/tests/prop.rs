//! Property tests for the message-passing substrate.

use bytes::BytesMut;
use std::time::Duration;

use msgpass::channel::ChannelWorld;
use msgpass::codec::{decode, encode};
use msgpass::Transport;
use proptest::prelude::*;

proptest! {
    #[test]
    fn codec_roundtrip_any_payload(
        source in 0usize..1024,
        tag in 0u32..1_000_000,
        data in proptest::collection::vec(proptest::num::f64::ANY, 0..256),
    ) {
        let frame = encode(source, tag, &data);
        let mut buf = BytesMut::from(&frame[..]);
        let msg = decode(&mut buf).unwrap().unwrap();
        prop_assert_eq!(msg.source, source);
        prop_assert_eq!(msg.tag, tag);
        prop_assert_eq!(msg.data.len(), data.len());
        for (a, b) in msg.data.iter().zip(&data) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "payload must be bit-exact");
        }
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn codec_streaming_across_arbitrary_chunking(
        payloads in proptest::collection::vec(
            proptest::collection::vec(-1.0e10f64..1.0e10, 0..20), 1..8),
        chunk in 1usize..64,
    ) {
        // concatenate frames, feed in fixed-size chunks, expect all back
        let mut wire = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            wire.extend_from_slice(&encode(i, i as u32, p));
        }
        let mut buf = BytesMut::new();
        let mut got = Vec::new();
        for piece in wire.chunks(chunk) {
            buf.extend_from_slice(piece);
            while let Some(msg) = decode(&mut buf).unwrap() {
                got.push(msg);
            }
        }
        prop_assert_eq!(got.len(), payloads.len());
        for (i, (m, p)) in got.iter().zip(&payloads).enumerate() {
            prop_assert_eq!(m.source, i);
            prop_assert_eq!(&m.data, p);
        }
    }

    /// The shared mailbox keeps FIFO order per tag under selective
    /// receive; a one-rank channel world sends to itself.
    #[test]
    fn loopback_selective_receive_preserves_fifo_per_tag(
        tags in proptest::collection::vec(0u32..4, 1..40),
    ) {
        let mut w = ChannelWorld::new(1).pop().unwrap();
        for (i, &t) in tags.iter().enumerate() {
            w.send(0, t, &[i as f64]).unwrap();
        }
        // drain tag by tag; within each tag order must be FIFO
        let mut buf = Vec::new();
        for t in 0..4u32 {
            let expect: Vec<usize> = tags.iter().enumerate()
                .filter(|(_, &x)| x == t).map(|(i, _)| i).collect();
            for &e in &expect {
                w.recv(0, t, &mut buf).unwrap();
                prop_assert_eq!(buf[0] as usize, e);
            }
        }
        prop_assert!(w.probe_timeout(None, None, Duration::ZERO).unwrap().is_none());
    }
}
