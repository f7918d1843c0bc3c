//! Property tests for the wire protocol: arbitrary frames survive
//! encode→decode→encode byte-identically, and hostile bytes (truncations,
//! corruptions, garbage) always produce typed errors — never panics.

use ftb_graph::{EdgeId, Fault, FaultSet, VertexId};
use ftb_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, DecodeError, ErrorCode,
    MetricsFormat, Request, Response, SlowQueryReport, WirePath,
};
use proptest::collection;
use proptest::prelude::*;

/// Build a fault set from parallel kind/id draws (canonicalised by
/// [`FaultSet`] itself: sorted, deduplicated).
fn make_faults(kinds: &[u8], ids: &[u32]) -> FaultSet {
    let mut set = FaultSet::new();
    for (&kind, &id) in kinds.iter().zip(ids) {
        let fault = if kind == 0 {
            Fault::Edge(EdgeId(id))
        } else {
            Fault::Vertex(VertexId(id))
        };
        set.insert(fault);
    }
    set
}

fn make_request(tag: u8, a: u32, b: u32, faults: FaultSet, batch: &[(u32, u32)]) -> Request {
    match tag {
        0 => Request::Hello {
            client_version: a as u16,
        },
        1 => Request::Dist {
            source: VertexId(a),
            target: VertexId(b),
            faults,
        },
        2 => Request::Path {
            source: VertexId(a),
            target: VertexId(b),
            faults,
        },
        3 => Request::BatchDist {
            source: VertexId(a),
            queries: batch
                .iter()
                .map(|&(t, e)| (VertexId(t), FaultSet::from(EdgeId(e))))
                .collect(),
        },
        4 => Request::Shutdown,
        5 => Request::Metrics {
            format: if a.is_multiple_of(2) {
                MetricsFormat::Prometheus
            } else {
                MetricsFormat::Json
            },
        },
        6 => Request::SlowQueries,
        7 => Request::DistMany {
            source: VertexId(a),
            targets: batch.iter().map(|&(t, _)| VertexId(t)).collect(),
            faults,
        },
        // The deadline wrapper around each query shape it may carry
        // (plain and batched distances, paths, one-to-many).
        _ => Request::Deadline {
            budget_ms: a,
            inner: Box::new(make_request(
                [1, 2, 3, 7][(b % 4) as usize],
                b,
                a,
                faults,
                batch,
            )),
        },
    }
}

fn make_response(tag: u8, a: u32, b: u32, path_len: usize, batch: &[(u32, u32)]) -> Response {
    match tag {
        0 => Response::HelloOk {
            version: a as u16,
            fingerprint: (a as u64) << 32 | b as u64,
            num_vertices: a,
            num_edges: b,
            sources: batch.iter().map(|&(s, _)| VertexId(s)).collect(),
        },
        1 => Response::Dist(Some(a)),
        2 => Response::Dist(None),
        3 => Response::Path(Some(WirePath {
            vertices: (0..path_len as u32 + 1).map(VertexId).collect(),
            edges: (0..path_len as u32).map(EdgeId).collect(),
        })),
        4 => Response::Path(None),
        5 => Response::BatchDist(
            batch
                .iter()
                .map(|&(d, flag)| (flag % 2 == 0).then_some(d))
                .collect(),
        ),
        6 => Response::ShuttingDown,
        7 => Response::Overloaded,
        8 => Response::DistMany(
            batch
                .iter()
                .map(|&(d, flag)| (flag % 2 == 1).then_some(d))
                .collect(),
        ),
        9 => Response::MetricsText(format!(
            "# HELP ftb_requests_total requests\n# TYPE ftb_requests_total counter\n\
             ftb_requests_total{{op=\"dist\"}} {a}\n"
        )),
        10 => Response::SlowQueries(
            batch
                .iter()
                .map(|&(t, e)| SlowQueryReport {
                    opcode: 0x02 + (e % 4) as u8,
                    source: VertexId(a),
                    targets: t,
                    faults: FaultSet::from(EdgeId(e)),
                    queue_nanos: (t as u64) << 8,
                    handle_nanos: (e as u64) << 16,
                    encode_nanos: t as u64 ^ e as u64,
                    tiers: [t as u64, e as u64, 0, 1, 2, 3],
                })
                .collect(),
        ),
        _ => Response::Error {
            code: ErrorCode::VertexOutOfRange as u16 + (a % 8) as u16,
            message: format!("synthetic error {b}"),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_reencode_byte_identically(
        tag in 0u8..9,
        a in 0u32..65536,
        b in 0u32..50_000,
        kinds in collection::vec(0u8..2, 0..6),
        ids in collection::vec(0u32..100_000, 0..6),
        batch in collection::vec((0u32..50_000, 0u32..100_000), 0..8),
    ) {
        let req = make_request(tag, a, b, make_faults(&kinds, &ids), &batch);
        let bytes = encode_request(&req);
        let decoded = decode_request(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &req);
        prop_assert_eq!(encode_request(&decoded), bytes);
    }

    #[test]
    fn responses_reencode_byte_identically(
        tag in 0u8..12,
        a in 0u32..65536,
        b in 0u32..50_000,
        path_len in 0usize..12,
        batch in collection::vec((0u32..50_000, 0u32..4), 0..8),
    ) {
        let resp = make_response(tag, a, b, path_len, &batch);
        let bytes = encode_response(&resp);
        let decoded = decode_response(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &resp);
        prop_assert_eq!(encode_response(&decoded), bytes);
    }

    #[test]
    fn every_strict_prefix_is_truncated(
        tag in 0u8..9,
        a in 0u32..65536,
        kinds in collection::vec(0u8..2, 0..6),
        ids in collection::vec(0u32..100_000, 0..6),
        cut_permille in 0u32..1000,
    ) {
        let req = make_request(tag, a, 17, make_faults(&kinds, &ids), &[(1, 2), (3, 4)]);
        let bytes = encode_request(&req);
        let cut = (bytes.len() as u64 * cut_permille as u64 / 1000) as usize;
        prop_assert!(cut < bytes.len());
        prop_assert_eq!(decode_request(&bytes[..cut]), Err(DecodeError::Truncated));
    }

    #[test]
    fn corrupt_and_garbage_bytes_never_panic(
        garbage in collection::vec(0u32..256, 0..64),
        tag in 0u8..12,
        a in 0u32..65536,
        flip_pos in 0u32..10_000,
        flip_bit in 0u8..8,
    ) {
        // Pure garbage: decoding must return, Ok or Err, without panicking.
        let bytes: Vec<u8> = garbage.iter().map(|&b| b as u8).collect();
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);

        // A single bit flip in a valid frame: same totality guarantee. The
        // result may legitimately be Ok (another valid frame) — the
        // property is only the absence of panics and of unbounded work.
        let resp = make_response(tag, a, 99, 3, &[(5, 1)]);
        let mut bytes = encode_response(&resp);
        let pos = flip_pos as usize % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        let _ = decode_response(&bytes);
    }
}
