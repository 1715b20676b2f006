use super::codec::{array_len, request_len, response_len};
use super::framing::{frame_header, MAX_RESERVE_AHEAD};
use super::*;
use alpha_matrix::gen;
use alpha_search::ByteWriter;
use std::io::Read;

fn sample_matrix() -> CsrMatrix {
    gen::powerlaw(32, 24, 3, 2.0, 5)
}

fn sample_requests() -> Vec<Request> {
    vec![
        Request::SubmitTune {
            matrix: sample_matrix(),
            device: "A100".to_string(),
        },
        Request::PollJob { job_id: 7 },
        Request::Spmv {
            job_id: 7,
            x: vec![1.0, -2.5, f32::MIN_POSITIVE],
        },
        Request::StoreStats,
        Request::Shutdown,
        Request::Metrics,
        Request::Trace,
        Request::SubmitTuneRef {
            digest: sample_matrix().digest(),
            rows: 32,
            cols: 24,
            nnz: sample_matrix().nnz() as u64,
            device: "A100".to_string(),
        },
    ]
}

fn sample_responses() -> Vec<Response> {
    vec![
        Response::Submitted { job_id: 3 },
        Response::Busy {
            queue_capacity: 16,
            retry_after_ms: 250,
        },
        Response::Status {
            job_id: 3,
            state: JobState::Queued,
        },
        Response::Status {
            job_id: 3,
            state: JobState::Running,
        },
        Response::Status {
            job_id: 3,
            state: JobState::Done(JobSummary {
                gflops: 123.5,
                operator_graph: "COMPRESS;[0]ROW_DIV(2)".to_string(),
                fresh_evaluations: 40,
                warm_started: true,
                wall_secs: 0.25,
                queue_wait_secs: 0.0625,
                kernel_shape: "rows[off:table,org:id,col:table]:avx2-nnz-x8+pf".to_string(),
            }),
        },
        Response::Status {
            job_id: 9,
            state: JobState::Failed {
                error: "matrix has no nonzeros".to_string(),
            },
        },
        Response::Status {
            job_id: 10,
            state: JobState::Unknown,
        },
        Response::SpmvResult {
            y: vec![0.0, 1.5, -3.25],
        },
        Response::Stats(ServerStats {
            store_memory_hits: 1,
            store_disk_loads: 2,
            store_cold_starts: 3,
            store_evictions: 4,
            jobs_submitted: 5,
            jobs_rejected: 6,
            jobs_completed: 7,
            jobs_failed: 8,
            jobs_gced: 9,
            queue_depth: 10,
            queue_capacity: 11,
            jobs_resident: 12,
            open_connections: 13,
        }),
        Response::ShuttingDown,
        Response::Error {
            kind: ErrorKind::UnknownJob,
            message: "job 99 was never issued".to_string(),
        },
        Response::NeedMatrix,
        Response::MetricsText {
            text: "# TYPE net_requests_total counter\nnet_requests_total 7\n".to_string(),
        },
        Response::MetricsText {
            text: String::new(),
        },
        Response::TraceSpans {
            server_now_us: 1_234_567,
            spans: vec![
                alpha_telemetry::SpanEvent {
                    name: "net.tune_exec".into(),
                    ts_us: 100,
                    dur_us: 2_500,
                    tid: 3,
                    arg: Some(("job".into(), 7)),
                    trace_id: 0xABCD,
                    ..Default::default()
                },
                alpha_telemetry::SpanEvent {
                    depth: 2,
                    ..Default::default()
                },
            ],
        },
        Response::TraceSpans {
            server_now_us: 0,
            spans: Vec::new(),
        },
    ]
}

#[test]
fn every_request_round_trips() {
    for request in sample_requests() {
        let payload = encode_request(&request);
        assert_eq!(decode_request(&payload).unwrap(), request);
    }
}

#[test]
fn every_response_round_trips() {
    for response in sample_responses() {
        let payload = encode_response(&response);
        assert_eq!(decode_response(&payload).unwrap(), response);
    }
}

#[test]
fn frames_round_trip_through_a_stream() {
    // Two frames back to back: a 4-byte payload, received through the
    // reader's scratch, then one of at least 16 bytes, received straight
    // into its own buffer.  Each read stops at its frame's end, so the
    // second frame's bytes are still unread after the first.
    let short = b"four".to_vec();
    let long = encode_request(&Request::Spmv {
        job_id: 42,
        x: vec![0.5; 8],
    });
    assert!(long.len() >= HEADER_LEN);
    let mut wire = Vec::new();
    write_frame(&mut wire, &short).unwrap();
    write_frame(&mut wire, &long).unwrap();
    assert_eq!(&wire[..4], &NET_MAGIC);
    let mut cursor = &wire[..];
    assert_eq!(read_frame(&mut cursor).unwrap(), short);
    assert_eq!(cursor.len(), HEADER_LEN + long.len(), "read past the frame");
    assert_eq!(read_frame(&mut cursor).unwrap(), long);
    // A read on the drained stream reports a clean close.
    assert!(matches!(read_frame(&mut cursor), Err(ProtoError::Closed)));
}

#[test]
fn a_read_timeout_before_a_frame_is_an_io_error() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let _peer = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (mut stream, _) = listener.accept().unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(20)))
        .unwrap();
    match read_frame(&mut stream) {
        Err(ProtoError::Io(e)) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "got {e:?}"
        ),
        other => panic!("expected the timeout as Io, got {other:?}"),
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut wire = Vec::new();
    write_frame(&mut wire, b"x").unwrap();
    wire[0] = b'X';
    assert!(matches!(
        read_frame(&mut &wire[..]),
        Err(ProtoError::BadMagic)
    ));
}

#[test]
fn oversized_frames_are_rejected_without_allocating() {
    let mut wire = Vec::new();
    write_frame(&mut wire, b"x").unwrap();
    wire[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    match read_frame(&mut &wire[..]) {
        Err(ProtoError::FrameTooLarge { len, max }) => {
            assert_eq!(len, u64::MAX);
            assert_eq!(max, MAX_FRAME_LEN);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    // The cap leaves room for real multi-million-nonzero submissions.
    const { assert!(MAX_FRAME_LEN >= 64 * 1024 * 1024) }
}

#[test]
fn truncation_anywhere_is_a_typed_error() {
    let payload = encode_request(&Request::SubmitTune {
        matrix: sample_matrix(),
        device: "A100".to_string(),
    });
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    for len in 1..wire.len() {
        match read_frame(&mut &wire[..len]) {
            Err(ProtoError::Truncated) => {}
            other => panic!("truncated at {len}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn payload_truncation_and_trailing_garbage_are_rejected() {
    let by_reference = sample_requests().pop().expect("ends with SubmitTuneRef");
    assert!(matches!(by_reference, Request::SubmitTuneRef { .. }));
    let spmv = Request::Spmv {
        job_id: 3,
        x: vec![1.0, 2.0, 3.0],
    };
    for payload in [encode_request(&spmv), encode_request(&by_reference)] {
        for len in 0..payload.len() {
            match decode_request(&payload[..len]) {
                Err(ProtoError::Truncated) | Err(ProtoError::Corrupt(_)) => {}
                other => panic!("cut at {len}: expected an error, got {other:?}"),
            }
        }
        let mut padded = payload.clone();
        padded.push(0);
        assert!(matches!(
            decode_request(&padded),
            Err(ProtoError::Corrupt(_))
        ));
    }
}

#[test]
fn element_counts_are_bounded_by_element_size_not_record_count() {
    // A count that fits the remaining bytes at 1 byte/record but not at
    // the real 4 bytes/element must be rejected BEFORE any allocation:
    // otherwise a near-cap frame could drive a 4x-amplified Vec.
    let mut w = ByteWriter::default();
    w.u8(2); // Spmv
    w.u64(1); // job id
    w.u64(100); // claims 100 elements...
    w.raw(&[0u8; 150]); // ...but only 150 bytes follow (need 400)
    match decode_request(&w.into_bytes()) {
        Err(ProtoError::Corrupt(msg)) => {
            assert!(msg.contains("exceeds"), "got: {msg}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn unknown_tags_are_rejected() {
    // The tags v8 retired (requests 5 and 6, responses 7 and 8) are unknown
    // like any other: the remaining messages kept their numbers.
    for tag in [5, 6, 250] {
        assert!(matches!(
            decode_request(&[tag]),
            Err(ProtoError::Corrupt(_))
        ));
    }
    for tag in [7, 8, 250] {
        assert!(matches!(
            decode_response(&[tag]),
            Err(ProtoError::Corrupt(_))
        ));
    }
}

#[test]
fn invalid_matrices_fail_csr_validation_at_decode() {
    let mut w = ByteWriter::default();
    w.u8(0); // SubmitTune
    w.u64(2); // rows
    w.u64(2); // cols
    w.u64(3); // row_offsets
    w.u32(0);
    w.u32(5); // offset beyond nnz
    w.u32(1);
    w.u64(1); // col_indices
    w.u32(0);
    w.u64(1); // values
    w.f32(1.0);
    w.str("A100");
    match decode_request(&w.into_bytes()) {
        Err(ProtoError::Corrupt(msg)) => assert!(msg.contains("CSR validation")),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn assembler_matches_read_frame_at_every_chunking() {
    // The incremental assembler must produce exactly what the blocking
    // reader produces, no matter how the bytes are sliced.
    let payloads: Vec<Vec<u8>> = sample_requests().iter().map(encode_request).collect();
    let mut wire = Vec::new();
    for payload in &payloads {
        write_frame(&mut wire, payload).unwrap();
    }
    for chunk_size in [1usize, 2, 3, 7, 16, 17, 64, wire.len()] {
        let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
        let mut out = Vec::new();
        for chunk in wire.chunks(chunk_size) {
            assembler.push(chunk, &mut out).unwrap();
        }
        assert_eq!(out, payloads, "chunk size {chunk_size} diverged");
        assert!(!assembler.mid_frame(), "no partial frame may remain");
    }
}

/// `payload` framed under an arbitrary version stamp.
fn frame_stamped(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, payload).unwrap();
    wire[4..8].copy_from_slice(&version.to_le_bytes());
    wire
}

#[test]
fn v4_frames_get_a_typed_version_mismatch() {
    // One wire version: the retired v4 to v7 stamps (and anything older or
    // newer) are rejected by both readers before a payload byte is trusted
    // — never decoded under the wrong layout.
    let payload = encode_request(&Request::StoreStats);
    for foreign in [0, 3, 4, 5, 6, 7, PROTOCOL_VERSION + 1] {
        let wire = frame_stamped(foreign, &payload);
        match read_frame(&mut &wire[..]) {
            Err(ProtoError::VersionMismatch { found, expected }) => {
                assert_eq!((found, expected), (foreign, PROTOCOL_VERSION));
            }
            other => panic!("version {foreign}: expected VersionMismatch, got {other:?}"),
        }
        let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
        let mut out = Vec::new();
        assert!(matches!(
            assembler.push(&wire, &mut out),
            Err(ProtoError::VersionMismatch { .. })
        ));
        assert!(out.is_empty());
    }
    let message = ProtoError::VersionMismatch {
        found: 7,
        expected: PROTOCOL_VERSION,
    }
    .to_string();
    assert!(message.contains("version 7") && message.contains("speaks 8"));
}

#[test]
fn traced_envelope_round_trips_and_foreign_versions_are_rejected() {
    let assemble = |wire: &[u8]| {
        let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
        let mut out = Vec::new();
        assembler.push(wire, &mut out).map(|()| out)
    };
    for request in sample_requests() {
        let traced = encode_request_traced(0x1122_3344_5566_7788, &request);
        let payloads = assemble(&frame_stamped(PROTOCOL_VERSION, &traced)).unwrap();
        let (trace_id, decoded) = decode_request_traced(&payloads[0]).unwrap();
        assert_eq!(trace_id, 0x1122_3344_5566_7788);
        assert_eq!(decoded, request);
        // The envelope is the trace id followed by the bare message.
        assert_eq!(&traced[..8], &0x1122_3344_5566_7788u64.to_le_bytes());
        assert_eq!(&traced[8..], &encode_request(&request)[..]);
    }
    // Foreign stamps are refused before a payload byte is decoded: see
    // `v4_frames_get_a_typed_version_mismatch`.
    // A payload too short for its trace id is truncation, not a panic.
    assert!(matches!(
        decode_request_traced(&[1, 2, 3]),
        Err(ProtoError::Truncated)
    ));
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn golden_frames_match_the_element_wise_encoding() {
    // Frames dumped from the pre-bulk, element-at-a-time encoder (header
    // and payload written separately; the version stamp moved to 8 with
    // the v8 bump): the one-buffer builders and the slice codec must put
    // the same bytes on the wire, or this is a protocol bump.
    let matrix = CsrMatrix::from_raw(
        2,
        3,
        vec![0, 2, 3],
        vec![0, 2, 1],
        vec![1.0, -2.5, f32::from_bits(0x7fc0_1234)],
    )
    .unwrap();
    let submit = unhex(
        "414e455408000000610000000000000008070605040302010002000000000000000300000000000000\
         0300000000000000000000000200000003000000030000000000000000000000020000000100000003\
         000000000000000000803f000020c03412c07f040000000000000041313030",
    );
    assert_eq!(
        submit_frame(0x0102_0304_0506_0708, &matrix, "A100").unwrap(),
        submit
    );
    let request = Request::SubmitTune {
        matrix,
        device: "A100".to_string(),
    };
    assert_eq!(
        request_frame(0x0102_0304_0506_0708, &request).unwrap(),
        submit
    );
    let mut written = Vec::new();
    write_frame(
        &mut written,
        &encode_request_traced(0x0102_0304_0506_0708, &request),
    )
    .unwrap();
    assert_eq!(written, submit);
    // (The matrix carries a NaN, so compare the decoded request by
    // re-encoding it rather than with `==`.)
    let (trace_id, decoded) = decode_request_traced(&submit[HEADER_LEN..]).unwrap();
    assert_eq!(request_frame(trace_id, &decoded).unwrap(), submit);

    let x = [1.0, -0.0, f32::MIN_POSITIVE / 2.0];
    let spmv = unhex(
        "414e45540800000025000000000000001100ffeeddccbbaa020700000000000000030000000000\
         00000000803f0000008000004000",
    );
    assert_eq!(spmv_frame(0xAABB_CCDD_EEFF_0011, 7, &x).unwrap(), spmv);
    assert_eq!(
        request_frame(
            0xAABB_CCDD_EEFF_0011,
            &Request::Spmv {
                job_id: 7,
                x: x.to_vec()
            }
        )
        .unwrap(),
        spmv
    );

    let result = unhex("414e45540800000011000000000000000302000000000000000000003f000080ff");
    assert_eq!(
        response_frame(&Response::SpmvResult {
            y: vec![0.5, f32::NEG_INFINITY]
        })
        .unwrap(),
        result
    );

    // The by-reference submit: the digest's 32 bytes as they are, then
    // rows, cols, nnz and the device.
    let by_reference = unhex(
        "414e4554080000004d00000000000000080706050403020109000102030405060708090a0b0c0d0e\
         0f101112131415161718191a1b1c1d1e1f02000000000000000300000000000000030000000000\
         0000040000000000000041313030",
    );
    let request = Request::SubmitTuneRef {
        digest: std::array::from_fn(|i| i as u8),
        rows: 2,
        cols: 3,
        nnz: 3,
        device: "A100".to_string(),
    };
    assert_eq!(
        request_frame(0x0102_0304_0506_0708, &request).unwrap(),
        by_reference
    );
    assert_eq!(
        response_frame(&Response::NeedMatrix).unwrap(),
        unhex("414e45540800000001000000000000000b")
    );

    // A span crosses the wire as its own fields only: a stage's lane stays
    // home, and the bytes are those of the owned-string span type that came
    // before.
    let spans = Response::TraceSpans {
        server_now_us: 1_234_567,
        spans: vec![
            alpha_telemetry::SpanEvent {
                name: "net.exec".into(),
                ts_us: 100,
                dur_us: 2_500,
                tid: 3,
                depth: 1,
                arg: Some(("job".into(), 7)),
                trace_id: 0xABCD,
                class: "spmv",
            },
            alpha_telemetry::SpanEvent {
                depth: 2,
                ..Default::default()
            },
        ],
    };
    assert_eq!(
        encode_response(&spans),
        unhex(
            "0a87d6120000000000020000000000000008000000000000006e65742e6578656364000000000000\
             00c4090000000000000300000000000000010000000103000000000000006a6f62070000000000\
             0000cdab000000000000000000000000000000000000000000000000000000000000000000000000\
             000002000000000000000000000000"
        )
    );
}

#[test]
fn size_hints_are_exact_for_array_messages() {
    // The builders allocate once: the hint of an array-carrying message
    // (or the by-reference submit) is its encoded length to the byte.
    let requests = [
        Request::SubmitTuneRef {
            digest: [0xFF; 32],
            rows: 1,
            cols: 2,
            nnz: 3,
            device: "TestGPU".to_string(),
        },
        Request::SubmitTune {
            matrix: sample_matrix(),
            device: "RTX2080".to_string(),
        },
        Request::Spmv {
            job_id: 1,
            x: vec![0.25; 1000],
        },
    ];
    for request in &requests {
        assert_eq!(encode_request(request).len(), request_len(request));
        let frame = request_frame(9, request).unwrap();
        assert_eq!(frame.len(), HEADER_LEN + 8 + request_len(request));
        assert_eq!(frame.capacity(), frame.len(), "no regrowth, no slack");
    }
    let response = Response::SpmvResult { y: vec![1.5; 333] };
    assert_eq!(encode_response(&response).len(), response_len(&response));
    for request in sample_requests() {
        assert!(encode_request(&request).len() <= request_len(&request));
    }
}

#[test]
fn array_payloads_round_trip_bit_exactly() {
    let odd = [
        f32::NAN,
        f32::from_bits(0x7fc0_1234), // quiet NaN with a payload
        f32::from_bits(0xff80_0001), // signalling NaN, sign set
        -0.0,
        0.0,
        f32::MIN_POSITIVE / 4.0, // denormal
        f32::from_bits(1),       // smallest denormal
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
    ];
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    match decode_request(&encode_request(&Request::Spmv {
        job_id: 3,
        x: odd.to_vec(),
    }))
    .unwrap()
    {
        Request::Spmv { x, .. } => assert_eq!(bits(&x), bits(&odd)),
        other => panic!("expected Spmv, got {other:?}"),
    }
    match decode_response(&encode_response(&Response::SpmvResult { y: odd.to_vec() })).unwrap() {
        Response::SpmvResult { y } => assert_eq!(bits(&y), bits(&odd)),
        other => panic!("expected SpmvResult, got {other:?}"),
    }
    let matrix = CsrMatrix::from_raw(1, 10, vec![0, 10], (0..10).collect(), odd.to_vec())
        .expect("NaN values are valid CSR");
    match decode_request(&encode_request(&Request::SubmitTune {
        matrix,
        device: "A100".to_string(),
    }))
    .unwrap()
    {
        Request::SubmitTune { matrix, .. } => assert_eq!(bits(matrix.values()), bits(&odd)),
        other => panic!("expected SubmitTune, got {other:?}"),
    }
}

#[test]
fn bulk_readers_reject_hostile_counts_before_allocating() {
    // Every array of both array-carrying requests, with its count
    // tampered: more elements than bytes remain, the largest count a
    // u64 holds, and a payload cut in the middle of the array.  All are
    // refused by the count bound — a typed error, no allocation.
    let spmv = encode_request(&Request::Spmv {
        job_id: 1,
        x: vec![1.0; 8],
    });
    let submit = encode_request(&Request::SubmitTune {
        matrix: sample_matrix(),
        device: "A100".to_string(),
    });
    let matrix = sample_matrix();
    let offsets_at = 1 + 16;
    let cols_at = offsets_at + array_len(matrix.row_offsets().len());
    let values_at = cols_at + array_len(matrix.nnz());
    for (payload, count_at, len) in [
        (&spmv, 9, 8),
        (&submit, offsets_at, matrix.row_offsets().len()),
        (&submit, cols_at, matrix.nnz()),
        (&submit, values_at, matrix.nnz()),
    ] {
        let claimed = u64::from_le_bytes(payload[count_at..count_at + 8].try_into().unwrap());
        assert_eq!(claimed, len as u64, "test offsets track the layout");
        let remaining = (payload.len() - count_at - 8) as u64;
        for hostile in [remaining / 4 + 1, u64::MAX, u64::MAX / 4 + 1] {
            let mut mutated = payload.clone();
            mutated[count_at..count_at + 8].copy_from_slice(&hostile.to_le_bytes());
            match decode_request(&mutated) {
                Err(ProtoError::Corrupt(msg)) => assert!(msg.contains("exceeds"), "got: {msg}"),
                other => panic!("count {hostile}: expected Corrupt, got {other:?}"),
            }
        }
        // Cut mid-array: the count now promises more than remains.
        for cut in [count_at + 8 + 1, count_at + 8 + 4 * len - 1] {
            match decode_request(&payload[..cut]) {
                Err(ProtoError::Corrupt(msg)) => assert!(msg.contains("exceeds"), "got: {msg}"),
                other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
            }
        }
        // Cut inside the count itself: plain truncation.
        assert!(matches!(
            decode_request(&payload[..count_at + 3]),
            Err(ProtoError::Truncated)
        ));
    }
}

/// A reader that hands out at most `step` bytes per call and reports
/// `WouldBlock` every other call — a nonblocking socket in miniature.
struct Trickle<'a> {
    data: &'a [u8],
    step: usize,
    starve: bool,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.starve = !self.starve;
        if self.starve && !self.data.is_empty() {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let n = self.step.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

#[test]
fn read_from_assembles_what_push_assembles() {
    // Small frames around one large enough to take the direct path
    // (payload >= the scratch size), at several socket granularities and
    // read limits: the owned-read entry point must produce exactly the
    // payloads `push` does, reserve no more than 1 MiB ahead, and report
    // end-of-stream as 0.
    let big = Request::Spmv {
        job_id: 9,
        x: (0..700_000).map(|i| i as f32).collect(),
    };
    let mut requests = sample_requests();
    requests.insert(2, big);
    let payloads: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| encode_request_traced(5, r))
        .collect();
    let mut wire = Vec::new();
    for payload in &payloads {
        write_frame(&mut wire, payload).unwrap();
    }
    for (step, limit) in [(1 << 30, 1 << 30), (100_000, 256 * 1024), (4_097, 10_000)] {
        let mut socket = Trickle {
            data: &wire,
            step,
            starve: false,
        };
        let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
        let mut scratch = vec![0u8; 4096];
        let mut out = Vec::new();
        loop {
            match assembler.read_from(&mut socket, &mut scratch, limit, &mut out) {
                Ok(0) => break,
                Ok(n) => {
                    assert!(n <= limit);
                    assert!(
                        assembler.payload.capacity()
                            <= assembler.payload.len().max(MAX_RESERVE_AHEAD) * 2,
                        "reserved too far ahead of receipt"
                    );
                }
                Err(ProtoError::Io(e)) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("step {step}: {e}"),
            }
        }
        assert_eq!(out, payloads, "step {step} limit {limit} diverged");
        assert!(!assembler.mid_frame());
    }
    // A bad header surfaces through the owned read as it does through push.
    let mut bad = wire.clone();
    bad[0] = b'X';
    let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
    assert!(matches!(
        assembler.read_from(&mut &bad[..], &mut [0u8; 64], 1 << 20, &mut Vec::new()),
        Err(ProtoError::BadMagic)
    ));
}

#[test]
fn a_claimed_huge_frame_costs_only_what_arrives() {
    // Header claims the cap; 10 bytes follow.  Neither reader may size
    // its buffer from the claim.
    let mut wire = frame_header(MAX_FRAME_LEN as usize).unwrap().to_vec();
    wire.extend_from_slice(&[7u8; 10]);
    let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
    let mut out = Vec::new();
    assembler.push(&wire, &mut out).unwrap();
    assert!(out.is_empty() && assembler.mid_frame());
    assert!(assembler.payload.capacity() <= MAX_RESERVE_AHEAD);
    assert!(matches!(
        read_frame(&mut &wire[..]),
        Err(ProtoError::Truncated)
    ));
}

#[test]
fn assembler_rejects_bad_headers_before_buffering_payload() {
    let mut wire = Vec::new();
    write_frame(&mut wire, b"x").unwrap();
    let mut out = Vec::new();

    let mut bad_magic = wire.clone();
    bad_magic[0] = b'X';
    let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
    assert!(matches!(
        assembler.push(&bad_magic, &mut out),
        Err(ProtoError::BadMagic)
    ));

    let mut bad_version = wire.clone();
    bad_version[4..8].copy_from_slice(&(PROTOCOL_VERSION + 9).to_le_bytes());
    let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
    assert!(matches!(
        assembler.push(&bad_version, &mut out),
        Err(ProtoError::VersionMismatch { .. })
    ));

    let mut oversize = wire.clone();
    oversize[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_secs(60));
    assert!(matches!(
        assembler.push(&oversize, &mut out),
        Err(ProtoError::FrameTooLarge { .. })
    ));
    assert!(out.is_empty(), "no frame may complete from a bad header");
}

#[test]
fn assembler_trips_the_slow_loris_deadline_on_partial_frames() {
    let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_millis(20));
    let mut out = Vec::new();
    assert!(!assembler.overdue(), "no frame started, no deadline");
    assembler.push(&NET_MAGIC[..2], &mut out).unwrap(); // half a magic
    assert!(assembler.mid_frame());
    std::thread::sleep(std::time::Duration::from_millis(40));
    assert!(assembler.overdue(), "a stalled partial frame must trip");

    // A frame that completes in time resets the clock entirely.
    let mut assembler = FrameAssembler::with_deadline(std::time::Duration::from_millis(50));
    let mut wire = Vec::new();
    write_frame(&mut wire, b"ok").unwrap();
    assembler.push(&wire, &mut out).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(60));
    assert!(!assembler.overdue(), "completed frames carry no deadline");
}

#[test]
fn seeded_fuzz_mutations_never_panic_the_decoders() {
    // A deterministic xorshift64* over every sample payload: flip bytes,
    // truncate, extend — the decoders must always return, never panic.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545F4914F6CDD1D);
        state
    };
    let mut payloads: Vec<Vec<u8>> = sample_requests().iter().map(encode_request).collect();
    payloads.extend(sample_responses().iter().map(encode_response));
    for payload in &payloads {
        for _ in 0..200 {
            let mut mutated = payload.clone();
            match next() % 4 {
                0 if !mutated.is_empty() => {
                    let at = (next() as usize) % mutated.len();
                    mutated[at] ^= (next() % 255 + 1) as u8;
                }
                1 => {
                    let keep = (next() as usize) % (mutated.len() + 1);
                    mutated.truncate(keep);
                }
                2 => {
                    mutated.push(next() as u8);
                }
                _ => {
                    if mutated.len() > 1 {
                        let at = (next() as usize) % mutated.len();
                        mutated.remove(at);
                    }
                }
            }
            // Every decoder must survive both kinds of payloads.
            let _ = decode_request(&mutated);
            let _ = decode_response(&mutated);
            let _ = decode_request_traced(&mutated);
        }
    }
}
