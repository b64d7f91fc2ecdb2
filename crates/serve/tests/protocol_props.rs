//! Protocol-hardening property tests: NDJSON framing and request parsing
//! over adversarial byte streams.
//!
//! The reactor feeds [`FrameBuffer`] whatever chunk boundaries the kernel
//! happens to return, so the framing layer's contract is *chunking
//! invariance*: the frame/error sequence a byte stream produces must not
//! depend on how it was sliced into reads. On top of that, malformed
//! input — garbage bytes, non-UTF-8, oversized lines, truncated JSON —
//! must come back as typed errors, never a panic and never a hang (every
//! property here drains the buffer to `None`, so an infinite loop would
//! time the test out rather than pass).
//!
//! And one property of the service behind the parser: however a valid
//! `simulate` line is spelled, and whether or not the line memo supplies
//! its resolved request, the reply is the bytes the renderer makes of the
//! record the cache holds under the independently derived key.

use std::sync::OnceLock;

use proptest::prelude::*;

use paxsim_core::hash::{Fidelity, ResolvedSpec, StudySpec};
use paxsim_core::sentinel::PredictAuditor;
use paxsim_serve::frame::{FrameBuffer, FrameError, MAX_FRAME_BYTES};
use paxsim_serve::protocol::{self, Request};
use paxsim_serve::{ServeConfig, Service};

const KERNELS: [&str; 8] = ["ep", "is", "cg", "mg", "ft", "bt", "sp", "lu"];
const CONFIGS: [&str; 5] = ["Serial", "CMP", "CMT", "HT off -4-2", "HT on -8-2"];

/// Drain every currently-complete frame.
fn drain(fb: &mut FrameBuffer) -> Vec<Result<String, FrameError>> {
    std::iter::from_fn(|| fb.next_frame()).collect()
}

/// One line of the adversarial stream: a valid request, ASCII garbage,
/// blank space, raw non-UTF-8 bytes, or an oversized run. Always
/// newline-terminated.
fn arb_line(limit: usize) -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Valid simulate request (well under any limit used here).
        ((0usize..KERNELS.len()), (0usize..CONFIGS.len())).prop_map(|(k, c)| {
            format!(
                r#"{{"op":"simulate","kernel":"{}","config":"{}"}}{}"#,
                KERNELS[k], CONFIGS[c], "\n"
            )
            .into_bytes()
        }),
        // ASCII garbage: parses as a frame, fails as a request.
        proptest::collection::vec(0x20u8..0x7f, 0..32).prop_map(|mut b| {
            b.push(b'\n');
            b
        }),
        // Whitespace-only (skipped by the framer).
        Just(b"   \n".to_vec()),
        Just(b"\n".to_vec()),
        // Raw bytes, possibly invalid UTF-8 (0x00..0xff, newline-free).
        proptest::collection::vec(0u8..=255, 1..24).prop_map(|mut b| {
            b.retain(|&x| x != b'\n');
            b.push(b'\n');
            b
        }),
        // Oversized: longer than the frame cap.
        ((limit + 1)..(3 * limit + 2)).prop_map(|n| {
            let mut b = vec![b'x'; n];
            b.push(b'\n');
            b
        }),
    ]
}

/// A stream of lines plus a random cut pattern for slicing it.
fn arb_stream(limit: usize) -> impl Strategy<Value = (Vec<u8>, Vec<usize>)> {
    (
        proptest::collection::vec(arb_line(limit), 1..8),
        proptest::collection::vec(1usize..40, 1..64),
    )
        .prop_map(|(lines, cuts)| (lines.concat(), cuts))
}

/// A valid `simulate` line in an arbitrary spelling, beside the request it
/// means: the canonical spec built field by field (never parsed from the
/// line) and the fidelity asked for.
struct AnySimulateLine;

impl Strategy for AnySimulateLine {
    type Value = (String, StudySpec, Fidelity);

    fn generate(&self, rng: &mut proptest::rng::Rng) -> Self::Value {
        fn pick<T: Copy>(rng: &mut proptest::rng::Rng, of: &[T]) -> T {
            of[rng.below(of.len() as u64) as usize]
        }
        let recase = |rng: &mut proptest::rng::Rng, s: &str| -> String {
            s.chars()
                .map(|c| match rng.bool() {
                    true => c.to_ascii_uppercase(),
                    false => c.to_ascii_lowercase(),
                })
                .collect()
        };
        let quoted = |s: String| format!("\"{s}\"");

        let kernel = pick(rng, &["ep", "is"]);
        // (a spelling, the Table 1 name it resolves to)
        let (config, canonical) = pick(
            rng,
            &[
                ("Serial", "Serial"),
                ("CMP", "HT off -2-1"),
                ("HT off -2-1", "HT off -2-1"),
            ],
        );
        let mut spec = StudySpec::new(kernel, canonical);
        let mut fields = vec![
            ("op", quoted("simulate".into())),
            ("kernel", quoted(recase(rng, kernel))),
            ("config", quoted(recase(rng, config))),
        ];
        // Defaults, omitted or spelled out.
        if rng.bool() {
            fields.push(("class", quoted(recase(rng, "T"))));
        }
        if rng.bool() {
            fields.push(("jitter", "0".into()));
        }
        if rng.bool() {
            let schedule = pick(rng, &["static", " static "]);
            fields.push(("schedule", quoted(recase(rng, schedule))));
        }
        match rng.below(3) {
            0 => {}
            1 => fields.push(("trials", "1".into())),
            _ => {
                spec.trials = 2;
                fields.push(("trials", "2".into()));
            }
        }
        // No part of the identity.
        if rng.bool() {
            fields.push(("deadline_ms", (60_000 + rng.below(1_000)).to_string()));
        }
        let fidelity = match rng.below(4) {
            0 => Fidelity::Exact, // by omission
            n => {
                let f = [Fidelity::Exact, Fidelity::Fast, Fidelity::Predicted][n as usize - 1];
                fields.push(("fidelity", quoted(recase(rng, f.wire()))));
                f
            }
        };
        // The paper machine spelled out in full is the default; one
        // perturbed latency is a different point.
        match rng.below(4) {
            0 => fields.push(("machine", serde_json::to_string(&spec.machine).unwrap())),
            1 => {
                spec.machine.l2_lat += 5;
                fields.push(("machine", serde_json::to_string(&spec.machine).unwrap()));
            }
            _ => {}
        }
        // Key order.
        for i in (1..fields.len()).rev() {
            fields.swap(i, rng.below(i as u64 + 1) as usize);
        }
        // Insignificant whitespace between tokens.
        let mut gap = || pick(rng, &["", "", " ", "\t", "  "]);
        let mut line = format!("{}{{", gap());
        for (i, (key, value)) in fields.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            line += &format!(
                "{comma}{}\"{key}\"{}:{}{value}{}",
                gap(),
                gap(),
                gap(),
                gap()
            );
        }
        line += &format!("}}{}", gap());
        (line, spec, fidelity)
    }
}

/// What the service must reply to a request for `point` at `fidelity`
/// right now — `hit_path.rs`'s oracle, with the tier chosen as the hit
/// ladder documents it: exact for `exact`, for a quarantined pair, and for
/// `fast` beside a cached exact answer; the predicted entry otherwise.
fn oracle(s: &Service, point: &ResolvedSpec, fidelity: Fidelity) -> String {
    let spec = &point.spec;
    let pair = PredictAuditor::pair_key(&spec.kernel, &spec.config, &spec.class);
    let exact = spec.content_hash();
    let exact_record = s.cache().peek(exact);
    let exact_tier = match fidelity {
        Fidelity::Exact => true,
        _ if s.predict_auditor().is_quarantined(pair) => true,
        Fidelity::Fast => exact_record.is_some(),
        Fidelity::Predicted => false,
    };
    if exact_tier {
        let record = exact_record.expect("exact entry present");
        return protocol::render_result(exact, spec, &record);
    }
    let hash = spec.content_hash_with_fidelity(Fidelity::Predicted);
    let record = s.cache().peek(hash).expect("predicted entry present");
    let bounds = paxsim_predict::ErrorBounds::default();
    protocol::render_result_predicted(hash, spec, &record, fidelity, &bounds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A rendered simulate request survives the frame layer and parses
    /// back to exactly the fields it was built from.
    #[test]
    fn valid_request_lines_round_trip(
        k in 0usize..KERNELS.len(),
        c in 0usize..CONFIGS.len(),
        trials in 1usize..5,
        jitter in 0u64..500,
        deadline in proptest::bool::ANY,
        fid in 0usize..4,
    ) {
        let mut line = format!(
            r#"{{"op":"simulate","kernel":"{}","config":"{}","trials":{trials},"jitter":{jitter}"#,
            KERNELS[k], CONFIGS[c]
        );
        if deadline {
            line.push_str(r#","deadline_ms":250"#);
        }
        // 3 = field absent (must default to exact); 0..3 = explicit tier.
        let fidelities = ["exact", "fast", "predicted"];
        if fid < 3 {
            line.push_str(&format!(r#","fidelity":"{}""#, fidelities[fid]));
        }
        line.push('}');

        let mut fb = FrameBuffer::default();
        fb.push(line.as_bytes());
        fb.push(b"\n");
        let framed = fb.next_frame().expect("complete frame").expect("clean frame");
        prop_assert_eq!(&framed, &line, "framing must not alter the line");
        prop_assert_eq!(fb.next_frame(), None);

        let Request::Simulate { spec, deadline_ms, fidelity } =
            protocol::parse_request(&framed).expect("valid request parses")
        else {
            panic!("simulate line parsed to the wrong op");
        };
        prop_assert_eq!(spec.kernel.as_str(), KERNELS[k]);
        prop_assert_eq!(spec.config.as_str(), CONFIGS[c]);
        prop_assert_eq!(spec.trials, trials);
        prop_assert_eq!(spec.jitter, jitter);
        prop_assert_eq!(deadline_ms, if deadline { Some(250) } else { None });
        let expect_fid = if fid < 3 { fidelities[fid] } else { "exact" };
        prop_assert_eq!(fidelity.wire(), expect_fid);
        // And the spec resolves: every kernel/config pair above is real.
        spec.resolve().expect("grid specs resolve");
    }

    /// The frame/error sequence is invariant under read-chunk slicing:
    /// byte-at-a-time, random cuts, and one-shot delivery all agree.
    #[test]
    fn frame_sequence_is_chunking_invariant(stream_and_cuts in arb_stream(64)) {
        let (stream, cuts) = stream_and_cuts;
        let limit = 64;
        // Reference: the whole stream in one push.
        let mut whole = FrameBuffer::new(limit);
        whole.push(&stream);
        let expect = drain(&mut whole);

        // Random cuts, draining after every chunk.
        let mut sliced = FrameBuffer::new(limit);
        let mut got = Vec::new();
        let mut pos = 0;
        let mut cut = cuts.iter().cycle();
        while pos < stream.len() {
            let n = (*cut.next().expect("cycle never ends")).min(stream.len() - pos);
            sliced.push(&stream[pos..pos + n]);
            pos += n;
            got.extend(drain(&mut sliced));
        }
        prop_assert_eq!(&got, &expect, "chunked delivery changed the frame sequence");

        // Byte-at-a-time.
        let mut single = FrameBuffer::new(limit);
        let mut got1 = Vec::new();
        for &b in &stream {
            single.push(&[b]);
            got1.extend(drain(&mut single));
        }
        prop_assert_eq!(&got1, &expect, "byte-at-a-time delivery changed the sequence");
    }

    /// Adversarial streams never panic the parse path, every framing
    /// failure is one of the two typed errors, and every parse failure
    /// maps into the protocol's closed error-category set.
    #[test]
    fn malformed_input_yields_typed_errors_never_panics(stream_and_cuts in arb_stream(64)) {
        let (stream, _) = stream_and_cuts;
        let mut fb = FrameBuffer::new(64);
        fb.push(&stream);
        for frame in drain(&mut fb) {
            match frame {
                Ok(line) => match protocol::parse_request(&line) {
                    // A lucky valid line from the generator — fine.
                    Ok(_) => {}
                    Err(e) => {
                        let category = protocol::error_category(&e);
                        prop_assert!(
                            ["bad-request", "internal"].contains(&category),
                            "unexpected category {category} for {line:?}"
                        );
                        // The reply renderer must also never panic on it.
                        let reply = protocol::render_error(category, &e.to_string());
                        prop_assert!(reply.contains("\"ok\":false"), "{reply}");
                    }
                },
                Err(e) => {
                    prop_assert!(matches!(
                        e,
                        FrameError::Oversized { limit: 64 } | FrameError::NotUtf8
                    ));
                    // detail() feeds the bad-request reply; must render.
                    let reply = protocol::render_error("bad-request", &e.detail());
                    prop_assert!(reply.contains("\"ok\":false"), "{reply}");
                }
            }
        }
        prop_assert_eq!(fb.next_frame(), None, "stream must drain, not loop");
    }

    /// An oversized line — however it is sliced — reports exactly one
    /// typed error and the connection resynchronizes on the next frame.
    #[test]
    fn oversized_lines_report_once_and_resync(
        n in 65usize..400,
        cut in 1usize..80,
    ) {
        let mut stream = vec![b'y'; n];
        stream.push(b'\n');
        stream.extend_from_slice(b"{\"op\":\"stats\"}\n");

        let mut fb = FrameBuffer::new(64);
        let mut got = Vec::new();
        for chunk in stream.chunks(cut) {
            fb.push(chunk);
            got.extend(drain(&mut fb));
        }
        prop_assert_eq!(
            got,
            vec![
                Err(FrameError::Oversized { limit: 64 }),
                Ok("{\"op\":\"stats\"}".to_string()),
            ]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Aliases, case, key order, whitespace, spelled-out defaults,
    /// `fidelity`, `deadline_ms`, a `machine` override: asked three times
    /// on each path, so through a memo that holds the line from its first
    /// hit on, every reply is the oracle's bytes and every call leaves the
    /// conservation law standing.
    #[test]
    fn any_spelling_of_a_simulate_line_hits_byte_identical_through_the_memo(
        case in AnySimulateLine,
    ) {
        static SERVICE: OnceLock<Service> = OnceLock::new();
        let _quiet = paxsim_core::faultinject::quiesced();
        let s = SERVICE.get_or_init(|| {
            let dir = std::env::temp_dir().join("paxsim_serve_protocol_props");
            let _ = std::fs::remove_dir_all(&dir);
            Service::open(ServeConfig { cache_dir: dir, ..ServeConfig::default() }).unwrap()
        });
        let conserved = || prop_assert_eq!(
            s.cache().hits() + s.cache().misses(),
            s.simulate_requests() + s.baseline_fetches(),
            "hits + misses == simulates + baseline_fetches"
        );
        let (line, spec, fidelity) = case;
        // Whatever this first ask is — a computation, a fresh prediction
        // with its audit, a hit — every later one is a hit.
        let first = s.handle_line(&line);
        prop_assert!(first.starts_with(r#"{"ok":true"#), "{line}: {first}");
        conserved();
        let want = oracle(s, &spec.resolve().expect("the spec is valid"), fidelity);
        let memo_hits = || paxsim_obs::counter("serve.resolve.memo_hits").get();
        let before = memo_hits();
        // Either path may be the one whose hit lets the line into the memo.
        let inline_first = line.len() % 2 == 0;
        for round in 0..6 {
            if (round < 3) == inline_first {
                prop_assert_eq!(s.try_hit(&line).as_deref(), Some(want.as_str()), "inline: {line}");
            } else {
                prop_assert_eq!(&s.handle_line(&line), &want, "worker path: {line}");
            }
            conserved();
        }
        prop_assert!(memo_hits() - before >= 5, "all but the first hit are memoized: {line}");
    }
}

/// The default cap itself: a line one byte over `MAX_FRAME_BYTES` is
/// refused by a default buffer, one at the cap passes. (Plain test — no
/// point generating megabyte strings 256 times.)
#[test]
fn default_cap_boundary() {
    let mut fb = FrameBuffer::default();
    let mut line = vec![b'z'; MAX_FRAME_BYTES];
    line.push(b'\n');
    fb.push(&line);
    assert!(matches!(fb.next_frame(), Some(Ok(_))), "at-cap line passes");

    let mut fb = FrameBuffer::default();
    let mut line = vec![b'z'; MAX_FRAME_BYTES + 1];
    line.push(b'\n');
    fb.push(&line);
    assert_eq!(
        fb.next_frame(),
        Some(Err(FrameError::Oversized {
            limit: MAX_FRAME_BYTES
        }))
    );
}
