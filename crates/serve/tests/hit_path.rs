//! The cache-hit path's contracts, held from outside the crate: every
//! reply a hit serves — from a stored line, from a freshly promoted disk
//! record, after a re-`put`, after a restart — is the bytes
//! `render_result` makes of the record the cache holds at that moment,
//! and journals written before the content hash was streamed still open
//! as hits.

use std::path::{Path, PathBuf};

use paxsim_core::hash::{ConfigHash, Fidelity, ResolvedSpec, StudySpec};
use paxsim_predict::ErrorBounds;
use paxsim_serve::{protocol, ServeConfig, Service};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("paxsim_serve_hit_path")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path, mem_cap: usize) -> Service {
    Service::open(ServeConfig {
        cache_dir: dir.to_path_buf(),
        mem_cap,
        // One shard, so a handful of puts is enough to evict.
        shards: 1,
        // Audit only a pair's first prediction: its later specs get a
        // predicted entry with no exact one beside it.
        predict_sample_every: 0,
        ..ServeConfig::default()
    })
    .unwrap()
}

fn conserved(s: &Service) {
    assert_eq!(
        s.cache().hits() + s.cache().misses(),
        s.simulate_requests() + s.baseline_fetches(),
        "hits + misses == simulates + baseline_fetches"
    );
}

/// What the exact tier must reply for `point` right now.
fn exact_now(s: &Service, point: &ResolvedSpec) -> String {
    let hash = point.content_hash();
    let record = s.cache().peek(hash).expect("entry present");
    protocol::render_result(hash, &point.spec, &record)
}

/// Both hit paths serve `want` for `line`, byte for byte.
fn serves(s: &Service, line: &str, want: &str) {
    assert_eq!(s.try_hit(line).as_deref(), Some(want), "inline: {line}");
    assert_eq!(s.handle_line(line), want, "worker path: {line}");
    conserved(s);
}

/// `fast` and `predicted` requests for `point` both hit its predicted
/// entry, and their replies differ in the `fidelity` value alone.
fn predicted_pair_serves(s: &Service, point: &ResolvedSpec, trials: usize) {
    let line = |fidelity: &str| {
        format!(
            r#"{{"op":"simulate","kernel":"ep","config":"CMP","trials":{trials},"fidelity":"{fidelity}"}}"#
        )
    };
    let hash = point.content_hash_with_fidelity(Fidelity::Predicted);
    let record = s.cache().peek(hash).expect("predicted entry present");
    let want = |fidelity| {
        protocol::render_result_predicted(
            hash,
            &point.spec,
            &record,
            fidelity,
            &ErrorBounds::default(),
        )
    };
    serves(s, &line("predicted"), &want(Fidelity::Predicted));
    serves(s, &line("fast"), &want(Fidelity::Fast));
    assert_eq!(
        want(Fidelity::Fast).replace(r#""fidelity":"fast""#, r#""fidelity":"predicted""#),
        want(Fidelity::Predicted)
    );
}

fn lifecycle(name: &str, mem_cap: usize) {
    const EP_CMP: &str = r#"{"op":"simulate","kernel":"ep","config":"CMP"}"#;
    let dir = tmp(name);
    let point = StudySpec::new("ep", "CMP").resolve().unwrap();
    let hash = point.content_hash();
    let s = open(&dir, mem_cap);
    let cache = s.cache();
    let tiered = mem_cap > 0;

    // Cold miss: computed, stored, rendered from the stored record.
    assert_eq!(s.try_hit(EP_CMP), None, "cold: the inline path passes");
    let cold = s.handle_line(EP_CMP);
    assert_eq!(cold, exact_now(&s, &point));
    assert_eq!(s.computed(), 2, "the point and its serial baseline");
    conserved(&s);

    // Inline hit (renders and stores the line), worker-path hit (copies it).
    let mem_hits = cache.mem_hits();
    serves(&s, EP_CMP, &cold);
    if tiered {
        assert_eq!(cache.mem_hits(), mem_hits + 2);
    }

    // Re-`put` of the same key with different sides — what a recompute
    // after a bit-flipped journal line does. The stored line must go with
    // the old entry.
    let mut sides = cache.peek(hash).unwrap().sides;
    sides[0].counters.instructions += 1;
    cache.put(hash, sides).unwrap();
    let reput = exact_now(&s, &point);
    assert_ne!(reput, cold, "the new record renders differently");
    serves(&s, EP_CMP, &reput);

    // LRU eviction: fill the shard with other keys. The entry, and its
    // line, leave memory; the journal still has the record.
    let filler = cache.peek(hash).unwrap().sides;
    for other in 1..=mem_cap.max(1) as u64 {
        cache.put(ConfigHash(other), filler.clone()).unwrap();
    }
    let (mem_hits, disk_hits) = (cache.mem_hits(), cache.disk_hits());
    // Disk hit and promotion, then a hit on the promoted entry.
    assert_eq!(s.try_hit(EP_CMP).as_deref(), Some(reput.as_str()));
    assert_eq!(
        cache.disk_hits(),
        disk_hits + 1,
        "evicted: served from disk"
    );
    assert_eq!(s.try_hit(EP_CMP).as_deref(), Some(reput.as_str()));
    if tiered {
        assert_eq!(
            cache.mem_hits(),
            mem_hits + 1,
            "promoted: served from memory"
        );
    }
    serves(&s, EP_CMP, &reput);

    // A predicted entry with no exact entry beside it (the pair's second
    // spec is not audited), hit as `predicted` and as `fast`.
    let twice = StudySpec::new("ep", "CMP")
        .with_trials(2)
        .resolve()
        .unwrap();
    s.handle_line(r#"{"op":"simulate","kernel":"ep","config":"CMP","fidelity":"predicted"}"#);
    s.handle_line(
        r#"{"op":"simulate","kernel":"ep","config":"CMP","trials":2,"fidelity":"predicted"}"#,
    );
    assert_eq!(s.predict_auditor().audits(), 1);
    assert!(cache.peek(twice.content_hash()).is_none());
    predicted_pair_serves(&s, &twice, 2);
    // With an exact entry beside the predicted one, `fast` serves exact.
    serves(
        &s,
        r#"{"op":"simulate","kernel":"ep","config":"CMP","fidelity":"fast"}"#,
        &reput,
    );
    if !tiered {
        assert_eq!(
            (cache.mem_hits(), cache.mem_len()),
            (0, 0),
            "nothing stored"
        );
    }
    drop(s);

    // Restart: memory is cold, every entry comes back from its journal
    // and serves the same bytes; nothing is computed.
    let s = open(&dir, mem_cap);
    assert_eq!(s.cache().mem_len(), 0);
    serves(&s, EP_CMP, &reput);
    predicted_pair_serves(&s, &twice, 2);
    assert_eq!(s.computed(), 0);
    assert_eq!(s.cache().misses(), 0);
}

#[test]
fn stored_line_lives_and_dies_with_its_entry() {
    let _quiet = paxsim_core::faultinject::quiesced();
    lifecycle("lifecycle", 2);
}

#[test]
fn no_memory_tier_stores_nothing_and_serves_the_same_bytes() {
    let _quiet = paxsim_core::faultinject::quiesced();
    lifecycle("lifecycle_no_mem", 0);
}

/// `tests/fixtures/parent_journal` holds the shard journals the daemon of
/// the commit before this hit path wrote (`--shards 4`) for the requests
/// in `requests.jsonl`, and its replies. Those journals must open under
/// today's hash and render to the same bytes: every request is a disk hit.
#[test]
fn journals_written_before_the_streamed_hash_serve_as_disk_hits() {
    let _quiet = paxsim_core::faultinject::quiesced();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_journal");
    let dir = tmp("parent_journal");
    std::fs::create_dir_all(&dir).unwrap();
    for file in std::fs::read_dir(&fixture).unwrap() {
        let name = file.unwrap().file_name();
        if name.to_string_lossy().starts_with("shard-") {
            std::fs::copy(fixture.join(&name), dir.join(&name)).unwrap();
        }
    }
    let s = Service::open(ServeConfig {
        cache_dir: dir,
        shards: 4,
        ..ServeConfig::default()
    })
    .unwrap();
    assert_eq!(s.cache().corrupt_dropped(), 0);
    let requests = std::fs::read_to_string(fixture.join("requests.jsonl")).unwrap();
    let replies = std::fs::read_to_string(fixture.join("replies.jsonl")).unwrap();
    assert_eq!(requests.lines().count(), 4);
    for (i, (request, reply)) in requests.lines().zip(replies.lines()).enumerate() {
        // Alternate the two paths; both must hit.
        let got = if i % 2 == 0 {
            s.try_hit(request).expect("a disk hit is served inline")
        } else {
            s.handle_line(request)
        };
        assert_eq!(got, reply, "{request}");
        assert_eq!(s.try_hit(request).as_deref(), Some(reply), "{request}");
    }
    assert_eq!(s.computed(), 0);
    assert_eq!((s.cache().disk_hits(), s.cache().misses()), (4, 0));
    conserved(&s);
}
