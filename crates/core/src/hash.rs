//! Content hashing for simulation requests and machine configurations.
//!
//! The serve daemon and the checkpoint journal both need a *stable*
//! identity for "the thing whose result this is": two requests that mean
//! the same simulation must collide, two that differ anywhere a result
//! depends on must not. Deriving `Hash` would tie the identity to Rust's
//! in-memory layout and hasher seed; instead, [`ConfigHash`] is an FNV-1a
//! digest of a *canonical serialized form* — the serde `Value` tree with
//! every object's keys sorted, rendered as compact JSON — so the hash is
//! independent of struct field order, process, platform and run.
//!
//! The canonical bytes are *streamed* into the digest: [`content_hash`]
//! hands the vendored JSON writer an FNV-1a sink, the writer sorts
//! references to each object's entries as it descends, and no canonical
//! tree or text is ever built. [`canonical_json`] materializes the same
//! bytes the slow way (clone, sort, render) for inspection, and is the
//! oracle the tests hold the streamed digest to: every `ConfigHash` is
//! `fnv1a(canonical_json(t))`, as it has been since the first journal.
//!
//! [`StudySpec`] is the canonical description of one servable simulation
//! request: kernel, class, Table 1 configuration, trial count, jitter,
//! schedule and the full [`MachineConfig`]. Its [`StudySpec::content_hash`]
//! keys the serve cache, the serve journal *and* (via the machine-config
//! digest folded into [`crate::journal::cell_key`]) the sweep journal.
//!
//! A [`ResolvedSpec`] derives each of its digests **at most once** and
//! keeps it: whoever holds on to a resolved request (the serve daemon's
//! line memo does, across requests) pays for the canonical form once per
//! fidelity, not once per lookup. That is sound only while the spec inside
//! it stays as [`StudySpec::resolve`] left it — see [`ResolvedSpec::spec`].

use std::sync::OnceLock;

use paxsim_machine::config::MachineConfig;
use paxsim_nas::{kernel_by_name, Class, KernelId};
use paxsim_omp::schedule::Schedule;
use serde::{Deserialize, Serialize, Value};

use crate::configs::{config_by_name, HwConfig};
use crate::error::{StudyError, StudyResult};
use crate::study::StudyOptions;

// ---------------------------------------------------------------------------
// FNV-1a and canonical JSON.
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a digest of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    h.update(bytes);
    h.0
}

/// A running FNV-1a digest that the JSON writer can write into.
struct Fnv1a(u64);

impl Fnv1a {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Recursively sort every object's keys. Arrays keep their order (element
/// order is meaningful); duplicate keys keep their relative order (the
/// serde stand-in never produces duplicates).
fn canonicalize_value(v: &Value) -> Value {
    match v {
        Value::Array(a) => Value::Array(a.iter().map(canonicalize_value).collect()),
        Value::Object(m) => {
            let mut entries: Vec<(String, Value)> = m
                .iter()
                .map(|(k, item)| (k.clone(), canonicalize_value(item)))
                .collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(entries)
        }
        other => other.clone(),
    }
}

/// The canonical text form hashed by [`content_hash`]: compact JSON of the
/// key-sorted value tree. Exposed so tests (and the cache's debug output)
/// can inspect exactly what was digested; [`content_hash`] digests these
/// bytes without building them.
pub fn canonical_json<T: Serialize>(t: &T) -> String {
    serde_json::to_string(&canonicalize_value(&t.to_value()))
        .expect("canonical value tree renders infallibly")
}

/// A stable content digest of any serializable configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigHash(pub u64);

impl std::fmt::Display for ConfigHash {
    /// 16 lowercase hex digits, the spelling used in cache keys and wire
    /// replies.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a digest of `t`'s canonical serialized form.
pub fn content_hash<T: Serialize>(t: &T) -> ConfigHash {
    hash_value(&t.to_value())
}

/// Stream `v`'s canonical bytes into FNV-1a.
fn hash_value(v: &Value) -> ConfigHash {
    let mut h = Fnv1a(FNV_OFFSET);
    serde_json::write_canonical(&mut h, v).expect("an FNV-1a sink never fails");
    ConfigHash(h.0)
}

// ---------------------------------------------------------------------------
// Fidelity: how an answer is produced, folded into the identity.
// ---------------------------------------------------------------------------

/// How a simulation answer is produced. Part of the request *identity*:
/// an analytically predicted answer and a cycle-engine answer for the
/// same spec are different results and must never alias in any cache or
/// journal, so non-default fidelities are folded into the content hash
/// by [`content_hash_with_fidelity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Full cycle-engine simulation (the default; wire-compatible with
    /// every pre-fidelity client and journal).
    #[default]
    Exact,
    /// Serve from the exact result cache when warm, fall back to the
    /// analytical predictor when cold. Shares the predicted key space.
    Fast,
    /// Analytical reuse-profile prediction only (microseconds, declared
    /// error bounds, sentinel-audited).
    Predicted,
}

impl Fidelity {
    /// Canonical wire spelling (`exact` / `fast` / `predicted`).
    pub fn wire(self) -> &'static str {
        match self {
            Fidelity::Exact => "exact",
            Fidelity::Fast => "fast",
            Fidelity::Predicted => "predicted",
        }
    }

    /// Parse a wire spelling, case-insensitive. `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        [Fidelity::Exact, Fidelity::Fast, Fidelity::Predicted]
            .into_iter()
            .find(|f| s.eq_ignore_ascii_case(f.wire()))
    }
}

impl std::fmt::Display for Fidelity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.wire())
    }
}

/// Content digest of `t` with the fidelity folded in.
///
/// [`Fidelity::Exact`] digests the unchanged canonical form — bit-for-bit
/// the same hash [`content_hash`] has always produced, so existing cache
/// keys, journals and wire `key` fields stay valid. Any other fidelity
/// grafts a `"fidelity"` entry into the value tree before
/// canonicalization, giving it a disjoint key space.
pub fn content_hash_with_fidelity<T: Serialize>(t: &T, fidelity: Fidelity) -> ConfigHash {
    if fidelity == Fidelity::Exact {
        return content_hash(t);
    }
    let mut v = t.to_value();
    if let Value::Object(entries) = &mut v {
        entries.push((
            "fidelity".to_string(),
            Value::String(fidelity.wire().to_string()),
        ));
    }
    hash_value(&v)
}

// ---------------------------------------------------------------------------
// StudySpec: the canonical simulation-request description.
// ---------------------------------------------------------------------------

/// Everything one servable simulation point depends on. String-typed
/// fields hold the *canonical* spellings (lowercase kernel, Table 1
/// config name, uppercase class tag, OpenMP clause text for the
/// schedule); [`StudySpec::resolve`] produces the typed pieces and
/// normalizes spelling, so specs that differ only in case or in a
/// config-name alias hash identically after resolution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudySpec {
    /// NAS kernel name (`ep`, `cg`, …).
    pub kernel: String,
    /// Problem class tag (`T`, `S`, `W`).
    pub class: String,
    /// Table 1 configuration name or architecture alias (`Serial`,
    /// `HT off -2-1`, `CMP`, …).
    pub config: String,
    /// Independent trials.
    pub trials: usize,
    /// Per-trial OS jitter amplitude in cycles.
    pub jitter: u64,
    /// Worksharing schedule clause (`static`, `dynamic,2`, …).
    pub schedule: String,
    /// The machine model (defaults to the paper's Paxville SMP).
    pub machine: MachineConfig,
}

impl StudySpec {
    /// A quick default spec: class T, one quiet trial, static schedule,
    /// paper machine.
    pub fn new(kernel: &str, config: &str) -> Self {
        Self {
            kernel: kernel.to_string(),
            class: "T".to_string(),
            config: config.to_string(),
            trials: 1,
            jitter: 0,
            schedule: "static".to_string(),
            machine: MachineConfig::paxville_smp(),
        }
    }

    pub fn with_class(mut self, class: &str) -> Self {
        self.class = class.to_string();
        self
    }

    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    pub fn with_jitter(mut self, jitter: u64) -> Self {
        self.jitter = jitter;
        self
    }

    /// Resolve and validate every field, returning the typed request.
    ///
    /// # Errors
    ///
    /// [`StudyError::BadSpec`] naming the offending field — the serve
    /// daemon maps this to a `bad-request` wire error instead of
    /// panicking on malformed client input.
    pub fn resolve(&self) -> StudyResult<ResolvedSpec> {
        let bad = |field: &'static str, detail: String| StudyError::BadSpec {
            field: field.to_string(),
            detail,
        };
        let kernel: KernelId = kernel_by_name(&self.kernel)
            .ok_or_else(|| bad("kernel", format!("unknown NAS benchmark `{}`", self.kernel)))?;
        let class = [Class::T, Class::S, Class::W]
            .into_iter()
            .find(|c| self.class.eq_ignore_ascii_case(c.tag()))
            .ok_or_else(|| {
                let other = self.class.to_ascii_uppercase();
                bad("class", format!("unknown class `{other}` (T, S or W)"))
            })?;
        let config = config_by_name(&self.config)
            .ok_or_else(|| bad("config", format!("unknown configuration `{}`", self.config)))?;
        if self.trials == 0 {
            return Err(bad("trials", "trial count must be >= 1".to_string()));
        }
        let schedule: Schedule = self.schedule.parse().map_err(|e| bad("schedule", e))?;
        let spec = StudySpec {
            kernel: kernel.name().to_string(),
            class: class.tag().to_string(),
            config: config.name.clone(),
            trials: self.trials,
            jitter: self.jitter,
            schedule: schedule.to_string(),
            machine: self.machine.clone(),
        };
        Ok(ResolvedSpec {
            kernel,
            class,
            config,
            schedule,
            spec,
            hashes: Default::default(),
        })
    }

    /// The stable content digest of this spec's canonical form. Call on
    /// the normalized spec inside [`ResolvedSpec`] so aliases collide.
    pub fn content_hash(&self) -> ConfigHash {
        content_hash(self)
    }

    /// The digest with `fidelity` folded in; `Exact` is identical to
    /// [`StudySpec::content_hash`].
    pub fn content_hash_with_fidelity(&self, fidelity: Fidelity) -> ConfigHash {
        content_hash_with_fidelity(self, fidelity)
    }
}

/// A validated [`StudySpec`] with its typed pieces and normalized
/// spelling.
#[derive(Debug, Clone)]
pub struct ResolvedSpec {
    pub kernel: KernelId,
    pub class: Class,
    pub config: HwConfig,
    pub schedule: Schedule,
    /// The spec with every field in canonical spelling: what the digests
    /// below are digests *of*. **Must not be mutated after `resolve`** —
    /// a digest already derived would go on keying the old spec. Nothing
    /// does; to ask about a different spec, build it and resolve it
    /// ([`ResolvedSpec::serial_variant`] is the pattern).
    pub spec: StudySpec,
    /// `spec`'s digest under each [`Fidelity`] (indexed by discriminant),
    /// derived on first use.
    hashes: [OnceLock<ConfigHash>; 3],
}

impl ResolvedSpec {
    /// Cache/journal key of this request.
    pub fn content_hash(&self) -> ConfigHash {
        self.content_hash_with_fidelity(Fidelity::Exact)
    }

    /// Cache/journal key with `fidelity` folded in; `Exact` is identical
    /// to [`ResolvedSpec::content_hash`]. The canonical form is digested on
    /// the first call per fidelity and remembered; a debug build re-derives
    /// it on every call and holds the remembered value to it.
    pub fn content_hash_with_fidelity(&self, fidelity: Fidelity) -> ConfigHash {
        let derive = || self.spec.content_hash_with_fidelity(fidelity);
        let cached = *self.hashes[fidelity as usize].get_or_init(derive);
        debug_assert_eq!(cached, derive(), "`spec` was mutated after `resolve`");
        cached
    }

    /// The trace this spec replays, as the shared store keys it.
    pub fn trace_key(&self) -> crate::store::TraceKey {
        crate::store::TraceKey {
            kernel: self.kernel,
            class: self.class,
            nthreads: self.config.threads,
            schedule: self.schedule,
        }
    }

    /// Study options equivalent to this spec (single-benchmark).
    pub fn options(&self) -> StudyOptions {
        StudyOptions {
            class: self.class,
            trials: self.spec.trials,
            jitter_cycles: self.spec.jitter,
            schedule: self.schedule,
            benchmarks: vec![self.kernel],
            machine: self.spec.machine.clone(),
        }
    }

    /// The same request against the serial baseline configuration — the
    /// speedup denominator's cache entry.
    pub fn serial_variant(&self) -> StudySpec {
        let mut s = self.spec.clone();
        s.config = crate::configs::serial().name;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Published FNV-1a 64-bit check values.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    /// The digests below were recorded from the commit before the hash
    /// was streamed. They key every shard journal, sweep journal and
    /// wire `hash` field in existence: a change here orphans them all.
    #[test]
    fn golden_digests_are_pinned() {
        let ep = StudySpec::new("ep", "CMP").resolve().unwrap();
        let mut cg = StudySpec::new("cg", "CMT")
            .with_class("S")
            .with_trials(3)
            .with_jitter(2_000);
        cg.schedule = "dynamic,2".into();
        let cg = cg.resolve().unwrap();
        let mut l3 = StudySpec::new("ep", "CMP");
        l3.machine = MachineConfig::broadwell_l3(); // quad-core + shared L3
        let l3 = l3.resolve().unwrap();
        let mut tune = crate::tune::TuneRequest::new("ep");
        tune.configs = vec!["CMP".into(), "CMT".into()];
        tune.schedules = vec!["static".into(), "dynamic,2".into()];
        tune.budget = 16;
        let tune = tune.plan().unwrap();
        let predicted = |r: &ResolvedSpec| r.content_hash_with_fidelity(Fidelity::Predicted);
        let pinned = [
            ("ep/CMP", ep.content_hash(), "8512da92a025d7d2"),
            (
                "cg/CMT S dynamic,2 x3 j2000",
                cg.content_hash(),
                "e37b0eea5cacc4b7",
            ),
            ("ep/CMP predicted", predicted(&ep), "8740b17555c02eaa"),
            ("cg/CMT … predicted", predicted(&cg), "3d9d67a0e8fd2e41"),
            (
                "ep/CMP fast",
                ep.content_hash_with_fidelity(Fidelity::Fast),
                "b13d1c6411badba0",
            ),
            (
                "ep/CMP on quad-core + L3",
                l3.content_hash(),
                "a482d1993873d190",
            ),
            (
                "quad-core + L3 machine",
                content_hash(&l3.spec.machine),
                "447eb88db8c86bec",
            ),
            (
                "tune ep 2x2 budget 16",
                tune.content_hash(),
                "b46a05fbcb77400a",
            ),
        ];
        for (what, got, want) in pinned {
            assert_eq!(got.to_string(), want, "{what}");
        }
    }

    /// Arbitrary `Value` trees, biased toward what could make a streamed
    /// writer and a materialized one disagree: keys and strings full of
    /// quotes, backslashes, control and multi-byte characters, duplicate
    /// keys, non-finite floats, both integer lanes, empty containers.
    struct AnyValue {
        depth: u32,
    }

    impl proptest::strategy::Strategy for AnyValue {
        type Value = Value;

        fn generate(&self, rng: &mut proptest::rng::Rng) -> Value {
            const PIECES: [&str; 12] = [
                "a", "b", "\"", "\\", "\n", "\u{1}", "\u{1f}", "\t", "é", "日本", "😀", " ",
            ];
            const FLOATS: [f64; 8] = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                2.8,
                1e300,
                5e-324,
                -136.85,
            ];
            let text = |rng: &mut proptest::rng::Rng| -> String {
                (0..rng.below(4))
                    .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
                    .collect()
            };
            let deeper = AnyValue {
                depth: self.depth.saturating_sub(1),
            };
            let leaves = if self.depth == 0 { 6 } else { 8 };
            match rng.below(leaves) {
                0 => Value::Null,
                1 => Value::Bool(rng.bool()),
                2 => Value::UInt(rng.next_u64() >> rng.below(64)),
                3 => Value::Int((rng.next_u64() >> rng.below(64)) as i64),
                4 if rng.bool() => Value::Float(FLOATS[rng.below(FLOATS.len() as u64) as usize]),
                4 => Value::Float(f64::from_bits(rng.next_u64())),
                5 => Value::String(text(rng)),
                6 => Value::Array((0..rng.below(4)).map(|_| deeper.generate(rng)).collect()),
                _ => Value::Object(
                    (0..rng.below(6))
                        .map(|_| (text(rng), deeper.generate(rng)))
                        .collect(),
                ),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(2_000))]

        /// The streamed digest is the digest of the materialized
        /// canonical text, for any tree and under either fidelity graft.
        #[test]
        fn streamed_hash_equals_hash_of_canonical_json(v in AnyValue { depth: 4 }) {
            assert_eq!(
                content_hash(&v).0,
                fnv1a(canonical_json(&v).as_bytes()),
                "{}",
                canonical_json(&v)
            );
            let mut grafted = v.clone();
            if let Value::Object(entries) = &mut grafted {
                entries.push(("fidelity".into(), Value::String("predicted".into())));
            }
            assert_eq!(
                content_hash_with_fidelity(&v, Fidelity::Predicted).0,
                fnv1a(canonical_json(&grafted).as_bytes())
            );
        }
    }

    #[test]
    fn hash_is_field_order_stable() {
        // Two object trees with the same content in different key order
        // must digest identically: the canonical form sorts keys, so a
        // struct-field reorder (or a client emitting JSON keys in any
        // order) cannot change the identity of a request.
        let a = Value::Object(vec![
            ("x".into(), Value::UInt(1)),
            ("y".into(), Value::String("s".into())),
            (
                "z".into(),
                Value::Object(vec![
                    ("p".into(), Value::Bool(true)),
                    ("q".into(), Value::Float(2.5)),
                ]),
            ),
        ]);
        let b = Value::Object(vec![
            (
                "z".into(),
                Value::Object(vec![
                    ("q".into(), Value::Float(2.5)),
                    ("p".into(), Value::Bool(true)),
                ]),
            ),
            ("y".into(), Value::String("s".into())),
            ("x".into(), Value::UInt(1)),
        ]);
        assert_eq!(content_hash(&a), content_hash(&b));
        assert_eq!(canonical_json(&a), canonical_json(&b));
        // Array order, by contrast, is meaningful.
        let c = Value::Array(vec![Value::UInt(1), Value::UInt(2)]);
        let d = Value::Array(vec![Value::UInt(2), Value::UInt(1)]);
        assert_ne!(content_hash(&c), content_hash(&d));
    }

    #[test]
    fn hash_is_default_value_stable() {
        // A freshly built spec and one spelled out field-by-field with the
        // same defaults are the same request.
        let a = StudySpec::new("ep", "CMP");
        let b = StudySpec {
            kernel: "ep".into(),
            class: "T".into(),
            config: "CMP".into(),
            trials: 1,
            jitter: 0,
            schedule: "static".into(),
            machine: MachineConfig::paxville_smp(),
        };
        assert_eq!(a.content_hash(), b.content_hash());
        // And the builder's no-op application changes nothing.
        let c = StudySpec::new("ep", "CMP")
            .with_class("T")
            .with_trials(1)
            .with_jitter(0);
        assert_eq!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn resolution_normalizes_aliases() {
        // `CMP` (arch alias, any case) and `HT off -2-1` (paper name)
        // resolve to the same canonical spec, hence the same hash.
        let a = StudySpec::new("EP", "cmp").resolve().unwrap();
        let b = StudySpec::new("ep", "HT off -2-1").resolve().unwrap();
        assert_eq!(a.spec.config, "HT off -2-1");
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.kernel, KernelId::Ep);
        assert_eq!(a.class, Class::T);
    }

    #[test]
    fn every_result_relevant_field_separates_hashes() {
        let base = StudySpec::new("ep", "CMP").resolve().unwrap();
        let variants = [
            StudySpec::new("is", "CMP"),
            StudySpec::new("ep", "CMT"),
            StudySpec::new("ep", "CMP").with_class("S"),
            StudySpec::new("ep", "CMP").with_trials(3),
            StudySpec::new("ep", "CMP").with_jitter(2_000),
        ];
        for v in variants {
            let r = v.resolve().unwrap();
            assert_ne!(base.content_hash(), r.content_hash(), "{:?}", r.spec);
        }
        // Machine-model perturbations separate too.
        let mut m = StudySpec::new("ep", "CMP");
        m.machine.l2_lat += 1;
        assert_ne!(
            base.content_hash(),
            m.resolve().unwrap().content_hash(),
            "machine config must be part of the identity"
        );
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        let field = |s: &StudySpec| match s.resolve().unwrap_err() {
            StudyError::BadSpec { field, .. } => field,
            e => panic!("unexpected error {e}"),
        };
        assert_eq!(field(&StudySpec::new("bogus", "CMP")), "kernel");
        assert_eq!(field(&StudySpec::new("ep", "bogus")), "config");
        assert_eq!(field(&StudySpec::new("ep", "CMP").with_class("Q")), "class");
        assert_eq!(field(&StudySpec::new("ep", "CMP").with_trials(0)), "trials");
        let mut s = StudySpec::new("ep", "CMP");
        s.schedule = "fair,3".into();
        assert_eq!(field(&s), "schedule");
    }

    #[test]
    fn fidelity_separates_keys_and_both_survive_journal_replay() {
        use crate::journal::{Journal, SideRecord};
        use paxsim_machine::counters::Counters;
        use paxsim_perfmon::stats::Summary;

        // Wire spellings round-trip and the default is exact.
        assert_eq!(Fidelity::default(), Fidelity::Exact);
        for f in [Fidelity::Exact, Fidelity::Fast, Fidelity::Predicted] {
            assert_eq!(Fidelity::parse(f.wire()), Some(f));
            assert_eq!(Fidelity::parse(&f.wire().to_ascii_uppercase()), Some(f));
        }
        assert_eq!(Fidelity::parse("approximate"), None);

        // The same spec under different fidelities must never alias —
        // a predicted answer silently served as exact would be a
        // correctness bug — while `Exact` keeps the legacy digest so
        // every pre-fidelity cache key and journal stays valid.
        let r = StudySpec::new("ep", "CMP").resolve().unwrap();
        let exact = r.content_hash_with_fidelity(Fidelity::Exact);
        let fast = r.content_hash_with_fidelity(Fidelity::Fast);
        let predicted = r.content_hash_with_fidelity(Fidelity::Predicted);
        assert_eq!(exact, r.content_hash(), "exact must not perturb the key");
        assert_ne!(exact, predicted);
        assert_ne!(exact, fast);
        assert_ne!(fast, predicted, "fast and predicted answers differ too");

        // Journal replay: an exact and a predicted record for the same
        // spec coexist under their distinct keys and both survive a
        // reopen intact.
        let dir = std::env::temp_dir().join("paxsim_hash_fidelity_replay");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("results.jsonl");
        let side = |tag: u64| {
            vec![SideRecord {
                bench: "ep".into(),
                cycles: Summary::of(&[tag as f64]),
                speedup: Summary::of(&[1.0]),
                counters: Counters {
                    instructions: tag,
                    ..Counters::default()
                },
            }]
        };
        {
            let j = Journal::open(&path).unwrap();
            j.record(&format!("serve|{exact}"), side(1)).unwrap();
            j.record(&format!("serve|{predicted}"), side(2)).unwrap();
        }
        let j = Journal::open(&path).unwrap();
        let exact_rec = j.lookup(&format!("serve|{exact}")).unwrap();
        let predicted_rec = j.lookup(&format!("serve|{predicted}")).unwrap();
        assert_eq!(exact_rec.sides[0].counters.instructions, 1);
        assert_eq!(predicted_rec.sides[0].counters.instructions, 2);
    }

    #[test]
    fn remembered_digests_equal_the_derived_ones() {
        let mut l3 = StudySpec::new("cg", "cmt").with_class("s").with_trials(3);
        l3.machine = MachineConfig::broadwell_l3();
        for spec in [StudySpec::new("EP", "CMP"), l3] {
            let r = spec.resolve().unwrap();
            let all = [Fidelity::Exact, Fidelity::Fast, Fidelity::Predicted];
            // Asked twice, and again through a clone that carries the
            // remembered values: always what the spec itself derives.
            for f in all.into_iter().chain(all) {
                let want = r.spec.content_hash_with_fidelity(f);
                assert_eq!(r.content_hash_with_fidelity(f), want, "{f}");
                assert_eq!(r.clone().content_hash_with_fidelity(f), want, "{f}");
            }
            assert_eq!(r.content_hash(), r.spec.content_hash());
        }
    }

    #[test]
    fn serial_variant_shares_everything_but_config() {
        let r = StudySpec::new("ep", "CMP")
            .with_trials(2)
            .resolve()
            .unwrap();
        let s = r.serial_variant();
        assert_eq!(s.config, "Serial");
        assert_eq!(s.trials, 2);
        assert_ne!(r.content_hash(), s.content_hash());
    }
}
