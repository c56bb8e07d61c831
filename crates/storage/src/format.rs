//! The versioned binary snapshot format.
//!
//! A snapshot is one self-describing buffer holding a complete
//! [`NetworkState`] image plus the session history and the write-ahead-log
//! sequence number it is current to. All integers are **little-endian**;
//! `f64` is stored as the little-endian bytes of its IEEE-754 bit
//! pattern, so round trips are bit-exact (NaN payloads included).
//! Checksums are **CRC-64/XZ** (polynomial `0x42F0E1EBA9EA3693`
//! reflected, init/xorout `!0`).
//!
//! # On-disk layout
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------
//!      0     8  magic  "SMN1SNAP"
//!      8     4  version            u32   (= 1)
//!     12     8  applied_seq        u64   last WAL seq folded into this
//!                                        snapshot (0 = none)
//!     20     4  section_count      u32   (= 9 for version 1)
//!     24  28×n  offset table       n × { id u32, offset u64, len u64,
//!                                        crc u64 }  — offsets are
//!                                        absolute, sections contiguous
//!      …     8  header_crc         u64   CRC-64 of bytes [0, here)
//!      …     …  section payloads, in table order
//! ```
//!
//! # Sections (version 1)
//!
//! | id | name       | payload |
//! |----|------------|---------|
//! | 1  | catalog    | `u64 schema_count`, then per schema `str name`, `u64 attr_count`, per attribute `str name` — re-adding in order through `CatalogBuilder` reassigns identical dense ids |
//! | 2  | graph      | `u64 vertex_count`, `u64 edge_count`, per edge `u32 a, u32 b` in stored order |
//! | 3  | candidates | `u64 count`, per candidate `u32 a, u32 b, f64 confidence` in id order |
//! | 4  | index      | `u8 one_to_one, u8 cycle`, `u64 candidate_count`, per candidate `ids pair_conflicts`, `u64 triple_count`, per triple `3 × u32` — the conflict index's *primary* data only; every dense query structure (bit masks, flattened triple tables) is re-derived on load by `ConflictIndex::from_parts` |
//! | 5  | feedback   | `u64 len`, `ids approved`, `ids disapproved` (global feedback) |
//! | 6  | config     | sampler `u64 n_samples, u64 walk_steps, u64 n_min, u64 seed, u8 anneal, u64 chains`; `u8 has_sharding` (0 = `ShardingConfig::disabled()`), if set `u8 enabled, u64 exact_threshold, u64 exact_cap, u8 reserved` (written `1`, ignored on read); `f64 initial_entropy` |
//! | 7  | partition  | `u8 repr_tag` (0 = the whole partition, iff `enabled` is false; 1 = conflict components); if 1 `u64 component_count`, per component `ids members` (global ids, canonical order) — the whole partition's single list `0..n` is implied |
//! | 8  | stores     | `u64 store_count` (one per component; a structure-only image carries none), per store: *(tag 1 only)* shard feedback `u64 len, ids approved, ids disapproved` — the whole partition's shard feedback is the global feedback of section 5 — then the store state: sampler config (as in section 6), `u64 candidate_count, u8 exhausted, u64 pass_epoch`, `u64 instance_count`, per instance `ids members` (ascending), `u64 count_len`, per instance `u64 visits` — the distinct-sample multiset Ω\*; the transposed matrix, dedup map and weights are re-derived on load by re-recording in order, bit-identically |
//! | 9  | history    | `u64 count`, per assertion `u32 candidate, u8 approved` in integration order |
//!
//! `str` = `u64 byte_len` + UTF-8 bytes; `ids` = `u64 count` + `count ×
//! u32`.
//!
//! # Decode discipline
//!
//! [`decode_snapshot`] never panics on any byte string. Checks run in a
//! fixed order, each with its own typed [`StorageError`] variant: magic
//! ([`BadMagic`](StorageError::BadMagic)) → version
//! ([`VersionMismatch`](StorageError::VersionMismatch)) → header CRC →
//! per-section CRC ([`ChecksumMismatch`](StorageError::ChecksumMismatch))
//! → bounds ([`TruncatedRecord`](StorageError::TruncatedRecord)) →
//! semantic validity ([`Invalid`](StorageError::Invalid), mostly
//! delegated to `ProbabilisticNetwork::from_state`). Declared lengths
//! are checked against the remaining bytes *before* any allocation, so a
//! hostile length cannot force an out-of-memory.
//!
//! `encode(decode(b)) == b` for every buffer `b` this module produced:
//! the encoder is canonical (no padding, no map iteration order), which
//! is what the byte-identical re-save property in the test suites pins.

use crate::error::StorageError;
use smn_constraints::ConstraintConfig;
use smn_core::feedback::Assertion;
use smn_core::persist::{
    CandidateState, FeedbackState, NetworkState, SchemaState, ShardState, StoreState,
};
use smn_core::sampling::SamplerConfig;
use smn_core::shard::ShardingConfig;
use smn_schema::CandidateId;

/// Snapshot magic bytes.
pub const SNAP_MAGIC: [u8; 8] = *b"SMN1SNAP";
/// The snapshot format version this build writes and reads.
pub const SNAP_VERSION: u32 = 1;

const SEC_CATALOG: u32 = 1;
const SEC_GRAPH: u32 = 2;
const SEC_CANDIDATES: u32 = 3;
const SEC_INDEX: u32 = 4;
const SEC_FEEDBACK: u32 = 5;
const SEC_CONFIG: u32 = 6;
const SEC_PARTITION: u32 = 7;
const SEC_STORES: u32 = 8;
const SEC_HISTORY: u32 = 9;
const SECTION_IDS: [u32; 9] = [
    SEC_CATALOG,
    SEC_GRAPH,
    SEC_CANDIDATES,
    SEC_INDEX,
    SEC_FEEDBACK,
    SEC_CONFIG,
    SEC_PARTITION,
    SEC_STORES,
    SEC_HISTORY,
];

// ---------------------------------------------------------------- CRC-64

const fn crc64_table() -> [u64; 256] {
    // CRC-64/XZ: reflected polynomial of 0x42F0E1EBA9EA3693
    let poly = 0xC96C_5795_D787_0F42u64;
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ poly } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC64_TABLE: [u64; 256] = crc64_table();

/// CRC-64/XZ of a byte string.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc = CRC64_TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ------------------------------------------------------------- encoding
//
// The `put_*` writers and [`Dec`] are the one little-endian codec of the
// workspace: the snapshot, WAL and frame formats here and the
// distributed mode's routing payloads all encode through them.

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as the little-endian bytes of its bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Appends a boolean as one `0`/`1` byte.
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends an id list: `u64` count, then each id as `u32`.
pub fn put_ids(buf: &mut Vec<u8>, ids: &[u32]) {
    put_u64(buf, ids.len() as u64);
    for &id in ids {
        put_u32(buf, id);
    }
}

/// Appends an `f64` list: `u64` count, then each value's bit pattern.
pub fn put_f64s(buf: &mut Vec<u8>, values: &[f64]) {
    put_u64(buf, values.len() as u64);
    for &v in values {
        put_f64(buf, v);
    }
}

fn put_sampler(buf: &mut Vec<u8>, c: &SamplerConfig) {
    put_u64(buf, c.n_samples as u64);
    put_u64(buf, c.walk_steps as u64);
    put_u64(buf, c.n_min as u64);
    put_u64(buf, c.seed);
    put_bool(buf, c.anneal);
    put_u64(buf, c.chains as u64);
}

fn put_feedback(buf: &mut Vec<u8>, fb: &FeedbackState) {
    put_u64(buf, fb.len as u64);
    put_ids(buf, &fb.approved);
    put_ids(buf, &fb.disapproved);
}

fn put_store(buf: &mut Vec<u8>, s: &StoreState) {
    put_sampler(buf, &s.config);
    put_u64(buf, s.candidate_count as u64);
    put_bool(buf, s.exhausted);
    put_u64(buf, s.pass_epoch);
    put_u64(buf, s.samples.len() as u64);
    for instance in &s.samples {
        put_ids(buf, instance);
    }
    put_u64(buf, s.counts.len() as u64);
    for &c in &s.counts {
        put_u64(buf, c);
    }
}

// ------------------------------------------------------------- decoding

/// Bounds-checked little-endian reader. Every take is checked against
/// the remaining bytes and fails with
/// [`TruncatedRecord`](StorageError::TruncatedRecord) — the decoder
/// cannot be made to read out of bounds or panic.
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Starts reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// The number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], StorageError> {
        if self.remaining() < n {
            return Err(StorageError::TruncatedRecord {
                what,
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, StorageError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads one strict `0`/`1` boolean byte.
    pub fn bool(&mut self, what: &'static str) -> Result<bool, StorageError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(StorageError::Invalid(format!("{what}: boolean byte {v}"))),
        }
    }

    /// Reads one little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads one little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads one `f64` bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, StorageError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A `u64` length that must be addressable: it is checked against the
    /// remaining payload (`elem_size` bytes per element) *before* any
    /// allocation, so hostile lengths cannot balloon memory.
    pub fn len(&mut self, elem_size: usize, what: &'static str) -> Result<usize, StorageError> {
        let raw = self.u64(what)?;
        let n = usize::try_from(raw)
            .map_err(|_| StorageError::Invalid(format!("{what}: length {raw} overflows")))?;
        let needed = n.checked_mul(elem_size).ok_or_else(|| {
            StorageError::Invalid(format!("{what}: length {n} × {elem_size} overflows"))
        })?;
        if needed > self.remaining() {
            return Err(StorageError::TruncatedRecord {
                what,
                needed,
                available: self.remaining(),
            });
        }
        Ok(n)
    }

    fn str(&mut self, what: &'static str) -> Result<String, StorageError> {
        let n = self.len(1, what)?;
        String::from_utf8(self.take(n, what)?.to_vec())
            .map_err(|_| StorageError::Invalid(format!("{what}: non-UTF-8 name")))
    }

    /// Reads an id list written by [`put_ids`].
    pub fn ids(&mut self, what: &'static str) -> Result<Vec<u32>, StorageError> {
        let n = self.len(4, what)?;
        let bytes = self.take(4 * n, what)?;
        Ok(bytes.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().unwrap())).collect())
    }

    /// Reads an `f64` list written by [`put_f64s`].
    pub fn f64s(&mut self, what: &'static str) -> Result<Vec<f64>, StorageError> {
        let n = self.len(8, what)?;
        let bytes = self.take(8 * n, what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().unwrap())))
            .collect())
    }

    fn sampler(&mut self) -> Result<SamplerConfig, StorageError> {
        Ok(SamplerConfig {
            n_samples: self.u64("sampler n_samples")? as usize,
            walk_steps: self.u64("sampler walk_steps")? as usize,
            n_min: self.u64("sampler n_min")? as usize,
            seed: self.u64("sampler seed")?,
            anneal: self.bool("sampler anneal")?,
            chains: self.u64("sampler chains")? as usize,
        })
    }

    fn feedback(&mut self) -> Result<FeedbackState, StorageError> {
        Ok(FeedbackState {
            len: self.u64("feedback len")? as usize,
            approved: self.ids("feedback approved")?,
            disapproved: self.ids("feedback disapproved")?,
        })
    }

    fn store(&mut self) -> Result<StoreState, StorageError> {
        let config = self.sampler()?;
        let candidate_count = self.u64("store candidate_count")? as usize;
        let exhausted = self.bool("store exhausted")?;
        let pass_epoch = self.u64("store pass_epoch")?;
        let n = self.len(8, "store instances")?;
        let samples = (0..n).map(|_| self.ids("store instance")).collect::<Result<Vec<_>, _>>()?;
        let m = self.len(8, "store counts")?;
        let counts = (0..m).map(|_| self.u64("store count")).collect::<Result<Vec<_>, _>>()?;
        Ok(StoreState { config, candidate_count, exhausted, pass_epoch, samples, counts })
    }

    /// Fails unless every byte was read.
    pub fn finish(self, what: &'static str) -> Result<(), StorageError> {
        if self.remaining() != 0 {
            return Err(StorageError::Invalid(format!(
                "{what}: {} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------- shard state

/// Encodes one shard's plain-data state — its local feedback and sample
/// store, exactly the per-shard slice of snapshot section 8 — as a
/// standalone payload. This is the shard-shipment encoding of the
/// distributed mode: migrating a component between shard servers ships
/// these bytes inside a [`frame`](crate::frame).
pub fn encode_shard_state(s: &ShardState) -> Vec<u8> {
    let mut b = Vec::new();
    put_feedback(&mut b, &s.feedback);
    put_store(&mut b, &s.store);
    b
}

/// Decodes a standalone shard-state payload. Strict and panic-free on
/// any byte string; trailing bytes are an error.
pub fn decode_shard_state(bytes: &[u8]) -> Result<ShardState, StorageError> {
    let mut d = Dec::new(bytes);
    let feedback = d.feedback()?;
    let store = d.store()?;
    d.finish("shard state")?;
    Ok(ShardState { feedback, store })
}

// ------------------------------------------------------------- snapshot

/// Encodes a network state image, the session history and the WAL
/// sequence number it is current to into one snapshot buffer.
pub fn encode_snapshot(state: &NetworkState, history: &[Assertion], applied_seq: u64) -> Vec<u8> {
    let sections: [Vec<u8>; 9] = [
        enc_catalog(state),
        enc_graph(state),
        enc_candidates(state),
        enc_index(state),
        {
            let mut b = Vec::new();
            put_feedback(&mut b, &state.feedback);
            b
        },
        enc_config(state),
        enc_partition(state),
        enc_stores(state),
        enc_history(history),
    ];
    // 8 magic + 4 version + 8 applied_seq + 4 count + table + 8 header crc
    let header_len = 24 + SECTION_IDS.len() * 28 + 8;
    let mut buf = Vec::with_capacity(header_len + sections.iter().map(Vec::len).sum::<usize>());
    buf.extend_from_slice(&SNAP_MAGIC);
    put_u32(&mut buf, SNAP_VERSION);
    put_u64(&mut buf, applied_seq);
    put_u32(&mut buf, SECTION_IDS.len() as u32);
    let mut offset = header_len as u64;
    for (id, payload) in SECTION_IDS.iter().zip(&sections) {
        put_u32(&mut buf, *id);
        put_u64(&mut buf, offset);
        put_u64(&mut buf, payload.len() as u64);
        put_u64(&mut buf, crc64(payload));
        offset += payload.len() as u64;
    }
    let header_crc = crc64(&buf);
    put_u64(&mut buf, header_crc);
    debug_assert_eq!(buf.len(), header_len);
    for payload in &sections {
        buf.extend_from_slice(payload);
    }
    buf
}

fn enc_catalog(state: &NetworkState) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64(&mut b, state.schemas.len() as u64);
    for s in &state.schemas {
        put_str(&mut b, &s.name);
        put_u64(&mut b, s.attributes.len() as u64);
        for a in &s.attributes {
            put_str(&mut b, a);
        }
    }
    b
}

fn enc_graph(state: &NetworkState) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64(&mut b, state.graph_vertices as u64);
    put_u64(&mut b, state.graph_edges.len() as u64);
    for &(x, y) in &state.graph_edges {
        put_u32(&mut b, x);
        put_u32(&mut b, y);
    }
    b
}

fn enc_candidates(state: &NetworkState) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64(&mut b, state.candidates.len() as u64);
    for c in &state.candidates {
        put_u32(&mut b, c.a);
        put_u32(&mut b, c.b);
        put_f64(&mut b, c.confidence);
    }
    b
}

fn enc_index(state: &NetworkState) -> Vec<u8> {
    let mut b = Vec::new();
    put_bool(&mut b, state.constraints.one_to_one);
    put_bool(&mut b, state.constraints.cycle);
    put_u64(&mut b, state.pair_conflicts.len() as u64);
    for list in &state.pair_conflicts {
        put_ids(&mut b, list);
    }
    put_u64(&mut b, state.triples.len() as u64);
    for t in &state.triples {
        for &x in t {
            put_u32(&mut b, x);
        }
    }
    b
}

fn enc_config(state: &NetworkState) -> Vec<u8> {
    let mut b = Vec::new();
    put_sampler(&mut b, &state.sampler);
    let s = &state.sharding;
    if *s == ShardingConfig::disabled() {
        put_bool(&mut b, false);
    } else {
        put_bool(&mut b, true);
        put_bool(&mut b, s.enabled);
        put_u64(&mut b, s.exact_threshold as u64);
        put_u64(&mut b, s.exact_cap as u64);
        put_bool(&mut b, true); // reserved byte, ignored on read
    }
    put_f64(&mut b, state.initial_entropy);
    b
}

fn enc_partition(state: &NetworkState) -> Vec<u8> {
    let mut b = Vec::new();
    if state.sharding.enabled {
        b.push(1);
        put_u64(&mut b, state.members.len() as u64);
        for m in &state.members {
            put_ids(&mut b, m);
        }
    } else {
        b.push(0);
    }
    b
}

fn enc_stores(state: &NetworkState) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64(&mut b, state.shards.len() as u64);
    for s in &state.shards {
        if state.sharding.enabled {
            put_feedback(&mut b, &s.feedback);
        }
        put_store(&mut b, &s.store);
    }
    b
}

fn enc_history(history: &[Assertion]) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64(&mut b, history.len() as u64);
    for a in history {
        put_u32(&mut b, a.candidate.0);
        put_bool(&mut b, a.approved);
    }
    b
}

/// Decodes a snapshot buffer back to its state image, history and
/// applied WAL sequence number. Strict: any anomaly — wrong magic, an
/// unknown version, a failed checksum, bytes that end early, trailing
/// garbage inside a section — is a typed error; nothing panics.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(NetworkState, Vec<Assertion>, u64), StorageError> {
    let mut dec = Dec::new(bytes);
    let magic = dec.take(8, "snapshot magic")?;
    if magic != SNAP_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(StorageError::BadMagic { expected: SNAP_MAGIC, found });
    }
    let version = dec.u32("snapshot version")?;
    if version != SNAP_VERSION {
        return Err(StorageError::VersionMismatch { expected: SNAP_VERSION, found: version });
    }
    let applied_seq = dec.u64("snapshot applied_seq")?;
    let section_count = dec.u32("snapshot section count")? as usize;
    if section_count != SECTION_IDS.len() {
        return Err(StorageError::Invalid(format!(
            "version {SNAP_VERSION} snapshot must carry {} sections, found {section_count}",
            SECTION_IDS.len()
        )));
    }
    let mut table = Vec::with_capacity(section_count);
    for expected_id in SECTION_IDS {
        let id = dec.u32("section table id")?;
        if id != expected_id {
            return Err(StorageError::Invalid(format!(
                "section table: expected section {expected_id}, found {id}"
            )));
        }
        let offset = dec.u64("section table offset")? as usize;
        let len = dec.u64("section table len")? as usize;
        let crc = dec.u64("section table crc")?;
        table.push((offset, len, crc));
    }
    let header_end = 24 + section_count * 28;
    let stored_header_crc = dec.u64("header crc")?;
    let computed_header_crc = crc64(&bytes[..header_end]);
    if stored_header_crc != computed_header_crc {
        return Err(StorageError::ChecksumMismatch {
            what: "header",
            expected: stored_header_crc,
            found: computed_header_crc,
        });
    }
    let mut sections = Vec::with_capacity(section_count);
    for &(offset, len, crc) in &table {
        let end = offset.checked_add(len).ok_or_else(|| {
            StorageError::Invalid(format!("section bounds {offset}+{len} overflow"))
        })?;
        if end > bytes.len() {
            return Err(StorageError::TruncatedRecord {
                what: "section payload",
                needed: end,
                available: bytes.len(),
            });
        }
        let payload = &bytes[offset..end];
        let found = crc64(payload);
        if found != crc {
            return Err(StorageError::ChecksumMismatch { what: "section", expected: crc, found });
        }
        sections.push(payload);
    }

    let schemas = dec_catalog(sections[0])?;
    let (graph_vertices, graph_edges) = dec_graph(sections[1])?;
    let candidates = dec_candidates(sections[2])?;
    let (constraints, pair_conflicts, triples) = dec_index(sections[3])?;
    let feedback = {
        let mut d = Dec::new(sections[4]);
        let fb = d.feedback()?;
        d.finish("feedback section")?;
        fb
    };
    let (sampler, sharding, initial_entropy) = dec_config(sections[5])?;
    let partition = dec_partition(sections[6])?;
    if partition.is_some() != sharding.enabled {
        return Err(StorageError::Invalid(
            "partition tag disagrees with the sharding config".into(),
        ));
    }
    let (members, shards) = dec_stores(sections[7], partition, &feedback, candidates.len())?;
    let history = dec_history(sections[8])?;

    let state = NetworkState {
        schemas,
        graph_vertices,
        graph_edges,
        candidates,
        constraints,
        pair_conflicts,
        triples,
        feedback,
        sampler,
        sharding,
        initial_entropy,
        members,
        shards,
    };
    Ok((state, history, applied_seq))
}

fn dec_catalog(bytes: &[u8]) -> Result<Vec<SchemaState>, StorageError> {
    let mut d = Dec::new(bytes);
    let n = d.len(8, "catalog schemas")?;
    let mut schemas = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str("schema name")?;
        let m = d.len(8, "schema attributes")?;
        let attributes = (0..m).map(|_| d.str("attribute name")).collect::<Result<Vec<_>, _>>()?;
        schemas.push(SchemaState { name, attributes });
    }
    d.finish("catalog section")?;
    Ok(schemas)
}

fn dec_graph(bytes: &[u8]) -> Result<(usize, Vec<(u32, u32)>), StorageError> {
    let mut d = Dec::new(bytes);
    let vertices = d.u64("graph vertices")? as usize;
    let n = d.len(8, "graph edges")?;
    let mut edges = Vec::with_capacity(n);
    for _ in 0..n {
        edges.push((d.u32("edge endpoint")?, d.u32("edge endpoint")?));
    }
    d.finish("graph section")?;
    Ok((vertices, edges))
}

fn dec_candidates(bytes: &[u8]) -> Result<Vec<CandidateState>, StorageError> {
    let mut d = Dec::new(bytes);
    let n = d.len(16, "candidates")?;
    let mut candidates = Vec::with_capacity(n);
    for _ in 0..n {
        candidates.push(CandidateState {
            a: d.u32("candidate endpoint")?,
            b: d.u32("candidate endpoint")?,
            confidence: d.f64("candidate confidence")?,
        });
    }
    d.finish("candidates section")?;
    Ok(candidates)
}

type IndexParts = (ConstraintConfig, Vec<Vec<u32>>, Vec<[u32; 3]>);

fn dec_index(bytes: &[u8]) -> Result<IndexParts, StorageError> {
    let mut d = Dec::new(bytes);
    let config =
        ConstraintConfig { one_to_one: d.bool("index one_to_one")?, cycle: d.bool("index cycle")? };
    let n = d.len(8, "index posting lists")?;
    let pair_conflicts =
        (0..n).map(|_| d.ids("index posting list")).collect::<Result<Vec<_>, _>>()?;
    let t = d.len(12, "index triples")?;
    let mut triples = Vec::with_capacity(t);
    for _ in 0..t {
        triples.push([d.u32("index triple")?, d.u32("index triple")?, d.u32("index triple")?]);
    }
    d.finish("index section")?;
    Ok((config, pair_conflicts, triples))
}

type ConfigParts = (SamplerConfig, ShardingConfig, f64);

fn dec_config(bytes: &[u8]) -> Result<ConfigParts, StorageError> {
    let mut d = Dec::new(bytes);
    let sampler = d.sampler()?;
    let sharding = if d.bool("config has_sharding")? {
        let sharding = ShardingConfig {
            enabled: d.bool("sharding enabled")?,
            exact_threshold: d.u64("sharding exact_threshold")? as usize,
            exact_cap: d.u64("sharding exact_cap")? as usize,
        };
        d.bool("sharding reserved")?;
        sharding
    } else {
        ShardingConfig::disabled()
    };
    let initial_entropy = d.f64("config initial_entropy")?;
    d.finish("config section")?;
    Ok((sampler, sharding, initial_entropy))
}

fn dec_partition(bytes: &[u8]) -> Result<Option<Vec<Vec<u32>>>, StorageError> {
    let mut d = Dec::new(bytes);
    let tag = d.u8("partition tag")?;
    let partition = match tag {
        0 => None,
        1 => {
            let n = d.len(8, "partition components")?;
            Some((0..n).map(|_| d.ids("partition members")).collect::<Result<Vec<_>, _>>()?)
        }
        v => return Err(StorageError::Invalid(format!("partition tag {v}"))),
    };
    d.finish("partition section")?;
    Ok(partition)
}

/// Decodes the stores against the partition section: `None` is the whole
/// partition, whose single store (none in a structure-only image) owns
/// every candidate under the global `feedback`.
fn dec_stores(
    bytes: &[u8],
    partition: Option<Vec<Vec<u32>>>,
    feedback: &FeedbackState,
    candidate_count: usize,
) -> Result<(Vec<Vec<u32>>, Vec<ShardState>), StorageError> {
    let mut d = Dec::new(bytes);
    let n = d.len(1, "stores")?;
    let parts = match partition {
        None => {
            if n > 1 {
                return Err(StorageError::Invalid(format!(
                    "the whole partition carries at most one store, found {n}"
                )));
            }
            let shards = (0..n)
                .map(|_| Ok(ShardState { feedback: feedback.clone(), store: d.store()? }))
                .collect::<Result<Vec<_>, StorageError>>()?;
            let whole = (0..candidate_count).map(|c| c as u32).collect::<Vec<u32>>();
            (shards.iter().map(|_| whole.clone()).collect(), shards)
        }
        Some(members) => {
            if n != members.len() {
                return Err(StorageError::Invalid(format!(
                    "{} components but {n} shard stores",
                    members.len()
                )));
            }
            let shards = (0..n)
                .map(|_| Ok(ShardState { feedback: d.feedback()?, store: d.store()? }))
                .collect::<Result<Vec<_>, StorageError>>()?;
            (members, shards)
        }
    };
    d.finish("stores section")?;
    Ok(parts)
}

fn dec_history(bytes: &[u8]) -> Result<Vec<Assertion>, StorageError> {
    let mut d = Dec::new(bytes);
    let n = d.len(5, "history")?;
    let mut history = Vec::with_capacity(n);
    for _ in 0..n {
        history.push(Assertion {
            candidate: CandidateId(d.u32("history candidate")?),
            approved: d.bool("history approved")?,
        });
    }
    d.finish("history section")?;
    Ok(history)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_matches_the_xz_check_value() {
        // the standard check string for CRC-64/XZ
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn header_layout_constants_agree() {
        let state = NetworkState {
            schemas: vec![],
            graph_vertices: 0,
            graph_edges: vec![],
            candidates: vec![],
            constraints: ConstraintConfig::default(),
            pair_conflicts: vec![],
            triples: vec![],
            feedback: FeedbackState { len: 0, approved: vec![], disapproved: vec![] },
            sampler: SamplerConfig::default(),
            sharding: ShardingConfig::disabled(),
            initial_entropy: 0.0,
            members: vec![vec![]],
            shards: vec![ShardState {
                feedback: FeedbackState { len: 0, approved: vec![], disapproved: vec![] },
                store: StoreState {
                    config: SamplerConfig::default(),
                    candidate_count: 0,
                    exhausted: true,
                    pass_epoch: 0,
                    samples: vec![],
                    counts: vec![],
                },
            }],
        };
        let bytes = encode_snapshot(&state, &[], 42);
        let (decoded, history, seq) = decode_snapshot(&bytes).unwrap();
        assert_eq!(decoded, state);
        assert_eq!(history, vec![]);
        assert_eq!(seq, 42);
        assert_eq!(encode_snapshot(&decoded, &history, seq), bytes, "canonical encoder");
    }
}
