//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Every message is one line: a versioned envelope carrying a request or
//! response payload. Requests and responses are externally-tagged enums
//! (`{"Predict": {...}}`, a bare string for unit variants), which is
//! exactly what the vendored serde derive emits, so client and server
//! share one set of definitions and can never disagree on framing.
//!
//! Protocol v2 carries feature vectors as hex rather than decimal: the
//! `features` of a [`PredictRequest`] is one JSON string holding, for
//! each value in order, the 16 lowercase hex digits of
//! `f64::to_le_bytes()`. That is exact by construction (NaN payloads and
//! signed zeros included) and a few nanoseconds per value to encode or
//! decode, where shortest-roundtrip decimal costs tens. A frame of any
//! other version is answered [`ErrorCode::BadVersion`] (see
//! [`decode_request`]).
//!
//! Errors are typed ([`ErrorReply`]) and carry a `retryable` bit so
//! clients can distinguish "back off and try again" (a queue shed, a
//! bundle file mid-write) from "fix your request" (bad feature arity, an
//! incompatible bundle version).

use misam_sim::DesignId;
use misam_sparse::{gen, LazyMatrix};
use serde::{DeError, Deserialize, Reader, Serialize, Writer};
use std::io::{BufRead, Write};

/// Protocol version spoken by this build; envelopes carrying any other
/// version are rejected with [`ErrorCode::BadVersion`].
pub const PROTOCOL_VERSION: u32 = 2;

/// Hard cap on one wire line. Lines longer than this are rejected
/// ([`ErrorCode::Oversized`]) and the remainder discarded, so a hostile
/// or broken client cannot balloon server memory with one request.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Largest matrix dimension a [`GenSpec`] may request from the server.
pub const MAX_GEN_DIM: usize = 1 << 22;

/// One request line: protocol version, caller-chosen correlation id
/// (echoed in the response), and the operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Protocol version ([`PROTOCOL_VERSION`]).
    pub v: u32,
    /// Correlation id echoed back in the matching [`ResponseEnvelope`].
    pub id: u64,
    /// The operation to perform.
    pub req: Request,
}

/// The operations the server exposes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Predict the optimal design from an already-extracted feature
    /// vector (arity = `misam_features::FEATURE_NAMES.len()`); rides the
    /// micro-batched inference path.
    Predict(PredictRequest),
    /// Predict from a generator spec: the server synthesizes the
    /// operand, extracts features, then predicts.
    PredictGen(GenSpec),
    /// Many feature-vector predictions in one line; the whole group
    /// enters the micro-batcher as a unit.
    Batch(BatchRequest),
    /// Cycle-simulate a generated operand pair on one design (answers
    /// come from the process-global memoizing oracle).
    Simulate(SimulateRequest),
    /// Snapshot the server's metrics registry.
    Stats,
    /// Atomically hot-reload the model bundle from a file path on the
    /// server host.
    Reload(ReloadRequest),
    /// Gracefully stop the server: drain in-flight work, then exit.
    Shutdown,
}

/// Payload of [`Request::Predict`].
///
/// On the wire: `{"features": "<hex>"}`, the hex form described in the
/// module docs ([`write_hex_f64s`]); hence the hand-written wire impls.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRequest {
    /// Full feature vector in `FEATURE_NAMES` order.
    pub features: Vec<f64>,
}

impl Serialize for PredictRequest {
    fn write(&self, w: &mut Writer) {
        w.begin_map();
        w.key("features");
        w.ascii_str(|out| write_hex_f64s(out, &self.features));
        w.end_map();
    }
}

impl Deserialize for PredictRequest {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut features = None;
        r.begin_map()?;
        while let Some(i) = r.next_field(&["features"])? {
            if i == 0 && features.is_none() {
                let decoded = read_hex_f64s(r.str()?);
                features = Some(decoded.ok_or_else(|| {
                    r.error("features: expected 16 lowercase hex digits per value")
                })?);
            } else {
                r.skip()?;
            }
        }
        let features = features.ok_or_else(|| DeError::missing("features", "PredictRequest"))?;
        Ok(PredictRequest { features })
    }
}

/// Appends the v2 wire form of `values`: per value, in order, the 16
/// lowercase hex digits of its `to_le_bytes()`, looked up two digits
/// per byte and appended 16 at a time.
pub fn write_hex_f64s(out: &mut Vec<u8>, values: &[f64]) {
    out.reserve(16 * values.len());
    for v in values {
        let mut digits = [0u8; 16];
        for (pair, b) in digits.chunks_exact_mut(2).zip(v.to_le_bytes()) {
            pair.copy_from_slice(&HEX_PAIRS[usize::from(b)]);
        }
        out.extend_from_slice(&digits);
    }
}

/// The two lowercase hex digits of every byte value.
const HEX_PAIRS: [[u8; 2]; 256] = {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut table = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = [HEX[b >> 4], HEX[b & 15]];
        b += 1;
    }
    table
};

/// Parses [`write_hex_f64s`]'s form back, bit for bit. `None` when the
/// length is not a multiple of 16 or a byte is not a lowercase hex
/// digit (one spelling per value).
pub fn read_hex_f64s(text: &str) -> Option<Vec<f64>> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(16) {
        return None;
    }
    let mut bad = 0;
    let out = bytes
        .chunks_exact(16)
        .map(|digits| {
            let (lo, lo_bad) = hex_word(word(&digits[..8]));
            let (hi, hi_bad) = hex_word(word(&digits[8..]));
            bad |= lo_bad | hi_bad;
            f64::from_bits(u64::from(lo) | u64::from(hi) << 32)
        })
        .collect();
    (bad == 0).then_some(out)
}

// Word-at-a-time (SWAR) helpers of the framing and hex paths: eight
// bytes are loaded as one little-endian `u64`, so byte `i` of the input
// is byte `i` (bits `8i..8i+8`) of the word.

/// `0x01` in every byte.
const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
/// `0x80` in every byte.
const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);

/// The first eight bytes of `bytes` as a little-endian word.
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("a slice of eight bytes"))
}

/// Decodes eight hex digits (the word of [`word`]) into the four bytes
/// they spell, first byte lowest. The second value is nonzero unless
/// every digit is `0-9` or `a-f`; the first is then meaningless.
fn hex_word(w: u64) -> (u32, u64) {
    // High bit of each byte at or above `lo`. Exact while every byte is
    // below 0x80 (no carry crosses a byte); otherwise `bad` is set anyway.
    let at_least = |lo: u8| w.wrapping_add(ONES * u64::from(0x80 - lo)) & HIGH;
    let letter = at_least(b'a') & !at_least(b'g');
    let digit = at_least(b'0') & !at_least(b'9' + 1);
    let bad = (w & HIGH) | ((letter | digit) ^ HIGH);
    // '0'..'9' keep their low nibble; 'a'..'f' have low nibble 1..6.
    let nibbles = (w & (ONES * 0x0f)) + (letter >> 7) * 9;
    // Byte 2k becomes digit 2k's nibble over digit 2k+1's; then the
    // even bytes are packed down into four.
    let pairs = (nibbles << 4 | nibbles >> 8) & 0x00ff_00ff_00ff_00ff;
    let quads = (pairs | pairs >> 8) & 0x0000_ffff_0000_ffff;
    ((quads | quads >> 16) as u32, bad)
}

/// Offset of the first `\n` in `bytes`, eight bytes per step.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for chunk in words.by_ref() {
        let w = word(chunk) ^ (ONES * u64::from(b'\n'));
        // The lowest flagged byte is the first zero byte: a borrow only
        // flags bytes above a true zero.
        let hit = w.wrapping_sub(ONES) & !w & HIGH;
        if hit != 0 {
            return Some(at + hit.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    words.remainder().iter().position(|&b| b == b'\n').map(|p| at + p)
}

/// A received line as text. Valid UTF-8 (every well-formed frame) is
/// checked by std's word-at-a-time validator and copied once; only
/// invalid input takes the per-byte lossy repair, so both give the
/// same text.
fn line_text(bytes: &[u8]) -> String {
    match std::str::from_utf8(bytes) {
        Ok(text) => text.to_owned(),
        Err(_) => String::from_utf8_lossy(bytes).into_owned(),
    }
}

/// Payload of [`Request::Batch`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchRequest {
    /// The feature vectors to predict, in order.
    pub items: Vec<PredictRequest>,
}

/// A server-side synthetic workload: which generator family to run and
/// its shape. `dense_cols` describes the dense B operand (`A: rows x
/// cols` times `B: cols x dense_cols`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenSpec {
    /// Generator family, a name in [`gen::FAMILIES`]: `uniform`,
    /// `power-law`, `banded`, `pruned-dnn`, `regular`, or `circuit`.
    pub kind: String,
    /// Rows of A.
    pub rows: usize,
    /// Columns of A.
    pub cols: usize,
    /// Target density of A.
    pub density: f64,
    /// Generator seed (responses are deterministic per seed).
    pub seed: u64,
    /// Columns of the dense B operand.
    pub dense_cols: usize,
}

impl GenSpec {
    /// Validates the spec and runs A's structure stage through the
    /// shared family table ([`gen::FAMILIES`], the same mapping the
    /// `misam gen` CLI subcommand uses). No element is generated: the
    /// result answers shape, profile and feature queries in O(rows +
    /// cols), and a consumer that needs the CSR materializes it
    /// (explicitly, or through the `Deref` to [`misam_sparse::CsrMatrix`]).
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown family, an empty or oversized
    /// shape, or a density outside `(0, 1]`.
    pub fn build(&self) -> Result<LazyMatrix, String> {
        if self.rows == 0 || self.cols == 0 || self.dense_cols == 0 {
            return Err("rows, cols and dense_cols must be positive".into());
        }
        if self.rows > MAX_GEN_DIM || self.cols > MAX_GEN_DIM || self.dense_cols > MAX_GEN_DIM {
            return Err(format!("matrix dimension exceeds server cap {MAX_GEN_DIM}"));
        }
        if !(self.density > 0.0 && self.density <= 1.0) {
            return Err(format!("density {} outside (0, 1]", self.density));
        }
        gen::family_lazy(&self.kind, self.rows, self.cols, self.density, self.seed)
            .ok_or_else(|| format!("unknown generator kind '{}'", self.kind))
    }
}

/// Columns of the dense B operand when a [`SimulateRequest`] names an
/// on-disk matrix without giving `dense_cols`.
pub const DEFAULT_DENSE_COLS: usize = 512;

/// Payload of [`Request::Simulate`]: exactly one of `spec` (synthesize
/// the workload server-side) or `matrix` (simulate a named `.msab` slab
/// on the server host, mmapped — the operand never rides the wire or
/// gets copied into an owned matrix). Wire-compatible with the original
/// `{spec, design}` form: the optional keys default when absent and stay
/// off the wire when `None`, which is why this type implements the wire
/// traits by hand (the vendored derive has no field attributes).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateRequest {
    /// The workload to synthesize; omit when `matrix` is given.
    pub spec: Option<GenSpec>,
    /// Server-host path of an ingested `.msab` slab; omit when `spec`
    /// is given.
    pub matrix: Option<String>,
    /// Columns of the dense B operand on the `matrix` path (defaults to
    /// [`DEFAULT_DENSE_COLS`]); ignored on the `spec` path, where
    /// `spec.dense_cols` governs.
    pub dense_cols: Option<usize>,
    /// Design to simulate, `1..=4`.
    pub design: usize,
}

impl Serialize for SimulateRequest {
    fn write(&self, w: &mut Writer) {
        w.begin_map();
        if let Some(spec) = &self.spec {
            w.key("spec");
            spec.write(w);
        }
        if let Some(path) = &self.matrix {
            w.key("matrix");
            w.str(path);
        }
        if let Some(cols) = self.dense_cols {
            w.key("dense_cols");
            w.u64(cols as u64);
        }
        w.key("design");
        w.u64(self.design as u64);
        w.end_map();
    }
}

impl Deserialize for SimulateRequest {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, DeError> {
        // Absent optional keys decode as None (pre-slab clients never
        // send `matrix`/`dense_cols`); present keys decode normally,
        // including an explicit null. The first of duplicate keys wins.
        let (mut spec, mut matrix, mut dense_cols, mut design) = (None, None, None, None);
        r.begin_map()?;
        while let Some(i) = r.next_field(&["spec", "matrix", "dense_cols", "design"])? {
            match i {
                0 if spec.is_none() => spec = Some(Option::<GenSpec>::deserialize(r)?),
                1 if matrix.is_none() => matrix = Some(Option::<String>::deserialize(r)?),
                2 if dense_cols.is_none() => dense_cols = Some(Option::<usize>::deserialize(r)?),
                3 if design.is_none() => design = Some(usize::deserialize(r)?),
                _ => r.skip()?,
            }
        }
        Ok(SimulateRequest {
            spec: spec.flatten(),
            matrix: matrix.flatten(),
            dense_cols: dense_cols.flatten(),
            design: design.ok_or_else(|| DeError::missing("design", "SimulateRequest"))?,
        })
    }
}

/// Payload of [`Request::Reload`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReloadRequest {
    /// Bundle path on the server host.
    pub path: String,
}

/// One response line; `id` echoes the request's correlation id (0 for
/// responses to lines the server could not parse).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// Protocol version of the responding server.
    pub v: u32,
    /// Correlation id of the request this answers.
    pub id: u64,
    /// The outcome.
    pub resp: Response,
}

/// Reply payloads, one per request kind plus the error/backpressure
/// replies any request can receive.
///
/// `Stats` dominates the enum's size; boxing it would need `Box`
/// impls the vendored serde does not carry, and stats replies are
/// cold-path, so the inline variant stays.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to `Predict` / `PredictGen`.
    Predict(PredictReply),
    /// Answer to `Batch`, item replies in request order.
    Batch(BatchReply),
    /// Answer to `Simulate`.
    Simulate(SimulateReply),
    /// Answer to `Stats`.
    Stats(StatsReply),
    /// Answer to a successful `Reload`.
    Reloaded(ReloadedReply),
    /// Admission control shed this request; retry after the hinted
    /// backoff.
    Overloaded(OverloadedReply),
    /// The request failed; see the code and `retryable` bit.
    Error(ErrorReply),
    /// Acknowledgement of `Shutdown`: the server is draining and will
    /// close the connection.
    Bye,
}

/// A design selection plus the per-session reconfiguration decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictReply {
    /// Design the classifier nominated.
    pub predicted: DesignId,
    /// Design this session should execute on after the reconfiguration
    /// engine weighed the switch cost.
    pub execute_on: DesignId,
    /// Whether the decision triggered a bitstream reconfiguration.
    pub reconfigured: bool,
    /// Reconfiguration seconds charged by the decision.
    pub reconfig_time_s: f64,
    /// Predicted latency of the design that will execute, seconds.
    pub predicted_latency_s: f64,
}

/// Payload of [`Response::Batch`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReply {
    /// Per-item replies in request order.
    pub items: Vec<PredictReply>,
}

/// Summary of one cycle-level simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulateReply {
    /// The design simulated.
    pub design: DesignId,
    /// Total kernel cycles.
    pub cycles: u64,
    /// Wall-clock seconds at the design's frequency.
    pub time_s: f64,
    /// Energy in joules.
    pub energy_j: f64,
    /// PE utilization in `[0, 1]`.
    pub pe_utilization: f64,
    /// Number of B row tiles processed.
    pub tiles: usize,
}

/// Per-endpoint counters and latency percentiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndpointStats {
    /// Endpoint name.
    pub endpoint: String,
    /// Requests answered (any outcome).
    pub requests: u64,
    /// Mean handling latency, microseconds.
    pub mean_us: f64,
    /// Median handling latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile handling latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile handling latency, microseconds.
    pub p99_us: f64,
}

/// Per-shard micro-batcher admission counters, reported individually
/// (after the fold) so a hot or wedged shard is visible instead of
/// averaged away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BatchShardStats {
    /// Shard index (round-robin position).
    pub shard: usize,
    /// Micro-batches this shard flushed.
    pub batches: u64,
    /// Feature vectors this shard predicted.
    pub items: u64,
    /// Feature vectors admitted by this shard's CAS slot reservation.
    pub admitted: u64,
    /// Feature vectors refused because this shard's queue was full.
    pub shed: u64,
    /// Largest single micro-batch this shard flushed.
    pub max_batch: u64,
}

/// Online-learning loop observability, reported on Stats when the
/// server runs with `--learn`. Counters are written by the tap (hot
/// path) and the learner thread; `confusion` is row-major
/// `predicted_design x oracle_design` over the rolling agreement
/// window.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LearnStatsReply {
    /// Whether the learner tap is installed.
    pub enabled: bool,
    /// 1-in-N sampling rate of the tap.
    pub sample_every: u64,
    /// Requests the tap sampled into the queue.
    pub sampled: u64,
    /// Sampled requests dropped because the bounded queue was full.
    pub shed: u64,
    /// Samples the learner oracle-labeled.
    pub labeled: u64,
    /// Samples skipped (no generator provenance, or the spec failed to
    /// rebuild).
    pub skipped: u64,
    /// Labeled samples currently in the rolling training window.
    pub window: u64,
    /// Rolling selector-vs-oracle agreement over the last
    /// `agreement_window` labels, in `[0, 1]` (1.0 before any labels).
    pub agreement: f64,
    /// Row-major 4x4 confusion counts (`predicted * 4 + oracle`) over
    /// the rolling agreement window.
    pub confusion: Vec<u64>,
    /// Full refits performed (drift above threshold).
    pub retrains_full: u64,
    /// Validation-prune touch-ups attempted (drift below threshold).
    pub retrains_touchup: u64,
    /// Bundles the learner actually published.
    pub publishes: u64,
    /// Generation number of the learner's last published bundle (0 if
    /// none yet).
    pub last_publish_generation: u64,
    /// Generation of the bundle currently serving (reloads and learner
    /// publishes both bump it).
    pub model_generation: u64,
    /// Operand pairs the tiered labeler answered from the gated
    /// surrogate (0 unless the learner runs with `--label-via tiered`).
    pub surrogate_pairs: u64,
    /// Operand pairs the tiered labeler fell back to the cycle sim on
    /// (below the confidence band, or no bundle installed).
    pub surrogate_fallback_pairs: u64,
}

/// Payload of [`Response::Stats`]; also dumped on graceful shutdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Connections accepted over the server's lifetime.
    pub connections_total: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests answered with an error reply.
    pub errors: u64,
    /// Model bundle hot-reloads performed.
    pub reloads: u64,
    /// Feature vectors currently waiting in the micro-batch queue.
    pub batch_queue_depth: u64,
    /// Jobs currently waiting in the simulation worker-pool queue.
    pub pool_queue_depth: u64,
    /// Micro-batches flushed.
    pub batches_flushed: u64,
    /// Feature vectors predicted through the batcher.
    pub batched_items: u64,
    /// Largest single micro-batch flushed.
    pub max_batch: u64,
    /// Per-shard batcher admission counters (kept per shard after the
    /// fold above, so one wedged shard can't hide in an aggregate).
    pub batch_shards: Vec<BatchShardStats>,
    /// Online-learning loop state (zeroed/disabled without `--learn`).
    pub learn: LearnStatsReply,
    /// Per-endpoint counters and latency percentiles.
    pub endpoints: Vec<EndpointStats>,
    /// Worker-pool jobs that panicked since start. Each panic was
    /// contained and answered with [`ErrorCode::Internal`]; a nonzero
    /// count still means a bug worth a look.
    pub pool_panics: u64,
}

/// Payload of [`Response::Reloaded`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReloadedReply {
    /// Format version of the freshly loaded bundle.
    pub version: u32,
    /// How many reloads the server has performed in total.
    pub reloads: u64,
}

/// Payload of [`Response::Overloaded`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverloadedReply {
    /// Suggested client backoff before retrying, milliseconds.
    pub retry_after_ms: u64,
}

/// Machine-readable failure category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The line was not a parsable request envelope.
    BadRequest,
    /// The envelope's protocol version is unsupported.
    BadVersion,
    /// A feature vector had the wrong arity.
    BadFeatures,
    /// A generator spec failed validation.
    BadGenSpec,
    /// A `Reload` failed (the `retryable` bit distinguishes a transient
    /// file problem from an incompatible bundle).
    ReloadFailed,
    /// The line exceeded [`MAX_LINE_BYTES`].
    Oversized,
    /// The request's job panicked on the worker pool. The panic was
    /// contained: the server keeps serving, this request has no result.
    Internal,
}

/// Payload of [`Response::Error`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// Failure category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Whether retrying the same request later could succeed.
    pub retryable: bool,
}

/// Decodes one request line, version first: a frame whose `v` is not
/// [`PROTOCOL_VERSION`] is refused with [`ErrorCode::BadVersion`]
/// whatever its body (a v1 client's decimal feature vectors included),
/// and any other undecodable frame with [`ErrorCode::BadRequest`].
///
/// The happy path decodes once. Only a frame that fails to decode is
/// probed for its version, skipping the body, so the outcome is that
/// of reading `v` first at no cost to valid frames. `Err` carries the
/// correlation id to answer with (0 when unreadable).
///
/// # Errors
///
/// The ready-made error reply, as above.
pub fn decode_request(line: &str) -> Result<RequestEnvelope, (u64, ErrorReply)> {
    #[derive(Deserialize)]
    struct VersionProbe {
        v: u32,
        id: u64,
    }
    let bad_version = |v: u32, id: u64| {
        let message = format!("protocol version {v} unsupported (expected {PROTOCOL_VERSION})");
        Err((id, ErrorReply { code: ErrorCode::BadVersion, message, retryable: false }))
    };
    match serde_json::from_str::<RequestEnvelope>(line) {
        Ok(env) if env.v == PROTOCOL_VERSION => Ok(env),
        Ok(env) => bad_version(env.v, env.id),
        Err(e) => match serde_json::from_str::<VersionProbe>(line) {
            Ok(p) if p.v != PROTOCOL_VERSION => bad_version(p.v, p.id),
            _ => Err((
                0,
                ErrorReply {
                    code: ErrorCode::BadRequest,
                    message: format!("unparsable request: {e}"),
                    retryable: false,
                },
            )),
        },
    }
}

/// Serializes `value` as one wire line (JSON + `\n`) into `w`, handing
/// the writer the whole line, newline included, in one `write_all`:
/// a line longer than a `BufWriter`'s buffer then leaves in one
/// `write` call instead of a body write and a separate newline flush.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_line<T: Serialize>(w: &mut impl Write, value: &T) -> std::io::Result<()> {
    let mut line = serde_json::to_string(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?
        .into_bytes();
    line.push(b'\n');
    w.write_all(&line)?;
    w.flush()
}

/// Outcome of reading one wire line.
#[derive(Debug)]
pub enum Line {
    /// A complete line (without the trailing newline).
    Complete(String),
    /// The line exceeded `max` bytes; the overflow was discarded up to
    /// the next newline, so the stream is resynchronized.
    Oversized,
    /// The peer closed the connection.
    Eof,
}

/// Reads one newline-delimited line of at most `max` bytes.
///
/// `acc` is a caller-owned accumulator that preserves a partially read
/// line across transient read errors (a socket read timeout used to
/// poll a shutdown flag, say): on `Err`, already-received bytes stay in
/// `acc` and the next call resumes the same line. Oversized lines are
/// discarded up to the next newline (in bounded chunks — the overflow
/// is never buffered) and reported as [`Line::Oversized`], leaving the
/// stream usable for the next request.
///
/// # Errors
///
/// Propagates I/O errors (including read timeouts) from the reader.
pub fn read_line(r: &mut impl BufRead, acc: &mut Vec<u8>, max: usize) -> std::io::Result<Line> {
    loop {
        if acc.len() > max {
            // Discard mode: the line already blew the cap; skip to the
            // next newline without buffering the overflow.
            let chunk = r.fill_buf()?;
            if chunk.is_empty() {
                acc.clear();
                return Ok(Line::Oversized);
            }
            match find_newline(chunk) {
                Some(pos) => {
                    r.consume(pos + 1);
                    acc.clear();
                    return Ok(Line::Oversized);
                }
                None => {
                    let n = chunk.len();
                    r.consume(n);
                }
            }
            continue;
        }
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            if acc.is_empty() {
                return Ok(Line::Eof);
            }
            // Treat a final unterminated line as complete.
            let line = line_text(acc);
            acc.clear();
            return Ok(Line::Complete(line));
        }
        if let Some(pos) = find_newline(chunk) {
            if acc.len() + pos > max {
                r.consume(pos + 1);
                acc.clear();
                return Ok(Line::Oversized);
            }
            acc.extend_from_slice(&chunk[..pos]);
            r.consume(pos + 1);
            let line = line_text(acc);
            acc.clear();
            return Ok(Line::Complete(line));
        }
        let take = chunk.len();
        let room = (max + 1).saturating_sub(acc.len()).min(take);
        acc.extend_from_slice(&chunk[..room]);
        r.consume(take);
    }
}

/// Non-blocking framing: the push-parser twin of [`read_line`] for the
/// event-driven server, where bytes arrive whenever the socket is
/// readable rather than on demand.
///
/// Bytes go in with [`FrameBuf::push`]; complete lines (and in-order
/// [`Line::Oversized`] markers) come out of [`FrameBuf::next_line`].
/// The oversize policy matches `read_line` exactly: once the open line
/// exceeds `max` bytes its overflow is dropped instead of buffered, the
/// stream resynchronizes at the next newline, and the marker is
/// reported in stream position — so a hostile client costs at most
/// `max` + one read chunk of memory, never an unbounded buffer.
#[derive(Debug)]
pub struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
    /// Bytes of the open line (from `pos`) already scanned without a
    /// newline, so each received byte is scanned once.
    scanned: usize,
    /// The open line already blew the cap; bytes are dropped until the
    /// next newline.
    discarding: bool,
    /// Oversized markers owed to the consumer. Markers always precede
    /// everything currently in `buf` (the buffer is empty when discard
    /// mode ends), so emitting them first preserves stream order.
    oversized: u32,
    max: usize,
}

impl FrameBuf {
    /// An empty accumulator with the given per-line byte cap.
    pub fn new(max: usize) -> Self {
        FrameBuf { buf: Vec::new(), pos: 0, scanned: 0, discarding: false, oversized: 0, max }
    }

    /// Appends received bytes. In discard mode the overflow is scanned
    /// for the terminator and dropped, never stored.
    pub fn push(&mut self, mut bytes: &[u8]) {
        while self.discarding {
            match find_newline(bytes) {
                Some(p) => {
                    bytes = &bytes[p + 1..];
                    self.discarding = false;
                    self.oversized += 1;
                }
                None => return,
            }
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete line (or an in-order oversize
    /// marker); `None` means more bytes are needed.
    pub fn next_line(&mut self) -> Option<Line> {
        if self.oversized > 0 {
            self.oversized -= 1;
            return Some(Line::Oversized);
        }
        let open = &self.buf[self.pos..];
        if let Some(p) = find_newline(&open[self.scanned..]).map(|p| self.scanned + p) {
            let line =
                if p > self.max { Line::Oversized } else { Line::Complete(line_text(&open[..p])) };
            self.pos += p + 1;
            self.scanned = 0;
            if self.pos == self.buf.len() {
                self.buf.clear();
                self.pos = 0;
            }
            return Some(line);
        }
        // No terminator: everything left is one partial line, scanned
        // up to its end. Compact consumed bytes away, and if the partial
        // already exceeds the cap, switch to discard mode so it stops
        // accumulating.
        self.scanned = open.len();
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        if self.buf.len() > self.max {
            self.buf.clear();
            self.scanned = 0;
            self.discarding = true;
        }
        None
    }

    /// Flushes a final unterminated line at EOF, mirroring
    /// [`read_line`]'s end-of-stream behaviour.
    pub fn finish(&mut self) -> Option<Line> {
        if let Some(line) = self.next_line() {
            return Some(line);
        }
        if self.discarding {
            self.discarding = false;
            return Some(Line::Oversized);
        }
        if self.buf.is_empty() {
            return None;
        }
        let line = line_text(&self.buf[self.pos..]);
        self.buf.clear();
        self.pos = 0;
        self.scanned = 0;
        Some(Line::Complete(line))
    }

    /// Bytes currently buffered (partial line + not-yet-extracted
    /// lines).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Releases oversized spare capacity once a burst has drained, so
    /// tens of thousands of idle connections keep only a few bytes
    /// each.
    pub fn shrink(&mut self) {
        if self.buf.is_empty() && self.buf.capacity() > 16 * 1024 {
            self.buf.shrink_to(4 * 1024);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(req: Request) {
        let env = RequestEnvelope { v: PROTOCOL_VERSION, id: 7, req };
        let mut wire = Vec::new();
        write_line(&mut wire, &env).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.ends_with('\n'));
        assert_eq!(text.matches('\n').count(), 1, "one line per message");
        let back: RequestEnvelope = serde_json::from_str(text.trim_end()).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn requests_roundtrip_on_the_wire() {
        roundtrip(Request::Predict(PredictRequest { features: vec![1.0, -2.5, 0.0] }));
        roundtrip(Request::Batch(BatchRequest {
            items: vec![
                PredictRequest { features: vec![0.5] },
                PredictRequest { features: vec![1.5] },
            ],
        }));
        roundtrip(Request::PredictGen(GenSpec {
            kind: "uniform".into(),
            rows: 100,
            cols: 100,
            density: 0.01,
            seed: 3,
            dense_cols: 64,
        }));
        roundtrip(Request::Stats);
        roundtrip(Request::Shutdown);
        roundtrip(Request::Reload(ReloadRequest { path: "/tmp/x.json".into() }));
        roundtrip(Request::Simulate(SimulateRequest {
            spec: Some(GenSpec {
                kind: "uniform".into(),
                rows: 64,
                cols: 64,
                density: 0.05,
                seed: 2,
                dense_cols: 32,
            }),
            matrix: None,
            dense_cols: None,
            design: 3,
        }));
        roundtrip(Request::Simulate(SimulateRequest {
            spec: None,
            matrix: Some("/data/cage.msab".into()),
            dense_cols: Some(256),
            design: 1,
        }));
    }

    #[test]
    fn simulate_request_accepts_the_original_wire_shape() {
        // Pre-slab clients send {spec, design} with no matrix/dense_cols
        // keys at all; the optional fields must default.
        let old = r#"{"spec":{"kind":"uniform","rows":8,"cols":8,"density":0.5,"seed":1,
                      "dense_cols":4},"design":2}"#;
        let req: SimulateRequest = serde_json::from_str(old).unwrap();
        assert_eq!(req.design, 2);
        assert_eq!(req.matrix, None);
        assert_eq!(req.dense_cols, None);
        assert_eq!(req.spec.unwrap().kind, "uniform");
        // And the slab form serializes without a spec key.
        let slab = SimulateRequest {
            spec: None,
            matrix: Some("m.msab".into()),
            dense_cols: None,
            design: 1,
        };
        let wire = serde_json::to_string(&slab).unwrap();
        assert!(!wire.contains("spec"), "None fields stay off the wire: {wire}");
    }

    #[test]
    fn responses_roundtrip_on_the_wire() {
        let cases = vec![
            Response::Predict(PredictReply {
                predicted: DesignId::D2,
                execute_on: DesignId::D1,
                reconfigured: false,
                reconfig_time_s: 0.0,
                predicted_latency_s: 1.25e-3,
            }),
            Response::Overloaded(OverloadedReply { retry_after_ms: 5 }),
            Response::Error(ErrorReply {
                code: ErrorCode::BadFeatures,
                message: "arity".into(),
                retryable: false,
            }),
            Response::Bye,
        ];
        for resp in cases {
            let env = ResponseEnvelope { v: PROTOCOL_VERSION, id: 9, resp };
            let mut wire = Vec::new();
            write_line(&mut wire, &env).unwrap();
            let back: ResponseEnvelope =
                serde_json::from_str(String::from_utf8(wire).unwrap().trim_end()).unwrap();
            assert_eq!(back, env);
        }
    }

    #[test]
    fn read_line_frames_and_resynchronizes() {
        let mut r = Cursor::new(b"short\nxxxxxxxxxxxxxxxxxxxx\nnext\n".to_vec());
        let mut acc = Vec::new();
        match read_line(&mut r, &mut acc, 10).unwrap() {
            Line::Complete(s) => assert_eq!(s, "short"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(read_line(&mut r, &mut acc, 10).unwrap(), Line::Oversized));
        match read_line(&mut r, &mut acc, 10).unwrap() {
            Line::Complete(s) => assert_eq!(s, "next", "stream resynchronized after overflow"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(read_line(&mut r, &mut acc, 10).unwrap(), Line::Eof));
    }

    #[test]
    fn oversized_line_without_newline_terminates() {
        let mut r = Cursor::new(vec![b'y'; 1000]);
        let mut acc = Vec::new();
        assert!(matches!(read_line(&mut r, &mut acc, 10).unwrap(), Line::Oversized));
        assert!(matches!(read_line(&mut r, &mut acc, 10).unwrap(), Line::Eof));
    }

    #[test]
    fn partial_line_survives_interrupted_reads() {
        // Two chunks of one line arriving across separate reads: the
        // accumulator carries the prefix.
        let mut acc = Vec::new();
        let mut first = Cursor::new(b"hel".to_vec());
        assert!(matches!(read_line(&mut first, &mut acc, 64).unwrap(), Line::Complete(_)));
        // EOF flushed it; simulate the timeout path instead by seeding acc.
        acc.clear();
        acc.extend_from_slice(b"hel");
        let mut rest = Cursor::new(b"lo\n".to_vec());
        match read_line(&mut rest, &mut acc, 64).unwrap() {
            Line::Complete(s) => assert_eq!(s, "hello"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn framebuf_matches_read_line_framing() {
        // Same stream as read_line_frames_and_resynchronizes, pushed in
        // awkward chunks: identical line sequence.
        let mut fb = FrameBuf::new(10);
        fb.push(b"sho");
        assert!(fb.next_line().is_none());
        fb.push(b"rt\nxxxxxxx");
        match fb.next_line().unwrap() {
            Line::Complete(s) => assert_eq!(s, "short"),
            other => panic!("{other:?}"),
        }
        fb.push(b"xxxxxxxxxxxxx");
        assert!(fb.next_line().is_none(), "oversized line reported only at its terminator");
        assert!(fb.buffered() == 0, "overflow is dropped, not buffered");
        fb.push(b"\nnext\n");
        assert!(matches!(fb.next_line().unwrap(), Line::Oversized));
        match fb.next_line().unwrap() {
            Line::Complete(s) => assert_eq!(s, "next", "stream resynchronized after overflow"),
            other => panic!("{other:?}"),
        }
        assert!(fb.next_line().is_none());
        assert!(fb.finish().is_none());
    }

    #[test]
    fn framebuf_many_lines_in_one_push_and_eof_flush() {
        let mut fb = FrameBuf::new(64);
        fb.push(b"a\nb\nc");
        match (fb.next_line().unwrap(), fb.next_line().unwrap()) {
            (Line::Complete(a), Line::Complete(b)) => {
                assert_eq!(a, "a");
                assert_eq!(b, "b");
            }
            other => panic!("{other:?}"),
        }
        assert!(fb.next_line().is_none());
        // EOF flushes the final unterminated line, like read_line.
        match fb.finish().unwrap() {
            Line::Complete(c) => assert_eq!(c, "c"),
            other => panic!("{other:?}"),
        }
        // EOF mid-discard surfaces the marker.
        let mut fb = FrameBuf::new(4);
        fb.push(b"yyyyyyyyyy");
        assert!(fb.next_line().is_none());
        assert!(matches!(fb.finish().unwrap(), Line::Oversized));
        assert!(fb.finish().is_none());
    }

    #[test]
    fn framebuf_bounds_memory_under_oversize_flood() {
        let mut fb = FrameBuf::new(100);
        for _ in 0..1000 {
            fb.push(&[b'z'; 512]);
            let _ = fb.next_line();
        }
        assert!(fb.buffered() <= 612, "discard mode must cap the buffer");
        fb.push(b"\n");
        assert!(matches!(fb.next_line().unwrap(), Line::Oversized));
    }

    #[test]
    fn hex_features_are_exact_and_strict() {
        let values = [1.0, -0.0, f64::from_bits(0x7ff8_dead_beef_0001), f64::MIN_POSITIVE / 3.0];
        let mut hex = Vec::new();
        write_hex_f64s(&mut hex, &values);
        let hex = String::from_utf8(hex).unwrap();
        assert_eq!(&hex[..16], "000000000000f03f");
        let back = read_hex_f64s(&hex).unwrap();
        let bits: Vec<u64> = back.into_iter().map(f64::to_bits).collect();
        assert_eq!(bits, values.map(f64::to_bits));
        // Every byte value at every digit position: only 0-9a-f pass.
        for at in 0..16 {
            for b in 0..=255u8 {
                let mut digits = *b"0123456789abcdef";
                digits[at] = b;
                let ok = b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
                let text = String::from_utf8_lossy(&digits);
                assert_eq!(
                    read_hex_f64s(&text).is_some(),
                    ok && text.len() == 16,
                    "{b:#x} at {at}"
                );
            }
        }
    }

    #[test]
    fn gen_spec_validation() {
        let ok = GenSpec {
            kind: "power-law".into(),
            rows: 256,
            cols: 256,
            density: 0.02,
            seed: 1,
            dense_cols: 64,
        };
        let a = ok.build().unwrap();
        assert_eq!((a.rows(), a.cols()), (256, 256));
        // Determinism: same spec, same matrix.
        assert_eq!(ok.build().unwrap().nnz(), a.nnz());

        assert!(GenSpec { kind: "warp".into(), ..ok.clone() }.build().is_err());
        assert!(GenSpec { rows: 0, ..ok.clone() }.build().is_err());
        assert!(GenSpec { density: 1.5, ..ok.clone() }.build().is_err());
        assert!(GenSpec { rows: MAX_GEN_DIM + 1, ..ok }.build().is_err());
    }
}
