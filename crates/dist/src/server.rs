//! The shard-server loop: a [`ShardHost`] behind a [`Transport`].
//!
//! A server is a pure request processor. It holds no placement logic, no
//! global feedback and no global probability vector — the coordinator
//! owns all routing state — so its entire behaviour is: bootstrap from
//! the structure image, then answer per-shard questions with the same
//! `smn-core` kernels the single-process engine runs. Every reply is
//! [`RESP_OK`] with the request-specific payload or [`RESP_ERR`] with a
//! message; a malformed frame never kills the loop, only the request.

use crate::error::DistError;
use crate::proto::{
    self, put_shard_probs, REQ_APPLY_EVENT, REQ_ASSERT, REQ_BOOTSTRAP, REQ_EXPORT, REQ_GAINS,
    REQ_REBUILD_MERGED, REQ_REBUILD_PART, REQ_SHUTDOWN, REQ_WHAT_IF, RESP_ERR, RESP_OK,
};
use crate::transport::{channel_pair, ChannelTransport, Transport};
use smn_core::persist::{NetworkEvent, ShardState};
use smn_core::ShardHost;
use smn_schema::CandidateId;
use smn_storage::format::{decode_shard_state, decode_snapshot, encode_shard_state, put_f64s, Dec};
use smn_storage::wal::decode_record;
use smn_storage::Frame;
use std::thread::JoinHandle;

/// Runs one shard server over `transport` until the coordinator sends
/// [`REQ_SHUTDOWN`] (clean `Ok`) or the link drops (`Err`). Request
/// failures — unknown kinds, malformed payloads, questions about
/// components this server does not own — are answered with
/// [`RESP_ERR`] and the loop continues.
pub fn serve(transport: &mut dyn Transport) -> Result<(), DistError> {
    let mut host: Option<ShardHost> = None;
    loop {
        let frame = transport.recv()?;
        if frame.kind == REQ_SHUTDOWN {
            transport.send(RESP_OK, &[])?;
            return Ok(());
        }
        match handle(&mut host, &frame) {
            Ok(payload) => transport.send(RESP_OK, &payload)?,
            Err(msg) => transport.send(RESP_ERR, msg.as_bytes())?,
        }
    }
}

/// Dispatches one request against the (possibly not yet bootstrapped)
/// host. String errors become [`RESP_ERR`] payloads.
fn handle(host: &mut Option<ShardHost>, frame: &Frame) -> Result<Vec<u8>, String> {
    if frame.kind == REQ_BOOTSTRAP {
        let mut d = Dec::new(&frame.payload);
        let owned: Vec<usize> = d
            .ids("owned components")
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(|k| k as usize)
            .collect();
        let image = d.take(d.remaining(), "bootstrap image").map_err(|e| e.to_string())?;
        let (state, _, _) = decode_snapshot(image).map_err(|e| e.to_string())?;
        let built = ShardHost::from_structure(&state, &owned)?;
        let entries: Vec<(usize, Vec<f64>)> = built
            .owned_components()
            .into_iter()
            .map(|k| (k, built.shard_probabilities(k).expect("owned shard has probabilities")))
            .collect();
        let mut reply = Vec::new();
        put_shard_probs(&mut reply, &entries);
        *host = Some(built);
        return Ok(reply);
    }
    let host = host.as_mut().ok_or("server not bootstrapped")?;
    match frame.kind {
        REQ_ASSERT => {
            let (_, event) = decode_record(&frame.payload).map_err(|e| e.to_string())?;
            let NetworkEvent::Assert { candidate, approved } = event else {
                return Err("assert request carries a non-assert record".into());
            };
            let k = host
                .assert_unchecked(candidate, approved)
                .ok_or("assertion routed to a non-owner")?;
            shard_probs_reply(host, k)
        }
        REQ_WHAT_IF => {
            let queries = proto::decode_what_if(&frame.payload).map_err(|e| e.to_string())?;
            let values = host.entropy_after(&queries).ok_or("what-if routed to a non-owner")?;
            let mut reply = Vec::new();
            put_f64s(&mut reply, &values);
            Ok(reply)
        }
        REQ_GAINS => {
            let mut d = Dec::new(&frame.payload);
            let pool: Vec<CandidateId> = d
                .ids("gain pool")
                .map_err(|e| e.to_string())?
                .into_iter()
                .map(CandidateId)
                .collect();
            d.finish("gain pool").map_err(|e| e.to_string())?;
            let values = host.gains(&pool).ok_or("gain scan routed to a non-owner")?;
            let mut reply = Vec::new();
            put_f64s(&mut reply, &values);
            Ok(reply)
        }
        REQ_EXPORT => {
            let mut d = Dec::new(&frame.payload);
            let k = d.u32("export component").map_err(|e| e.to_string())? as usize;
            d.finish("export request").map_err(|e| e.to_string())?;
            let state = host.export_shard(k).ok_or("export routed to a non-owner")?;
            Ok(encode_shard_state(&state))
        }
        REQ_APPLY_EVENT => {
            let (_, event) = decode_record(&frame.payload).map_err(|e| e.to_string())?;
            match event {
                NetworkEvent::Extend { a, b, confidence } => {
                    host.apply_extend(a, b, confidence).map_err(|e| e.to_string())?;
                }
                NetworkEvent::Retire { candidate } => {
                    host.apply_retire(candidate).map_err(|e| e.to_string())?;
                }
                NetworkEvent::Assert { .. } => {
                    return Err("apply-event request carries an assert record".into());
                }
            }
            Ok(Vec::new())
        }
        REQ_REBUILD_MERGED => {
            let mut d = Dec::new(&frame.payload);
            let k = d.u32("merged component").map_err(|e| e.to_string())? as usize;
            let sources = d.u32("absorbed count").map_err(|e| e.to_string())?;
            let absorbed =
                (0..sources).map(|_| read_shipment(&mut d)).collect::<Result<Vec<_>, _>>()?;
            d.finish("rebuild-merged request").map_err(|e| e.to_string())?;
            host.rebuild_merged(k, &absorbed)?;
            shard_probs_reply(host, k)
        }
        REQ_REBUILD_PART => {
            let mut d = Dec::new(&frame.payload);
            let k = d.u32("part component").map_err(|e| e.to_string())? as usize;
            let retired = CandidateId(d.u32("retired candidate").map_err(|e| e.to_string())?);
            let (old_members, old_state) = read_shipment(&mut d)?;
            d.finish("rebuild-part request").map_err(|e| e.to_string())?;
            host.rebuild_part(k, &old_members, &old_state, retired)?;
            shard_probs_reply(host, k)
        }
        kind => Err(format!("unknown request kind {kind}")),
    }
}

/// Reads one shipped shard: its pre-event member list and serialized
/// state (length-prefixed [`encode_shard_state`] section).
fn read_shipment(d: &mut Dec<'_>) -> Result<(Vec<CandidateId>, ShardState), String> {
    let members: Vec<CandidateId> =
        d.ids("shipped members").map_err(|e| e.to_string())?.into_iter().map(CandidateId).collect();
    let len = d.u32("shipped state length").map_err(|e| e.to_string())? as usize;
    let bytes = d.take(len, "shipped state").map_err(|e| e.to_string())?;
    let state = decode_shard_state(bytes).map_err(|e| e.to_string())?;
    Ok((members, state))
}

/// A single-shard probability reply (rebuilds, asserts).
fn shard_probs_reply(host: &ShardHost, k: usize) -> Result<Vec<u8>, String> {
    let probs = host.shard_probabilities(k).ok_or("shard missing")?;
    let mut reply = Vec::new();
    put_shard_probs(&mut reply, &[(k, probs)]);
    Ok(reply)
}

/// Spawns `n` in-process shard servers on threads, returning the
/// coordinator-side transports (server order) and the join handles. The
/// deterministic harness of the differential suite: same protocol, same
/// frames, no child processes.
#[allow(clippy::type_complexity)]
pub fn spawn_local_cluster(
    n: usize,
) -> (Vec<ChannelTransport>, Vec<JoinHandle<Result<(), DistError>>>) {
    let mut links = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for _ in 0..n.max(1) {
        let (coordinator_end, mut server_end) = channel_pair();
        links.push(coordinator_end);
        handles.push(std::thread::spawn(move || serve(&mut server_end)));
    }
    (links, handles)
}
