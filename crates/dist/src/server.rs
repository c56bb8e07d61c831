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
    self, put_shard_probs, Evolve, REQ_ASSERT, REQ_BOOTSTRAP, REQ_EVOLVE, REQ_EXPORT, REQ_GAINS,
    REQ_SHUTDOWN, REQ_WHAT_IF, RESP_ERR, RESP_OK,
};
use crate::transport::{channel_pair, ChannelTransport, Transport};
use smn_core::persist::NetworkEvent;
use smn_core::ShardHost;
use smn_schema::CandidateId;
use smn_storage::format::{decode_snapshot, encode_shard_state, put_f64s, Dec};
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
        let reply = shard_probs_reply(&built, &built.owned_components());
        *host = Some(built);
        return reply;
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
            shard_probs_reply(host, &[k])
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
            let ks = d.ids("export components").map_err(|e| e.to_string())?;
            d.finish("export request").map_err(|e| e.to_string())?;
            let states = ks
                .into_iter()
                .map(|k| Some(encode_shard_state(&host.export_shard(k as usize)?)))
                .collect::<Option<Vec<_>>>()
                .ok_or("export routed to a non-owner")?;
            Ok(proto::encode_exports(&states))
        }
        REQ_EVOLVE => {
            // decode and restore the whole payload before the event
            // touches the structure, and apply it to a copy, so that a
            // request refused at any step leaves the host as it was
            let Evolve { event, rebuilt, shipped } =
                proto::decode_evolve(&frame.payload).map_err(|e| e.to_string())?;
            let restored = shipped
                .iter()
                .map(|(members, state)| Ok((members, state.restore(members.len())?)))
                .collect::<Result<Vec<_>, String>>()?;
            let sources: Vec<_> =
                restored.iter().map(|(members, (f, s))| (members.as_slice(), f, s)).collect();
            let mut next = host.clone();
            let evo = match event {
                NetworkEvent::Extend { a, b, confidence } => {
                    next.apply_extend(a, b, confidence).map(|(_, evo, _)| evo)
                }
                NetworkEvent::Retire { candidate } => {
                    next.apply_retire(candidate).map(|(evo, _)| evo)
                }
                NetworkEvent::Assert { .. } => {
                    return Err("evolve request carries an assert record".into())
                }
            }
            .map_err(|e| e.to_string())?;
            next.rebuild(&event, &evo, &rebuilt, &sources)?;
            *host = next;
            shard_probs_reply(host, &rebuilt)
        }
        kind => Err(format!("unknown request kind {kind}")),
    }
}

/// A per-shard probability reply for components `ks` (bootstrap,
/// asserts, evolution).
fn shard_probs_reply(host: &ShardHost, ks: &[usize]) -> Result<Vec<u8>, String> {
    let entries = ks
        .iter()
        .map(|&k| Ok((k, host.shard_probabilities(k).ok_or("shard missing")?)))
        .collect::<Result<Vec<_>, String>>()?;
    let mut reply = Vec::new();
    put_shard_probs(&mut reply, &entries);
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
