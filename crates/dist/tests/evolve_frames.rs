//! The wire shape of an evolution: after exporting the shards the event
//! dissolves, the coordinator sends each server exactly one
//! `REQ_EVOLVE` — no per-server broadcast, no per-part rebuild request.

use smn_core::{ProbabilisticNetwork, ShardHost, ShardingConfig};
use smn_dist::proto::{REQ_EVOLVE, REQ_EXPORT};
use smn_dist::{spawn_local_cluster, ChannelTransport, DistError, DistNetwork, Transport};
use smn_schema::{AttributeId, CandidateId};
use smn_storage::Frame;
use smn_testkit::{fast_sampler, webform_federation};
use std::sync::{Arc, Mutex};

/// A link that logs `(server, kind)` for every request it carries.
struct Counting {
    inner: ChannelTransport,
    server: usize,
    log: Arc<Mutex<Vec<(usize, u32)>>>,
}

impl Transport for Counting {
    fn send(&mut self, kind: u32, payload: &[u8]) -> Result<(), DistError> {
        self.log.lock().unwrap().push((self.server, kind));
        self.inner.send(kind, payload)
    }

    fn recv(&mut self) -> Result<Frame, DistError> {
        self.inner.recv()
    }
}

/// Takes the logged requests and checks their shape: `exports`
/// `REQ_EXPORT`s first, then one `REQ_EVOLVE` per server.
fn assert_one_evolve_per_server(
    log: &Mutex<Vec<(usize, u32)>>,
    servers: usize,
    exports: usize,
    ctx: &str,
) {
    let frames = std::mem::take(&mut *log.lock().unwrap());
    let kinds: Vec<u32> = frames.iter().map(|&(_, kind)| kind).collect();
    assert_eq!(kinds[..exports], vec![REQ_EXPORT; exports], "{ctx}: exports first");
    let mut evolved: Vec<usize> = frames[exports..]
        .iter()
        .map(|&(server, kind)| {
            assert_eq!(kind, REQ_EVOLVE, "{ctx}: only evolve requests after the exports");
            server
        })
        .collect();
    evolved.sort_unstable();
    assert_eq!(evolved, (0..servers).collect::<Vec<_>>(), "{ctx}: one evolve per server");
}

#[test]
fn an_evolution_is_one_evolve_request_per_server() {
    let (net, _) = webform_federation(3, 42);
    let (sampler, cfg) = (fast_sampler(5), ShardingConfig::default());
    let cat = net.catalog();
    let (x, y) = (0..cat.attribute_count())
        .flat_map(|x| ((x + 1)..cat.attribute_count()).map(move |y| (x, y)))
        .map(|(x, y)| (AttributeId::from_index(x), AttributeId::from_index(y)))
        .find(|&(x, y)| {
            cat.schema_of(x) != cat.schema_of(y) && net.candidates().find(x, y).is_none()
        })
        .expect("the federation leaves cross-schema pairs open");
    for servers in [2usize, 4] {
        let log = Arc::new(Mutex::new(Vec::new()));
        let (links, handles) = spawn_local_cluster(servers);
        let links: Vec<Box<dyn Transport>> = links
            .into_iter()
            .enumerate()
            .map(|(server, inner)| {
                Box::new(Counting { inner, server, log: log.clone() }) as Box<dyn Transport>
            })
            .collect();
        let mut dist = DistNetwork::new(net.clone(), sampler, cfg, links).expect("bootstrap");
        let mut pn = ProbabilisticNetwork::new_sharded(net.clone(), sampler, cfg);
        let mut mirror = ShardHost::new(net.clone(), sampler, cfg, &[]);
        log.lock().unwrap().clear();

        let (arrival, evo, _) = mirror.apply_extend(x, y, 0.5).unwrap();
        assert!(!evo.dissolved.is_empty(), "the arrival absorbs a component");
        assert_eq!(dist.extend(x, y, 0.5).unwrap(), arrival);
        let ctx = format!("extend/{servers} servers");
        assert_one_evolve_per_server(&log, servers, evo.dissolved.len(), &ctx);
        pn.extend(x, y, 0.5).unwrap();
        assert_eq!(dist.probabilities(), pn.probabilities(), "{ctx}: posterior");

        let retiree = CandidateId(0);
        let (evo, _) = mirror.apply_retire(retiree).unwrap();
        dist.retire(retiree).unwrap();
        let ctx = format!("retire/{servers} servers");
        assert_one_evolve_per_server(&log, servers, evo.dissolved.len(), &ctx);
        pn.retire(retiree).unwrap();
        assert_eq!(dist.probabilities(), pn.probabilities(), "{ctx}: posterior");

        dist.shutdown().expect("orderly shutdown");
        for h in handles {
            h.join().expect("server thread").expect("clean server exit");
        }
    }
}
