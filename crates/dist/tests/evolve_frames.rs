//! The wire shape of an evolution: one `REQ_EXPORT` per server owning a
//! shard the event dissolves (none when nothing is rebuilt), then
//! exactly one `REQ_EVOLVE` per server — no per-shard export, no
//! per-server broadcast, no per-part rebuild request.

use smn_constraints::components::ComponentEvolution;
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

/// The servers an evolution must export from: every distinct pre-event
/// owner of a dissolved shard, ascending — none when nothing is rebuilt.
fn exporters(dist: &DistNetwork, evo: &ComponentEvolution) -> Vec<usize> {
    if evo.rebuilt.is_empty() {
        return Vec::new();
    }
    let mut owners: Vec<usize> = evo.dissolved.iter().map(|(k, _)| dist.owner_of(*k)).collect();
    owners.sort_unstable();
    owners.dedup();
    owners
}

/// Takes the logged requests and checks their shape: one `REQ_EXPORT`
/// to each of `exporters` first, then one `REQ_EVOLVE` per server.
fn assert_one_evolve_per_server(
    log: &Mutex<Vec<(usize, u32)>>,
    servers: usize,
    exporters: &[usize],
    ctx: &str,
) {
    let frames = std::mem::take(&mut *log.lock().unwrap());
    let exports = exporters.len();
    assert!(frames.len() >= exports, "{ctx}: {} frames", frames.len());
    assert_eq!(
        frames[..exports],
        exporters.iter().map(|&server| (server, REQ_EXPORT)).collect::<Vec<_>>(),
        "{ctx}: one export per owning server, first"
    );
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
    // the open cross-schema pair whose arrival couples the most components
    let probe = ShardHost::new(net.clone(), sampler, cfg, &[]);
    let coupled =
        |x, y| probe.clone().apply_extend(x, y, 0.5).map_or(0, |(_, evo, _)| evo.dissolved.len());
    let (x, y) = (0..cat.attribute_count())
        .flat_map(|x| ((x + 1)..cat.attribute_count()).map(move |y| (x, y)))
        .map(|(x, y)| (AttributeId::from_index(x), AttributeId::from_index(y)))
        .filter(|&(x, y)| {
            cat.schema_of(x) != cat.schema_of(y) && net.candidates().find(x, y).is_none()
        })
        .max_by_key(|&(x, y)| coupled(x, y))
        .expect("the federation leaves cross-schema pairs open");
    // more coupled shards than servers: some server owns several
    assert!(coupled(x, y) > 4, "the arrival couples {} components", coupled(x, y));
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
        let from = exporters(&dist, &evo);
        assert!(from.len() < evo.dissolved.len(), "a server exports several shards at once");
        assert_eq!(dist.extend(x, y, 0.5).unwrap(), arrival);
        let ctx = format!("extend/{servers} servers");
        assert_one_evolve_per_server(&log, servers, &from, &ctx);
        pn.extend(x, y, 0.5).unwrap();
        assert_eq!(dist.probabilities(), pn.probabilities(), "{ctx}: posterior");

        let retiree = CandidateId(0);
        let (evo, _) = mirror.apply_retire(retiree).unwrap();
        let from = exporters(&dist, &evo);
        dist.retire(retiree).unwrap();
        let ctx = format!("retire/{servers} servers");
        assert_one_evolve_per_server(&log, servers, &from, &ctx);
        pn.retire(retiree).unwrap();
        assert_eq!(dist.probabilities(), pn.probabilities(), "{ctx}: posterior");

        // a retiree alone in its component leaves no part to rebuild, so
        // nothing is exported
        let lonely = (0..mirror.component_count())
            .map(|k| mirror.components().members(k))
            .find(|members| members.len() == 1)
            .map(|members| members[0])
            .expect("the federation has a candidate without conflicts");
        let (evo, _) = mirror.apply_retire(lonely).unwrap();
        assert_eq!(evo.dissolved.len(), 1, "the singleton dissolves");
        assert!(evo.rebuilt.is_empty(), "no part to rebuild");
        dist.retire(lonely).unwrap();
        let ctx = format!("singleton retire/{servers} servers");
        assert_one_evolve_per_server(&log, servers, &[], &ctx);
        pn.retire(lonely).unwrap();
        assert_eq!(dist.probabilities(), pn.probabilities(), "{ctx}: posterior");

        dist.shutdown().expect("orderly shutdown");
        for h in handles {
            h.join().expect("server thread").expect("clean server exit");
        }
    }
}
