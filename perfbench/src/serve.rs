//! `serve-inline` and `serve-hot`: an in-process `rsnd` driven closed-loop
//! over loopback by the benchmark's own keep-alive client.
//!
//! Load comes from one process: `nproc` client threads, one connection each,
//! every connection sending its next request only after the previous answer.
//! A round is a fixed list of requests dealt round-robin to the connections;
//! the next round starts when every connection has finished its share.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

use robust_rsn::{
    analyze, canonical_network_hash, AnalysisOptions, CostModel, Criticality, CriticalitySpec,
    PaperSpecParams, Parallelism,
};
use rsn_model::format::{parse_network, print_network};
use rsn_model::{ControlSource, NodeId, ScanNetwork};
use rsn_serve::wire::{self, Deadline, Endpoint};
use rsn_serve::{Metrics, Registry, Server, ServerConfig, ShutdownHandle};
use rsn_sp::{tree_from_structure, DecompTree};

use crate::http::{json_string, Conn, Response};
use crate::json;
use crate::trace::{median, quantile, tail, LocalSpans, Span, Tracer};
use crate::{repeat_setups, run_rounds, splitmix, timed_setup, Ctx, Outcome};

/// An in-process daemon on an ephemeral loopback port; dropping it shuts the
/// daemon down and waits for its event loop to return.
struct Daemon {
    addr: SocketAddr,
    stop: ShutdownHandle,
    join: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(workers: usize) -> Self {
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: Parallelism::new(workers),
            ..ServerConfig::default()
        };
        let server = Server::bind(config).expect("binding a loopback port");
        let addr = server.local_addr();
        let stop = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());
        Self { addr, stop, join: Some(join) }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// A network as the daemon sees it (the printed text) and as the checks
/// see it: parsed and built from that same text by the benchmark itself,
/// so node ids and names agree with the daemon's.
struct Net {
    text: String,
    escaped: String,
    net: ScanNetwork,
    tree: DecompTree,
    hash_hex: String,
}

impl Net {
    fn new(design: &str, tr: &Tracer) -> Self {
        let spec = rsn_benchmarks::by_name(design).expect("a Table I design");
        let text = print_network(spec.name, &spec.generate());
        let (name, structure) = parse_network(&text).expect("printed text parses");
        let (net, built) = structure.build(name).expect("Table I designs build");
        let tree = tree_from_structure(&net, &built);
        let hash_hex = tr.span("netkey.hash", || canonical_network_hash(&net)).to_hex();
        Self { escaped: json_string(&text), text, net, tree, hash_hex }
    }

    fn spec(&self, seed: u64) -> CriticalitySpec {
        CriticalitySpec::paper_random(&self.net, &PaperSpecParams::default(), seed)
    }

    fn crit(&self, spec: &CriticalitySpec) -> Criticality {
        analyze(&self.net, &self.tree, spec, &AnalysisOptions::default())
    }

    /// Named primitives, and the named ones among them that pass `keep`.
    fn named(&self, keep: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
        self.net.primitives().filter(|&j| self.net.node(j).name.is_some() && keep(j)).collect()
    }

    fn label(&self, j: NodeId) -> String {
        self.net.node(j).label(j)
    }
}

/// One request of a round.
struct Req {
    method: &'static str,
    path: &'static str,
    endpoint: Endpoint,
    body: String,
    kind: Kind,
}

#[derive(Clone, Copy)]
enum Kind {
    Analyze {
        net: usize,
        seed: u64,
    },
    Harden {
        target: NodeId,
    },
    Exclude {
        target: NodeId,
    },
    SetWeights {
        target: NodeId,
        obs: u64,
        set: u64,
    },
    Greedy {
        seed: u64,
    },
    Put,
    /// serve-hot: one of the few cached job keys.
    Key(usize),
}

impl Kind {
    fn is_whatif(self) -> bool {
        matches!(self, Kind::Harden { .. } | Kind::Exclude { .. } | Kind::SetWeights { .. })
    }
}

/// What a round's responses look like to the client.
struct Answered {
    latency_ms: f64,
    /// `None` when the request failed in transport.
    status: Option<u16>,
    response: Option<Response>,
}

/// One round handed to the client threads.
struct Batch {
    reqs: Arc<Vec<Req>>,
    /// Return the bodies of successful answers (serve-inline checks them).
    keep: bool,
    spans: bool,
    first_id: u64,
    /// serve-hot: the answer each job key must repeat byte for byte.
    expected: Option<Arc<Vec<Vec<u8>>>>,
}

/// One client thread's share of a round.
struct Done {
    answered: Vec<(usize, Answered)>,
    spans: Vec<Span>,
    mismatches: u64,
}

/// `n` client threads, one keep-alive connection each, alive for the whole
/// run. In a round, request `i` goes to thread `i % n`, which sends its
/// share closed-loop; the round ends when every thread has answered.
struct Clients {
    batches: Vec<mpsc::Sender<Arc<Batch>>>,
    done: mpsc::Receiver<Done>,
    threads: Vec<JoinHandle<()>>,
}

impl Clients {
    fn start(addr: SocketAddr, n: usize, epoch: Instant) -> Self {
        let (done_tx, done) = mpsc::channel();
        let mut batches = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);
        for c in 0..n {
            let (tx, rx) = mpsc::channel::<Arc<Batch>>();
            let done_tx = done_tx.clone();
            let mut conn = Conn::connect(addr).expect("connecting to the daemon");
            threads.push(std::thread::spawn(move || {
                for batch in rx {
                    let mut local = LocalSpans { enabled: batch.spans, spans: Vec::new() };
                    let mut answered = Vec::new();
                    let mut mismatches = 0;
                    for i in (c..batch.reqs.len()).step_by(n) {
                        let req = &batch.reqs[i];
                        let start_ns = ns_since(epoch);
                        let t = Instant::now();
                        let mut result = conn.request(req.method, req.path, req.body.as_bytes());
                        if result.is_err() {
                            // One reconnect: the daemon may have closed the socket.
                            if let Ok(fresh) = Conn::connect(addr) {
                                conn = fresh;
                            }
                            result = conn.request(req.method, req.path, req.body.as_bytes());
                        }
                        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                        local.record(
                            "client.request",
                            start_ns,
                            ns_since(epoch),
                            batch.first_id + i as u64,
                        );
                        let response = result.ok();
                        let status = response.as_ref().map(|r| r.status);
                        if let (Some(expected), Some(r), Kind::Key(k)) =
                            (&batch.expected, &response, req.kind)
                        {
                            if r.status == 200 && r.body != expected[k] {
                                mismatches += 1;
                            }
                        }
                        let response = if batch.keep { response } else { None };
                        answered.push((i, Answered { latency_ms, status, response }));
                    }
                    if done_tx.send(Done { answered, spans: local.spans, mismatches }).is_err() {
                        break;
                    }
                }
            }));
            batches.push(tx);
        }
        Self { batches, done, threads }
    }

    /// Runs one round; returns the answers in request order, the client
    /// spans, and the count of answers that differed from `expected`.
    fn round(&self, batch: Batch) -> (Vec<Answered>, Vec<Span>, u64) {
        let n = batch.reqs.len();
        let batch = Arc::new(batch);
        for tx in &self.batches {
            tx.send(Arc::clone(&batch)).expect("client threads outlive the run");
        }
        let mut slots: Vec<Option<Answered>> = (0..n).map(|_| None).collect();
        let (mut spans, mut mismatches) = (Vec::new(), 0);
        for _ in 0..self.batches.len() {
            let done = self.done.recv().expect("client threads outlive the run");
            for (i, a) in done.answered {
                slots[i] = Some(a);
            }
            spans.extend(done.spans);
            mismatches += done.mismatches;
        }
        let answered = slots.into_iter().map(|a| a.expect("every request was sent")).collect();
        (answered, spans, mismatches)
    }
}

impl Drop for Clients {
    fn drop(&mut self) {
        self.batches.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Client request spans kept per run; serve-hot would otherwise write
/// hundreds of thousands.
const MAX_CLIENT_SPANS: usize = 20_000;

fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Counts a round's requests and their failures; returns the successful
/// responses by index.
fn tally(
    out: &mut Outcome,
    tr: &Tracer,
    reqs: &[Req],
    answered: Vec<Answered>,
) -> Vec<Option<Response>> {
    let mut ok = Vec::with_capacity(answered.len());
    for (req, a) in reqs.iter().zip(answered) {
        out.attempted += 1;
        if !tr.enabled() {
            out.ops_ms.push(a.latency_ms);
        }
        match a.status {
            Some(200) => ok.push(a.response),
            Some(status) => {
                out.fail(format!("{} {}: status {status}", req.method, req.path));
                ok.push(None);
            }
            None => {
                out.fail(format!("{} {}: transport error", req.method, req.path));
                ok.push(None);
            }
        }
    }
    ok
}

/// A seeded permutation of `items`.
fn shuffled(mut items: Vec<NodeId>, seed: u64) -> Vec<NodeId> {
    for i in (1..items.len()).rev() {
        let j = (splitmix(seed ^ i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

/// The three inline networks of serve-inline: two large SoCs and an MBIST.
const INLINE_NETS: [&str; 3] = ["p34392", "MBIST_2_5_20", "p93791"];

/// One serve-inline round: (slot kind, network index for analyze slots).
/// The two largest bodies go first so their parse on the event loop
/// overlaps only each other; what-ifs, greedy hardening and registration
/// all target p34392.
#[derive(Clone, Copy)]
enum Slot {
    Analyze(usize),
    Harden,
    Exclude,
    SetWeights,
    Greedy,
    Put,
}

const MIX: [Slot; 12] = [
    Slot::Analyze(2),
    Slot::Analyze(1),
    Slot::Analyze(0),
    Slot::Harden,
    Slot::Exclude,
    Slot::SetWeights,
    Slot::Greedy,
    Slot::Put,
    Slot::Analyze(0),
    Slot::Harden,
    Slot::SetWeights,
    Slot::Analyze(0),
];

struct InlineSetup {
    nets: Vec<Net>,
    daemon: Daemon,
}

pub fn run_inline(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let off = Tracer::new(false);
    let make = |tr: &Tracer| InlineSetup {
        nets: INLINE_NETS.iter().map(|d| Net::new(d, tr)).collect(),
        daemon: Daemon::start(ctx.nproc),
    };
    let setup = timed_setup(&mut out, || make(tracer));
    let nets = &setup.nets;
    let addr = setup.daemon.addr;
    if ctx.trace {
        out.layers
            .insert("netkey.hash_ms", tracer.self_ms().get("netkey.hash").copied().unwrap_or(0.0));
    }
    let sizes: Vec<String> =
        INLINE_NETS.iter().zip(nets).map(|(d, n)| format!("{d} {} B", n.text.len())).collect();
    out.about.insert("networks", sizes.join(", "));
    out.about.insert("server_workers", ctx.nproc.to_string());
    out.about.insert("connections", ctx.nproc.to_string());
    out.about.insert("requests_per_round", MIX.len().to_string());

    // What-ifs run against p34392 under one spec seed, so the daemon's warm
    // workspace is reused; targets walk seeded permutations, so each
    // (op, target) is new to the result cache.
    let base = &nets[0];
    let ws_seed = ctx.seed;
    let ws_spec = base.spec(ws_seed);
    let ws_crit = base.crit(&ws_spec);
    let controls: Vec<NodeId> = base
        .net
        .muxes()
        .filter_map(|m| match base.net.node(m).kind.as_mux().map(|x| x.control) {
            Some(ControlSource::Cell { segment, .. }) => Some(segment),
            _ => None,
        })
        .collect();
    let harden_targets = shuffled(base.named(|_| true), ctx.seed ^ 1);
    let exclude_targets = shuffled(
        base.named(|j| base.net.node(j).kind.is_segment() && !controls.contains(&j)),
        ctx.seed ^ 2,
    );
    let weight_targets =
        shuffled(base.named(|j| base.net.instrument_at(j).is_some()), ctx.seed ^ 3);
    out.about.insert(
        "whatif_targets",
        format!(
            "harden {}, exclude {}, set_weights {}",
            harden_targets.len(),
            exclude_targets.len(),
            weight_targets.len()
        ),
    );
    let cost_model = CostModel::default();

    let clients = Clients::start(addr, ctx.nproc, tracer.epoch());
    let mut client_spans = Vec::new();
    let mut first_put: Option<Vec<u8>> = None;
    let mut whatif_ms = Vec::new();
    let mut replay_round: Option<Vec<(Endpoint, String)>> = None;
    let mut uses = [0usize; 3];

    run_rounds(ctx, tracer, &mut out, |round, tr, out| {
        let reqs: Vec<Req> = MIX
            .iter()
            .enumerate()
            .map(|(slot, &s)| {
                let seed = splitmix(ctx.seed ^ ((round as u64) << 8 | slot as u64));
                let mut pick = |k: usize, list: &[NodeId]| {
                    let t = list[uses[k] % list.len()];
                    uses[k] += 1;
                    t
                };
                let whatif = |op: &str, target: NodeId, extra: &str, kind: Kind| Req {
                    method: "POST",
                    path: "/v1/whatif",
                    endpoint: Endpoint::Whatif,
                    body: format!(
                        "{{\"network\":{},\"seed\":{ws_seed},\"op\":\"{op}\",\"target\":{}{extra}}}",
                        base.escaped,
                        json_string(&base.label(target))
                    ),
                    kind,
                };
                match s {
                    Slot::Analyze(n) => Req {
                        method: "POST",
                        path: "/v1/analyze",
                        endpoint: Endpoint::Analyze,
                        body: format!("{{\"network\":{},\"seed\":{seed}}}", nets[n].escaped),
                        kind: Kind::Analyze { net: n, seed },
                    },
                    Slot::Harden => {
                        let target = pick(0, &harden_targets);
                        whatif("harden", target, "", Kind::Harden { target })
                    }
                    Slot::Exclude => {
                        let target = pick(1, &exclude_targets);
                        whatif("exclude", target, "", Kind::Exclude { target })
                    }
                    Slot::SetWeights => {
                        let target = pick(2, &weight_targets);
                        let (obs, set) = (1 + seed % 97, 1 + (seed >> 8) % 97);
                        let extra = format!(",\"obs_weight\":{obs},\"set_weight\":{set}");
                        whatif("set_weights", target, &extra, Kind::SetWeights { target, obs, set })
                    }
                    Slot::Greedy => Req {
                        method: "POST",
                        path: "/v1/harden",
                        endpoint: Endpoint::Harden,
                        body: format!(
                            "{{\"network\":{},\"seed\":{seed},\"solver\":\"greedy\"}}",
                            base.escaped
                        ),
                        kind: Kind::Greedy { seed },
                    },
                    Slot::Put => Req {
                        method: "PUT",
                        path: "/v1/networks",
                        endpoint: Endpoint::Networks,
                        body: format!("{{\"network\":{}}}", base.escaped),
                        kind: Kind::Put,
                    },
                }
            })
            .collect();
        let reqs = Arc::new(reqs);
        let (answered, spans, _) = clients.round(Batch {
            reqs: Arc::clone(&reqs),
            keep: true,
            spans: tr.enabled() && client_spans.len() < MAX_CLIENT_SPANS,
            first_id: (round * MIX.len()) as u64,
            expected: None,
        });
        client_spans.extend(spans);
        for (req, a) in reqs.iter().zip(&answered) {
            if req.kind.is_whatif() && !tr.enabled() {
                whatif_ms.push(a.latency_ms);
            }
        }
        let responses = tally(out, tr, &reqs, answered);
        if replay_round.is_none() {
            replay_round = Some(reqs.iter().map(|r| (r.endpoint, r.body.clone())).collect());
        }

        // Checks, outside the timed requests but inside the round.
        for (req, resp) in reqs.iter().zip(&responses) {
            let Some(resp) = resp else { continue };
            let v = match json::parse(&resp.body) {
                Ok(v) => v,
                Err(e) => {
                    out.check(false, || format!("{}: unparsable response: {e}", req.path));
                    continue;
                }
            };
            match req.kind {
                Kind::Analyze { net, seed } => {
                    let want = nets[net].crit(&nets[net].spec(seed)).total_damage();
                    out.check(v.u64("total_damage") == Some(want), || {
                        format!(
                            "analyze {} seed {seed}: total_damage {:?}, tree path {want}",
                            INLINE_NETS[net],
                            v.u64("total_damage")
                        )
                    });
                }
                Kind::Harden { target } => {
                    let before = ws_crit.total_damage();
                    let after = before - ws_crit.damage(target);
                    out.check(
                        v.u64("total_damage_before") == Some(before) && v.u64("total_damage_after") == Some(after),
                        || format!("whatif harden {}: before/after {:?}/{:?}, tree path {before}/{after}", base.label(target), v.u64("total_damage_before"), v.u64("total_damage_after")),
                    );
                }
                Kind::Exclude { target } => {
                    out.check(v.u64("total_damage_before") == Some(ws_crit.total_damage()), || {
                        format!(
                            "whatif exclude {}: total_damage_before differs from the tree path",
                            base.label(target)
                        )
                    });
                }
                Kind::SetWeights { target, obs, set } => {
                    let mut spec = ws_spec.clone();
                    let inst =
                        base.net.instrument_at(target).expect("weight targets host instruments");
                    spec.set_weights(inst, obs, set);
                    let after = base.crit(&spec).total_damage();
                    out.check(
                        v.u64("total_damage_before") == Some(ws_crit.total_damage())
                            && v.u64("total_damage_after") == Some(after),
                        || {
                            format!(
                                "whatif set_weights {}: after {:?}, tree path {after}",
                                base.label(target),
                                v.u64("total_damage_after")
                            )
                        },
                    );
                }
                Kind::Greedy { seed } => {
                    let crit = base.crit(&base.spec(seed));
                    let total = crit.total_damage();
                    let max_cost: u64 =
                        crit.primitives().iter().map(|&j| cost_model.cost_of(&base.net, j)).sum();
                    out.check(
                        v.u64("total_damage") == Some(total) && v.u64("max_cost") == Some(max_cost),
                        || {
                            format!(
                                "greedy seed {seed}: totals {:?}/{:?}, expected {total}/{max_cost}",
                                v.u64("total_damage"),
                                v.u64("max_cost")
                            )
                        },
                    );
                    let points = v.get("front").and_then(|f| f.arr("solutions")).unwrap_or(&[]);
                    out.check(!points.is_empty(), || format!("greedy seed {seed}: empty front"));
                    let mut prev: Option<(u64, u64)> = None;
                    for p in points {
                        let ids: Vec<NodeId> = p
                            .arr("hardened")
                            .unwrap_or(&[])
                            .iter()
                            .filter_map(|x| match x {
                                json::Value::Num(n) => n.parse::<usize>().ok().map(NodeId::new),
                                _ => None,
                            })
                            .collect();
                        let cost: u64 = ids.iter().map(|&j| cost_model.cost_of(&base.net, j)).sum();
                        let damage = total - ids.iter().map(|&j| crit.damage(j)).sum::<u64>();
                        let (c, d) = (p.u64("cost"), p.u64("damage"));
                        out.check(c == Some(cost) && d == Some(damage), || {
                            format!("greedy seed {seed}: point {c:?}/{d:?} recomputes to {cost}/{damage}")
                        });
                        if let Some((pc, pd)) = prev {
                            out.check(cost > pc && damage < pd, || {
                                format!("greedy seed {seed}: dominated front point")
                            });
                        }
                        prev = Some((cost, damage));
                    }
                }
                Kind::Put => {
                    out.check(v.str("network_hash") == Some(base.hash_hex.as_str()), || {
                        "registration returned another hash than canonical_network_hash".to_string()
                    });
                    match &first_put {
                        None => first_put = Some(resp.body.clone()),
                        Some(first) => out.check(first == &resp.body, || {
                            "identical registrations returned different bodies".to_string()
                        }),
                    }
                }
                Kind::Key(_) => {}
            }
        }
    });

    repeat_setups(14, &mut out, || make(&off));

    let client_p50 = median(out.ops_ms.values());
    out.figures.insert("throughput_rps", MIX.len() as f64 / median(&out.rounds_s));
    out.figures.insert("latency_p50_ms", client_p50);
    add_tail(&mut out);
    out.figures.insert("whatif_p50_ms", median(&whatif_ms));
    if ctx.trace {
        tracer.extend(client_spans);
        scrape(&mut out, addr, client_p50);
        let bodies = replay_round.unwrap_or_default();
        replay(&mut out, tracer, &[], &bodies);
    }
    drop(clients);
    drop(setup);
    out
}

/// serve-hot: one small network registered once, submitted by hash under a
/// few job keys that all stay in the result cache.
const HOT_NET: &str = "q12710";
const HOT_ANALYZE_KEYS: usize = 3;
const HOT_ROUND: usize = 200;

struct HotSetup {
    net: Net,
    daemon: Daemon,
    /// (endpoint, path, body) of each job key.
    keys: Vec<(Endpoint, &'static str, String)>,
    /// The first answer to each key; every later answer must equal it.
    expected: Vec<Vec<u8>>,
    /// The registration body, replayed in process in traced runs.
    put_body: String,
}

pub fn run_hot(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let off = Tracer::new(false);
    let mut setup_errors = Vec::new();
    let make = |tr: &Tracer, errors: &mut Vec<String>| {
        let net = Net::new(HOT_NET, tr);
        let daemon = Daemon::start(ctx.nproc);
        let mut conn = Conn::connect(daemon.addr).expect("connecting to the daemon");
        let put_body = format!("{{\"network\":{}}}", net.escaped);
        let put = conn.request("PUT", "/v1/networks", put_body.as_bytes()).expect("registration");
        let put_ok = put.status == 200
            && json::parse(&put.body).ok().and_then(|v| v.str("network_hash").map(str::to_string))
                == Some(net.hash_hex.clone());
        if !put_ok {
            errors.push(format!("registration answered {}", put.status));
        }
        let target = net.named(|_| true)[0];
        let mut keys: Vec<(Endpoint, &'static str, String)> = (0..HOT_ANALYZE_KEYS)
            .map(|k| {
                let seed = splitmix(ctx.seed ^ k as u64);
                let body = format!("{{\"network_hash\":\"{}\",\"seed\":{seed}}}", net.hash_hex);
                (Endpoint::Analyze, "/v1/analyze", body)
            })
            .collect();
        keys.push((
            Endpoint::Whatif,
            "/v1/whatif",
            format!(
                "{{\"network_hash\":\"{}\",\"seed\":{},\"op\":\"harden\",\"target\":{}}}",
                net.hash_hex,
                ctx.seed,
                json_string(&net.label(target))
            ),
        ));
        // Warm the result cache: one miss per key.
        let expected: Vec<Vec<u8>> = keys
            .iter()
            .map(|(_, path, body)| {
                let r = conn.request("POST", path, body.as_bytes()).expect("warm-up request");
                if r.status != 200 {
                    errors.push(format!("warm-up {path} answered {}", r.status));
                }
                r.body
            })
            .collect();
        HotSetup { net, daemon, keys, expected, put_body }
    };
    let setup = timed_setup(&mut out, || make(tracer, &mut setup_errors));
    check_hot_keys(&mut out, &setup);
    out.about.insert("network", format!("{HOT_NET} {} B, by hash", setup.net.text.len()));
    out.about.insert("server_workers", ctx.nproc.to_string());
    out.about.insert("connections", ctx.nproc.to_string());
    out.about.insert("job_keys", setup.keys.len().to_string());
    out.about.insert("requests_per_round", HOT_ROUND.to_string());

    let reqs: Arc<Vec<Req>> = Arc::new(
        (0..HOT_ROUND)
            .map(|i| {
                let k = i % setup.keys.len();
                let (endpoint, path, body) = &setup.keys[k];
                Req {
                    method: "POST",
                    path,
                    endpoint: *endpoint,
                    body: body.clone(),
                    kind: Kind::Key(k),
                }
            })
            .collect(),
    );
    let expected = Arc::new(setup.expected.clone());
    let clients = Clients::start(setup.daemon.addr, ctx.nproc, tracer.epoch());
    let (mut client_spans, mut mismatched) = (Vec::new(), 0);
    run_rounds(ctx, tracer, &mut out, |round, tr, out| {
        let (answered, spans, mismatches) = clients.round(Batch {
            reqs: Arc::clone(&reqs),
            keep: false,
            spans: tr.enabled() && client_spans.len() < MAX_CLIENT_SPANS,
            first_id: (round * HOT_ROUND) as u64,
            expected: Some(Arc::clone(&expected)),
        });
        client_spans.extend(spans);
        mismatched += mismatches;
        tally(out, tr, &reqs, answered);
    });
    out.check(mismatched == 0, || {
        format!("{mismatched} cached answers differ from the first answer to their key")
    });

    repeat_setups(14, &mut out, || make(&off, &mut setup_errors));
    for e in setup_errors {
        out.check(false, || e);
    }

    let client_p50 = median(out.ops_ms.values());
    out.figures.insert("throughput_rps", HOT_ROUND as f64 / median(&out.rounds_s));
    out.figures.insert("latency_p50_ms", client_p50);
    add_tail(&mut out);
    if ctx.trace {
        tracer.extend(client_spans);
        scrape(&mut out, setup.daemon.addr, client_p50);
        let warm: Vec<(Endpoint, String)> =
            std::iter::once((Endpoint::Networks, setup.put_body.clone()))
                .chain(setup.keys.iter().map(|(e, _, b)| (*e, b.clone())))
                .collect();
        let bodies: Vec<(Endpoint, String)> =
            reqs.iter().map(|r| (r.endpoint, r.body.clone())).collect();
        replay(&mut out, tracer, &warm, &bodies);
    }
    drop(clients);
    drop(setup);
    out
}

/// The warm-up answers against the benchmark's own tree-path analysis.
fn check_hot_keys(out: &mut Outcome, setup: &HotSetup) {
    let net = &setup.net;
    for (k, ((endpoint, _, body), answer)) in setup.keys.iter().zip(&setup.expected).enumerate() {
        let (Ok(req), Ok(v)) = (json::parse(body.as_bytes()), json::parse(answer)) else {
            out.check(false, || format!("key {k}: unparsable body or answer"));
            continue;
        };
        let seed = req.u64("seed").expect("every key carries a seed");
        let crit = net.crit(&net.spec(seed));
        match endpoint {
            Endpoint::Analyze => {
                out.check(v.u64("total_damage") == Some(crit.total_damage()), || {
                    format!(
                        "key {k}: total_damage {:?}, tree path {}",
                        v.u64("total_damage"),
                        crit.total_damage()
                    )
                })
            }
            _ => {
                let target = net.named(|_| true)[0];
                let after = crit.total_damage() - crit.damage(target);
                out.check(
                    v.u64("total_damage_before") == Some(crit.total_damage())
                        && v.u64("total_damage_after") == Some(after),
                    || format!("key {k}: what-if totals differ from the tree path"),
                );
            }
        }
    }
}

/// Adds the latency tail figure: the highest percentile with at least ten
/// samples beyond it, named with its sample count.
fn add_tail(out: &mut Outcome) {
    if let Some((p, v)) = tail(out.ops_ms.values()) {
        out.figures.insert("latency_tail_ms", v);
        out.figures.insert("latency_tail_percentile", p);
    }
    out.figures.insert("latency_samples", out.ops_ms.seen() as f64);
}

/// Reads the daemon's `/metrics`: cache hit ratios with their bases,
/// rejected submissions, and the daemon-side latency median.
fn scrape(out: &mut Outcome, addr: SocketAddr, client_p50: f64) {
    let Ok(resp) = Conn::connect(addr).and_then(|mut c| c.request("GET", "/metrics", b"")) else {
        out.check(false, || "GET /metrics failed".to_string());
        return;
    };
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    let value = |key: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(key).and_then(|rest| rest.trim().parse::<f64>().ok()))
            .unwrap_or(0.0)
    };
    let (hits, misses) = (value("rsnd_cache_hits_total "), value("rsnd_cache_misses_total "));
    let (ws_hits, ws_misses) =
        (value("rsnd_workspace_cache_hits_total "), value("rsnd_workspace_cache_misses_total "));
    let ratio = |h: f64, m: f64| if h + m > 0.0 { h / (h + m) } else { 0.0 };
    out.layers.insert("server.cache_hit_ratio", ratio(hits, misses));
    out.layers.insert("server.cache_lookups", hits + misses);
    out.layers.insert("server.workspace_cache_hit_ratio", ratio(ws_hits, ws_misses));
    out.layers.insert("server.workspace_cache_lookups", ws_hits + ws_misses);
    out.layers.insert("server.queue_rejected", value("rsnd_queue_rejected_total "));

    // Cumulative latency buckets summed over endpoints, then the median by
    // linear interpolation inside its bucket.
    let mut buckets: Vec<(f64, f64)> = Vec::new();
    for line in text.lines().filter(|l| l.starts_with("rsnd_request_latency_ms_bucket{")) {
        let Some(le) = line.split("le=\"").nth(1).and_then(|r| r.split('"').next()) else {
            continue;
        };
        let bound = if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap_or(f64::INFINITY) };
        let count: f64 = line.rsplit(' ').next().and_then(|c| c.parse().ok()).unwrap_or(0.0);
        match buckets.iter_mut().find(|(b, _)| *b == bound) {
            Some(entry) => entry.1 += count,
            None => buckets.push((bound, count)),
        }
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().map_or(0.0, |b| b.1);
    let mut server_p50 = 0.0;
    let (mut prev_bound, mut prev_count) = (0.0, 0.0);
    for &(bound, count) in &buckets {
        if count >= total / 2.0 && total > 0.0 {
            server_p50 = if bound.is_finite() && count > prev_count {
                prev_bound
                    + (bound - prev_bound) * (total / 2.0 - prev_count) / (count - prev_count)
            } else {
                prev_bound
            };
            break;
        }
        (prev_bound, prev_count) = (bound, count);
    }
    out.layers.insert("server.p50_ms", server_p50);
    out.layers.insert("client.transport_p50_ms", client_p50 - server_p50);
}

/// Replays one round of the run's own request bodies in process, through
/// the layers the daemon calls, with a span around each call: request JSON
/// parse, job resolution, the network registry, execution (or the warm
/// workspace for what-ifs). Like the daemon, a repeated job key is answered
/// from a cache without executing again. `warm` is replayed first, untraced.
fn replay(
    out: &mut Outcome,
    tr: &Tracer,
    warm: &[(Endpoint, String)],
    bodies: &[(Endpoint, String)],
) {
    let registry = Registry::open(None, Arc::new(Metrics::new())).expect("an in-memory registry");
    let mut cache: HashMap<String, usize> = HashMap::new();
    let mut workspaces = HashMap::new();
    let off = Tracer::new(false);
    let mut whatif_us = Vec::new();
    let mut bytes = 0usize;
    for (phase, list) in [(&off, warm), (tr, bodies)] {
        for (endpoint, body) in list {
            phase.next_request();
            let endpoint = *endpoint;
            let result = (|| -> Result<usize, wire::JobError> {
                let req = phase.span("wire.parse_request", || wire::parse_request(body))?;
                let job = phase.span("wire.resolve", || wire::resolve(endpoint, &req))?;
                let network = phase.span("registry.resolve", || match &job.network_hash {
                    Some(hex) => registry.lookup(hex),
                    None if endpoint == Endpoint::Networks => registry.register(&job.network),
                    None => registry.resolve_inline(&job.network),
                })?;
                if endpoint == Endpoint::Networks {
                    return Ok(phase
                        .span("wire.execute", || wire::networks_put_body(&network))?
                        .len());
                }
                let key = job.canonical_key_with(&network.hash);
                if let Some(&len) = cache.get(&key) {
                    return Ok(len);
                }
                let answer = if endpoint == Endpoint::Whatif {
                    let ws_key = job.workspace_key_with(&network.hash);
                    if !workspaces.contains_key(&ws_key) {
                        let ws = phase.span("workspace.build", || {
                            wire::build_workspace_with(
                                &job,
                                &network,
                                Parallelism::sequential(),
                                &Deadline::none(),
                            )
                        })?;
                        workspaces.insert(ws_key.clone(), ws);
                    }
                    let ws = workspaces.get_mut(&ws_key).expect("inserted above");
                    let t = Instant::now();
                    let answer = phase.span("workspace.whatif", || {
                        wire::execute_whatif(&job, ws, &Deadline::none())
                    })?;
                    if phase.enabled() {
                        whatif_us.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    answer
                } else {
                    phase.span("wire.execute", || {
                        wire::execute_with(
                            &job,
                            &network,
                            Parallelism::sequential(),
                            &Deadline::none(),
                        )
                    })?
                };
                cache.insert(key, answer.len());
                Ok(answer.len())
            })();
            match result {
                Ok(len) if phase.enabled() => bytes += len,
                Ok(_) => {}
                Err(e) => out
                    .check(false, || format!("in-process replay failed: {} {}", e.status, e.code)),
            }
        }
    }
    let self_ms = tr.self_ms();
    for (layer, span) in [
        ("wire.parse_request_ms", "wire.parse_request"),
        ("wire.resolve_ms", "wire.resolve"),
        ("registry.resolve_ms", "registry.resolve"),
        ("wire.execute_ms", "wire.execute"),
        ("workspace.build_ms", "workspace.build"),
    ] {
        out.layers.insert(layer, self_ms.get(span).copied().unwrap_or(0.0));
    }
    out.layers.insert(
        "workspace.whatif_us",
        if whatif_us.is_empty() { 0.0 } else { quantile(&whatif_us, 0.5) },
    );
    out.layers.insert("wire.response_bytes", bytes as f64);
}
