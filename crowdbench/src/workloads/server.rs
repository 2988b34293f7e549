//! `server_closed`: the `point_read` engine and statement stream behind
//! `Server::start` on loopback, driven by two closed-loop client
//! connections — so `server_closed − point_read` is the cost of the wire.
//! [`trace_wire`] is also the server part of `point_read`'s traced pass.

use std::sync::Arc;
use std::time::Instant;

use crowddb_core::{canonical_rows, CrowdDB, GovernorPolicy};
use crowddb_server::protocol::{
    decode_request, encode_request, encode_response, frame_response, Request, Response,
};
use crowddb_server::session::wire_result;
use crowddb_server::{Client, Server, ServerConfig, TenantConfig};

use crate::harness::{micros, Laps, Layers, Rep, Workload};
use crate::trace::{Span, Tracer};
use crate::workloads::point_read::{PointRead, OPS};
use crate::workloads::{head, p50, p95, silent_platform};

/// Client threads and connections: one per core of the two-core sandbox,
/// never more load generators than cores.
pub const CLIENTS: usize = 2;
const TENANT: &str = "bench";
/// Statements whose frames the traced pass re-encodes for the codec rows.
const CODEC_SAMPLES: usize = 500;
/// Statements sent over fresh connections before the timed window opens.
const WARM_OPS: usize = 200;

pub struct ServerClosed {
    reads: PointRead,
}

/// `(start, end)` of every statement the clients ran.
type ClientLog = Vec<(Instant, Instant)>;

fn latencies_us(log: &ClientLog) -> Vec<f64> {
    log.iter()
        .map(|(start, end)| micros(*end - *start))
        .collect()
}

impl ServerClosed {
    pub fn new(seed: u64) -> ServerClosed {
        ServerClosed {
            reads: PointRead::new(seed),
        }
    }
}

/// `reads`' stream as the clients of a server run it.
struct Wire<'a> {
    reads: &'a PointRead,
}

impl Wire<'_> {
    /// The fixed server configuration: one open tenant, both admission
    /// tiers armed well above two clients, refusals after 100 ms.
    fn start(&self, engine: CrowdDB) -> Result<Server, String> {
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            tenants: vec![TenantConfig::open(TENANT)],
            max_connections: 16,
            admission: GovernorPolicy {
                max_concurrent_statements: Some(8),
                max_concurrent_crowd_statements: Some(4),
                ..GovernorPolicy::default()
            },
            admission_timeout_secs: Some(0.1),
            platform: Arc::new(|_seed| Box::new(silent_platform())),
            server_name: "crowdbench".into(),
        };
        Server::start(config, engine).map_err(|e| format!("server start: {e}"))
    }

    /// Opens the client connections and sends each a few statements, so
    /// the timed loop starts on warm sessions.
    fn connect(&self, server: &Server) -> Result<Vec<Client>, String> {
        let mut clients = (0..CLIENTS)
            .map(|c| {
                Client::connect(
                    &server.addr().to_string(),
                    TENANT,
                    "",
                    self.reads.seed + c as u64,
                )
                .map_err(|e| format!("client connect: {e}"))
            })
            .collect::<Result<Vec<Client>, String>>()?;
        self.closed_loop(&mut clients, WARM_OPS, None)?;
        Ok(clients)
    }

    /// The closed loop: client `c` runs statements `c, c + CLIENTS, …`,
    /// each waiting for its reply before sending the next, every reply
    /// checked against the generator's model (and, when `embedded` is
    /// given, byte for byte against the embedded engine's rows).
    fn closed_loop(
        &self,
        clients: &mut [Client],
        ops: usize,
        embedded: Option<&[Vec<u8>]>,
    ) -> Result<(ClientLog, u64, f64), String> {
        let started = Instant::now();
        let outcomes: Vec<Result<(ClientLog, u64), String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut log = ClientLog::new();
                        let mut overloaded = 0;
                        for i in (c..ops).step_by(CLIENTS) {
                            let sql = &self.reads.stream[i].sql;
                            let t0 = Instant::now();
                            let reply = client.query(sql);
                            log.push((t0, Instant::now()));
                            match reply {
                                Ok(r) => {
                                    self.reads.check(i, &r.rows)?;
                                    if embedded.is_some_and(|e| e[i] != canonical_rows(&r.rows)) {
                                        return Err(format!(
                                            "server rows differ from embedded rows: {}",
                                            head(sql)
                                        ));
                                    }
                                }
                                Err(e) if e.is_overloaded() => overloaded += 1,
                                Err(e) => return Err(format!("{e}: {}", head(sql))),
                            }
                        }
                        Ok((log, overloaded))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let wall = started.elapsed().as_secs_f64();
        let mut all = ClientLog::new();
        let mut overloaded = 0;
        for outcome in outcomes {
            let (log, refused) = outcome?;
            all.extend(log);
            overloaded += refused;
        }
        Ok((all, overloaded, wall))
    }

    /// The stream on the embedded engine: per-statement wall time and the
    /// canonical bytes of every result.
    fn embedded_pass(&self, db: &CrowdDB) -> Result<(Vec<f64>, Vec<Vec<u8>>), String> {
        let mut platform = silent_platform();
        let mut micros_per = Vec::with_capacity(self.reads.stream.len());
        let mut bytes = Vec::with_capacity(self.reads.stream.len());
        for (i, op) in self.reads.stream.iter().enumerate() {
            let t0 = Instant::now();
            let r = db.execute(&op.sql, &mut platform);
            micros_per.push(micros(t0.elapsed()));
            let r = r.map_err(|e| format!("{e}: {}", head(&op.sql)))?;
            self.reads.check(i, &r.rows)?;
            bytes.push(canonical_rows(&r.rows));
        }
        Ok((micros_per, bytes))
    }
}

fn close(server: Server, clients: Vec<Client>) -> Result<(), String> {
    for client in clients {
        client.close().map_err(|e| format!("client close: {e}"))?;
    }
    server.join().map_err(|e| format!("server shutdown: {e}"))
}

impl Workload for ServerClosed {
    fn inputs(&self) -> Vec<(&'static str, String)> {
        let mut inputs = self.reads.inputs();
        inputs.retain(|(k, _)| *k != "threads");
        inputs.extend([
            ("client_connections", CLIENTS.to_string()),
            (
                "loop",
                "closed: a client sends its next statement after the reply".into(),
            ),
            (
                "admission",
                "8 statements, 4 crowd statements, refuse after 0.1 s".into(),
            ),
        ]);
        inputs
    }

    fn rep(&self, warm_up: bool) -> Result<Rep, String> {
        let wire = Wire { reads: &self.reads };
        let mut rep = Rep::default();
        let db = self.reads.engine(&mut rep.setup)?;
        // Warm-up only: every server row byte-equal to the embedded row.
        let embedded = match warm_up {
            true => Some(wire.embedded_pass(&db)?.1),
            false => None,
        };
        rep.setup.resume();
        let server = wire.start(db)?;
        let mut clients = wire.connect(&server)?;
        rep.setup.lap();

        let ops = if warm_up { OPS / 4 } else { OPS };
        let (log, overloaded, _) = wire.closed_loop(&mut clients, ops, embedded.as_deref())?;
        rep.clients = CLIENTS;
        rep.failed = overloaded;
        rep.latencies_us = latencies_us(&log);
        close(server, clients)?;
        Ok(rep)
    }

    fn trace(&self, tracer: &mut Tracer) -> Result<Layers, String> {
        trace_wire(&self.reads, self.reads.engine(&mut Laps::start())?, tracer)
    }
}

/// The traced pass of `reads`' stream over the wire, on `db`: the `server.*`
/// rows of the layer table (and `server_closed`'s `stmt.*` rows).
pub fn trace_wire(reads: &PointRead, db: CrowdDB, tracer: &mut Tracer) -> Result<Layers, String> {
    let wire = Wire { reads };
    let mut layers = Layers::new();
    let (embedded_us, embedded) = wire.embedded_pass(&db)?;

    // Codec rows: the frames the server decodes and encodes for the
    // first statements of the stream, timed in isolation.
    let mut platform = silent_platform();
    let (mut decode_us, mut encode_us, mut frame_bytes) = (Vec::new(), Vec::new(), 0usize);
    for op in &reads.stream[..CODEC_SAMPLES] {
        let id = tracer.begin_statement();
        let payload = encode_request(&Request::Query {
            sql: op.sql.clone(),
        });
        let (req, d) = tracer.span("server.decode_request", id, || decode_request(&payload));
        req.map_err(|e| format!("decode_request: {e}"))?;
        decode_us.push(micros(d));
        let result = db
            .execute(&op.sql, &mut platform)
            .map_err(|e| e.to_string())?;
        let response = Response::RowSet(wire_result(&result));
        let (bytes, d) = tracer.span("server.encode_response", id, || encode_response(&response));
        std::hint::black_box(bytes);
        encode_us.push(micros(d));
        frame_bytes += frame_response(&response).len();
    }

    let server = wire.start(db)?;
    let mut clients = wire.connect(&server)?;
    wire.closed_loop(&mut clients, OPS, Some(&embedded))?;
    let (log, refused_plain, plain_wall) = wire.closed_loop(&mut clients, OPS, None)?;
    let wire_us = latencies_us(&log);
    // The traced pass is the same loop with its log kept as spans.
    let (log, refused_traced, traced_wall) = wire.closed_loop(&mut clients, OPS, None)?;
    for (start, end) in log {
        tracer.begin_statement();
        tracer.record(Span {
            name: "server.roundtrip",
            parent: 0,
            start,
            end,
        });
    }
    close(server, clients)?;

    let n = reads.stream.len() as f64;
    let (roundtrip, local) = (p50(&wire_us), p50(&embedded_us));
    layers.insert("server.roundtrip_p50_us", roundtrip);
    layers.insert("server.stmts_per_s", n / plain_wall);
    layers.insert("server.wire_overhead_us", roundtrip - local);
    layers.insert("server.decode_request_us", p50(&decode_us));
    layers.insert("server.encode_response_us", p50(&encode_us));
    layers.insert(
        "server.frame_bytes_per_response",
        frame_bytes as f64 / CODEC_SAMPLES as f64,
    );
    layers.insert(
        "server.overloaded_share",
        (refused_plain + refused_traced) as f64 / (2.0 * n),
    );
    layers.insert("stmt.untraced_p50_us", roundtrip);
    layers.insert("stmt.untraced_p95_us", p95(&wire_us));
    layers.insert(
        "stmt.traced_p50_us",
        p50(&tracer.durations_us("server.roundtrip")),
    );
    layers.insert("stmt.count", n);
    layers.insert("trace_overhead", traced_wall / plain_wall);
    Ok(layers)
}
