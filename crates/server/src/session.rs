//! Per-connection protocol state machine.
//!
//! A connection is either a *session* (magic, `Hello`, then a
//! `Query`/`Metrics` loop until `Close` or EOF) or a *cancel channel*
//! (magic, one `Cancel` frame, one response — the Postgres model: the
//! session connection is busy executing the statement being cancelled,
//! so cancellation must arrive on a fresh connection, authenticated by
//! the secret key from the session's `HelloOk`).
//!
//! Error containment follows the protocol's poisoning classification:
//! a payload-level problem (unknown opcode, trailing bytes, malformed
//! field) earns an `Error` response and the loop continues; a
//! framing-level problem (CRC mismatch, truncation) means the byte
//! stream can no longer be trusted, so the connection gets a final
//! `Error` frame and is closed — the server itself always keeps
//! accepting. No peer input can panic a session thread: every decode
//! path returns typed errors, and statement execution inherits the
//! engine's panic isolation.

use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crowddb_common::{CrowdError, Row, Value};
use crowddb_core::{CancelToken, Prepared, QueryResult};
use crowddb_obs::Event;
use crowddb_sql::Statement;

use crate::protocol::{
    decode_request, encode_response, read_frame, write_frame, ProtocolError, Request, Response,
    MAGIC, MAX_FRAME,
};
use crate::server::{fresh_cancel_key, SessionEntry, Shared};
use crate::tenant::tenant_metric;

/// The result a [`Response::RowSet`] carries for `r`: the wire sends
/// [`QueryResult`] itself, so this is a clone (kept for callers that
/// still build a row set through it).
pub fn wire_result(r: &QueryResult) -> QueryResult {
    r.clone()
}

fn send(stream: &mut TcpStream, resp: &Response) -> bool {
    match write_frame(stream, &encode_response(resp)) {
        Ok(()) => true,
        // The encoded response (a huge row set) exceeds the frame limit.
        // Nothing reached the wire, so the stream is still framed: tell
        // the client *why* with a typed error instead of letting the
        // peer's read_frame poison the connection.
        Err(ProtocolError::OversizedPayload(n)) => send_error(
            stream,
            "too_large",
            format!("result of {n} bytes exceeds the {MAX_FRAME}-byte frame limit"),
        ),
        Err(_) => false,
    }
}

fn send_error(stream: &mut TcpStream, category: &str, message: impl Into<String>) -> bool {
    send(
        stream,
        &Response::Error {
            category: category.into(),
            message: message.into(),
        },
    )
}

fn engine_error(e: &CrowdError) -> Response {
    Response::Error {
        category: e.category().into(),
        message: e.message().into(),
    }
}

/// Refuse a connection that exceeds the server-wide cap: a well-formed
/// `overloaded` Error frame (readable whether or not the client sent its
/// magic yet), then close.
pub(crate) fn refuse_overloaded(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    send_error(&mut stream, "overloaded", "server connection limit reached");
}

/// Refuse a connection that raced with the shutdown drain: its session
/// would otherwise run statements after the engine's final checkpoint.
pub(crate) fn refuse_shutting_down(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    send_error(&mut stream, "unavailable", "server is shutting down");
}

fn read_magic(stream: &mut TcpStream) -> Result<(), ProtocolError> {
    use std::io::Read;
    let mut magic = [0u8; 8];
    stream
        .read_exact(&mut magic)
        .map_err(|e| ProtocolError::Io(e.to_string()))?;
    if &magic != MAGIC {
        return Err(ProtocolError::BadMagic);
    }
    Ok(())
}

/// Run one accepted connection to completion.
pub(crate) fn run_connection(shared: &Arc<Shared>, mut stream: TcpStream, _conn_id: u64) {
    if read_magic(&mut stream).is_err() {
        send_error(&mut stream, "protocol", ProtocolError::BadMagic.to_string());
        return;
    }
    // First frame decides the connection kind: Hello opens a session,
    // Cancel makes this a one-shot cancel channel.
    let first = match read_frame(&mut stream).and_then(|p| decode_request(&p)) {
        Ok(req) => req,
        Err(e) => {
            send_error(&mut stream, "protocol", e.to_string());
            return;
        }
    };
    match first {
        Request::Cancel { session, key } => handle_cancel(shared, &mut stream, session, key),
        Request::Hello {
            tenant,
            token,
            seed,
        } => run_session(shared, stream, &tenant, &token, seed),
        _ => {
            send_error(
                &mut stream,
                "protocol",
                "first frame must be Hello or Cancel",
            );
        }
    }
}

fn handle_cancel(shared: &Arc<Shared>, stream: &mut TcpStream, session: u64, key: u64) {
    let delivered = {
        let sessions = shared.sessions.lock().expect("sessions lock");
        match sessions.get(&session) {
            Some(entry) if entry.cancel_key == key => {
                entry.cancel.cancel();
                true
            }
            _ => false,
        }
    };
    if delivered {
        send(stream, &Response::CancelOk);
    } else {
        // One message for both failure modes: a guesser learns nothing
        // about which session ids exist.
        send_error(stream, "auth", "no such session or bad cancel key");
    }
}

fn run_session(shared: &Arc<Shared>, mut stream: TcpStream, tenant: &str, token: &str, seed: u64) {
    let obs = Arc::clone(shared.engine.db().obs());
    let slot = match shared.tenants.connect(tenant, token) {
        Ok(slot) => slot,
        Err(e) => {
            if e.category() == "overloaded" {
                obs.registry()
                    .counter_inc(&tenant_metric("crowddb_server_overloaded_total", tenant));
            }
            send_error(&mut stream, e.category(), e.message());
            return;
        }
    };

    let session_id = shared.next_session.fetch_add(1, Ordering::SeqCst);
    let cancel_key = fresh_cancel_key(session_id);
    let cancel = CancelToken::new();
    shared.sessions.lock().expect("sessions lock").insert(
        session_id,
        SessionEntry {
            cancel_key,
            cancel: cancel.clone(),
        },
    );
    obs.registry()
        .counter_inc("crowddb_server_connections_total");
    obs.events().emit(Event::ConnectionOpened {
        tenant: tenant.to_string(),
        session: session_id,
    });

    let mut platform = (shared.platform)(seed);
    let mut requests: u64 = 0;
    // Subscriptions opened by this session; dropped on disconnect so a
    // vanished client cannot leave standing queries evaluating forever.
    let mut sub_ids: Vec<u64> = Vec::new();

    if send(
        &mut stream,
        &Response::HelloOk {
            session: session_id,
            cancel_key,
            server: shared.server_name.clone(),
        },
    ) {
        loop {
            let req = match read_frame(&mut stream).and_then(|p| decode_request(&p)) {
                Ok(req) => req,
                Err(ProtocolError::Closed) => break,
                Err(e) if e.poisons_stream() => {
                    // Framing is gone; say why and hang up. The accept
                    // loop is unaffected.
                    obs.registry()
                        .counter_inc("crowddb_server_protocol_errors_total");
                    send_error(&mut stream, "protocol", e.to_string());
                    break;
                }
                Err(e) => {
                    // Payload-level problem: scoped to this frame, the
                    // session survives.
                    obs.registry()
                        .counter_inc("crowddb_server_protocol_errors_total");
                    if !send_error(&mut stream, "protocol", e.to_string()) {
                        break;
                    }
                    continue;
                }
            };
            // A drain that began while we were executing: finish the
            // loop after responding (read side already shut down, the
            // next read_frame yields Closed).
            let resp = match req {
                Request::Close => {
                    send(&mut stream, &Response::CloseOk);
                    break;
                }
                Request::Metrics => Response::MetricsText {
                    text: shared.engine.db().metrics().to_prometheus(),
                },
                Request::Hello { .. } => Response::Error {
                    category: "protocol".into(),
                    message: "session already authenticated".into(),
                },
                Request::Cancel { .. } => Response::Error {
                    category: "protocol".into(),
                    message: "Cancel must be the first frame of a fresh connection".into(),
                },
                // SUBSCRIBE/UNSUBSCRIBE arriving as plain SQL route
                // through the same ownership tracking as the dedicated
                // frames: a subscription opened through the generic
                // query path would otherwise outlive its session (never
                // in `sub_ids`, so never dropped on disconnect) and
                // leak a standing query that re-evaluates forever.
                Request::Query { sql } => {
                    requests += 1;
                    let prepared = shared.engine.db().prepare(&sql);
                    match prepared.as_ref().map(Prepared::statement) {
                        Ok(Statement::Subscribe(_)) => open_subscription(
                            shared,
                            &obs,
                            slot.tenant(),
                            &sql,
                            &mut sub_ids,
                            // The embedded engine answers this statement
                            // with a one-row result set; so does the wire.
                            |id, _columns| {
                                Response::RowSet(QueryResult {
                                    columns: vec!["subscription_id".into()],
                                    rows: vec![Row::new(vec![Value::Int(id as i64)])],
                                    complete: true,
                                    ..Default::default()
                                })
                            },
                        ),
                        Ok(Statement::Unsubscribe { id }) => {
                            match close_subscription(shared, slot.tenant(), *id, &mut sub_ids) {
                                Response::UnsubscribeOk => Response::RowSet(QueryResult::ddl()),
                                other => other,
                            }
                        }
                        _ => execute_query(
                            shared,
                            &obs,
                            slot.tenant(),
                            prepared,
                            platform.as_mut(),
                            &cancel,
                        ),
                    }
                }
                Request::Subscribe { sql } => {
                    requests += 1;
                    open_subscription(
                        shared,
                        &obs,
                        slot.tenant(),
                        &sql,
                        &mut sub_ids,
                        |id, columns| Response::SubscribeOk { id, columns },
                    )
                }
                Request::Poll { id, max } => {
                    requests += 1;
                    // Ownership check: subscription ids are small and
                    // sequential on an engine shared by every tenant, so
                    // a session may only poll ids it opened — otherwise
                    // any session could guess another tenant's id and
                    // destructively drain (read) its delta stream.
                    if sub_ids.contains(&id) {
                        poll_subscription(shared, id, max)
                    } else {
                        unknown_subscription(id)
                    }
                }
                Request::Unsubscribe { id } => {
                    requests += 1;
                    close_subscription(shared, slot.tenant(), id, &mut sub_ids)
                }
            };
            if !send(&mut stream, &resp) {
                break;
            }
        }
    }

    // Disconnect (clean or not) drops this session's subscriptions and
    // returns their tenant slots.
    for id in sub_ids {
        let _ = shared.engine.db().unsubscribe(id);
        slot.tenant().release_subscription();
    }
    shared
        .sessions
        .lock()
        .expect("sessions lock")
        .remove(&session_id);
    obs.events().emit(Event::ConnectionClosed {
        tenant: tenant.to_string(),
        session: session_id,
        requests,
    });
}

/// The response for a subscription id this session does not own —
/// byte-identical to the engine's unknown-id error, so another
/// session's id is indistinguishable from a nonexistent one.
fn unknown_subscription(id: u64) -> Response {
    engine_error(&CrowdError::Exec(format!("no such subscription: {id}")))
}

/// Open a standing query owned by this session.
///
/// The id is recorded in `sub_ids` (the session's ownership list,
/// dropped on disconnect), a per-tenant subscription slot is taken, and
/// the initial evaluation — bind, optimize, and one full run of the
/// SELECT on a shared engine — pays the same local-tier admission toll
/// as a one-shot statement, so a burst of Subscribe frames cannot
/// bypass the server-wide concurrency cap. `ok` builds the success
/// response from the new id and its output columns (the dedicated
/// frame answers `SubscribeOk`; the SQL form answers a row set).
fn open_subscription(
    shared: &Arc<Shared>,
    obs: &Arc<crowddb_obs::Obs>,
    tenant: &Arc<crate::tenant::TenantState>,
    sql: &str,
    sub_ids: &mut Vec<u64>,
    ok: impl FnOnce(u64, Vec<String>) -> Response,
) -> Response {
    let name = tenant.config.name.clone();
    obs.registry()
        .counter_inc(&tenant_metric("crowddb_server_requests_total", &name));
    if !tenant.try_take_subscription() {
        obs.registry()
            .counter_inc(&tenant_metric("crowddb_server_overloaded_total", &name));
        return Response::Error {
            category: "overloaded".into(),
            message: format!("tenant '{name}' is at its subscription limit"),
        };
    }
    let timeout = shared.admission_timeout_secs;
    let mut advance = |t: f64| std::thread::sleep(Duration::from_secs_f64(t.clamp(0.0, 30.0)));
    // Local tier: standing evaluation never engages the crowd (it reads
    // memorized answers), so it must not occupy a crowd slot.
    let permit = match shared.admission.acquire(false, timeout, &mut advance) {
        Ok(p) => p,
        Err(e) => {
            tenant.release_subscription();
            obs.registry()
                .counter_inc(&tenant_metric("crowddb_server_overloaded_total", &name));
            obs.events().emit(Event::ServerOverloaded {
                tenant: name,
                crowd: false,
            });
            return engine_error(&e);
        }
    };
    let outcome = shared.engine.db().subscribe_id(sql);
    drop(permit);
    match outcome {
        Ok((id, columns)) => {
            sub_ids.push(id);
            ok(id, columns)
        }
        Err(e) => {
            tenant.release_subscription();
            engine_error(&e)
        }
    }
}

/// Drop a standing query, if this session owns it (the same ownership
/// rule as Poll), releasing its tenant slot.
fn close_subscription(
    shared: &Arc<Shared>,
    tenant: &Arc<crate::tenant::TenantState>,
    id: u64,
    sub_ids: &mut Vec<u64>,
) -> Response {
    if !sub_ids.contains(&id) {
        return unknown_subscription(id);
    }
    sub_ids.retain(|s| *s != id);
    tenant.release_subscription();
    match shared.engine.db().unsubscribe(id) {
        Ok(()) => Response::UnsubscribeOk,
        Err(e) => engine_error(&e),
    }
}

/// Drain up to `max` queued delta batches (at least one poll happens, so
/// a lag error always surfaces). Lag is reported alone — queued state was
/// already discarded by the engine — and the *next* poll resyncs.
fn poll_subscription(shared: &Arc<Shared>, id: u64, max: u32) -> Response {
    let db = shared.engine.db();
    let mut batches = Vec::new();
    for _ in 0..max.max(1) {
        match db.poll_subscription(id) {
            Ok(Some(b)) => batches.push(b),
            Ok(None) => break,
            Err(e) => {
                // An error frame carries no batches, so only error when
                // nothing was collected; otherwise deliver what was
                // drained and keep the error pending for the next Poll.
                // Failure states are sticky on their own; a lag error
                // was consumed by the poll that reported it, so re-arm
                // it — the contract is that lag always surfaces as the
                // typed error, never as a silent resync.
                if batches.is_empty() {
                    return engine_error(&e);
                }
                if matches!(e, CrowdError::SubscriptionLagged(_)) {
                    db.rearm_subscription_lag(id);
                }
                break;
            }
        }
    }
    Response::DeltaBatches { id, batches }
}

fn execute_query(
    shared: &Arc<Shared>,
    obs: &Arc<crowddb_obs::Obs>,
    tenant: &Arc<crate::tenant::TenantState>,
    prepared: crowddb_common::Result<Prepared<'_>>,
    platform: &mut dyn crowddb_platform::Platform,
    cancel: &CancelToken,
) -> Response {
    let name = tenant.config.name.clone();
    obs.registry()
        .counter_inc(&tenant_metric("crowddb_server_requests_total", &name));
    let prepared = match prepared {
        Ok(prepared) => prepared,
        Err(e) => return engine_error(&e),
    };

    // The tier is the engine's own admission rule, read off the plan: a
    // SELECT over purely machine tables is admitted on the local tier,
    // so a crowd flood at the crowd cap can never starve local reads.
    let crowd = prepared.may_touch_crowd();
    if crowd && tenant.exhausted() {
        // The governor would degrade gracefully to an empty partial
        // result; at the tenancy boundary an exhausted quota is a hard,
        // typed refusal so the client knows money is the reason.
        return Response::Error {
            category: "budget".into(),
            message: format!("tenant '{name}' crowd quota exhausted"),
        };
    }

    // Server-wide admission: the wait is real time (this is a live
    // server, not a simulation), bounded by the configured timeout.
    let timeout = shared.admission_timeout_secs;
    let mut advance = |t: f64| std::thread::sleep(Duration::from_secs_f64(t.clamp(0.0, 30.0)));
    let permit = match shared.admission.acquire(crowd, timeout, &mut advance) {
        Ok(p) => p,
        Err(e) => {
            obs.registry()
                .counter_inc(&tenant_metric("crowddb_server_overloaded_total", &name));
            obs.events().emit(Event::ServerOverloaded {
                tenant: name.clone(),
                crowd,
            });
            return engine_error(&e);
        }
    };

    // Reserve the statement's slice of the tenant quota: concurrent
    // statements split the remainder instead of each snapshotting it,
    // so collectively they cannot spend past the quota (plus one
    // statement's overshoot past the engine's budget pre-check).
    let (policy, hold) = tenant.begin_statement();
    let spent_before = platform.stats().cents_spent;
    let outcome = shared
        .engine
        .db()
        .execute_with_session(&prepared, platform, &policy, cancel);
    drop(permit);

    // The connection's platform is its own, so what it charged over the
    // call is this statement's spend — an errored, cancelled or
    // row-capped statement pays for the answers it bought too.
    let cents = platform.stats().cents_spent - spent_before;
    hold.settle(cents);
    if cents > 0 {
        obs.registry().counter_add(
            &tenant_metric("crowddb_crowd_cents_spent_total", &name),
            cents,
        );
    }
    match outcome {
        Ok(result) => Response::RowSet(result),
        Err(e) => engine_error(&e),
    }
}
