//! `crowddb-serve` — serve a CrowdDB database over CDBP.
//!
//! ```text
//! crowddb-serve [--addr HOST:PORT] [--data DIR] [--tenant NAME[:TOKEN[:QUOTA_CENTS]]]...
//!               [--max-connections N] [--max-statements N] [--max-crowd-statements N]
//! ```
//!
//! With no `--data` the database is in-memory (gone at exit); with it,
//! the directory is opened durably and the drain checkpoint lands there.
//! With no `--tenant` a single open tenant `public` (empty token,
//! unmetered) is served. Crowd work runs against the AMT-flavored
//! simulated platform, seeded per session by each client's `Hello`.
//!
//! The server drains on stdin EOF or a `shutdown` line — wrap it in
//! your process supervisor of choice and close its stdin to stop it.

#![forbid(unsafe_code)]

use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;

use crowddb_core::{CrowdConfig, CrowdDB, GovernorPolicy};
use crowddb_platform::{PerfectModel, SimPlatform};
use crowddb_server::{Server, ServerConfig, TenantConfig};

fn usage() -> ! {
    eprintln!(
        "usage: crowddb-serve [--addr HOST:PORT] [--data DIR] \
         [--tenant NAME[:TOKEN[:QUOTA_CENTS[:MAX_SUBS]]]]... [--max-connections N] \
         [--max-statements N] [--max-crowd-statements N]"
    );
    std::process::exit(2);
}

fn parse_tenant(spec: &str) -> TenantConfig {
    let mut parts = spec.splitn(4, ':');
    let name = parts.next().unwrap_or_default().to_string();
    let token = parts.next().unwrap_or("").to_string();
    let quota_cents = parts.next().map(|q| {
        q.parse().unwrap_or_else(|_| {
            eprintln!("bad quota in --tenant {spec}");
            std::process::exit(2);
        })
    });
    let max_subscriptions = parts.next().map(|m| {
        m.parse().unwrap_or_else(|_| {
            eprintln!("bad subscription cap in --tenant {spec}");
            std::process::exit(2);
        })
    });
    TenantConfig {
        name,
        token,
        quota_cents,
        max_connections: None,
        max_subscriptions,
        policy: GovernorPolicy::default(),
    }
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7583".to_string();
    let mut data: Option<String> = None;
    let mut tenants: Vec<TenantConfig> = Vec::new();
    let mut max_connections = 64usize;
    let mut admission = GovernorPolicy::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => addr = value(),
            "--data" => data = Some(value()),
            "--tenant" => tenants.push(parse_tenant(&value())),
            "--max-connections" => max_connections = value().parse().unwrap_or_else(|_| usage()),
            "--max-statements" => {
                admission.max_concurrent_statements =
                    Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--max-crowd-statements" => {
                admission.max_concurrent_crowd_statements =
                    Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    if tenants.is_empty() {
        tenants.push(TenantConfig::open("public"));
    }

    let engine = match &data {
        Some(dir) => match CrowdDB::open_with_config(dir, CrowdConfig::default()) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("crowddb-serve: cannot open {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => CrowdDB::new(),
    };

    let config = ServerConfig {
        addr,
        tenants,
        max_connections,
        admission,
        admission_timeout_secs: Some(0.5),
        platform: Arc::new(|seed| Box::new(SimPlatform::amt(seed, Box::new(PerfectModel)))),
        server_name: format!("crowddb {}", env!("CARGO_PKG_VERSION")),
    };

    let server = match Server::start(config, engine) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("crowddb-serve: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("crowddb-serve listening on {}", server.addr());
    println!("(close stdin or type 'shutdown' to drain and exit)");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "shutdown" => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }

    println!("draining...");
    match server.join() {
        Ok(()) => {
            println!("checkpointed and stopped.");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("crowddb-serve: drain failed: {e}");
            ExitCode::FAILURE
        }
    }
}
