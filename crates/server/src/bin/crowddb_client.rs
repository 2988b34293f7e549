//! `crowddb-client` — interactive CDBP shell.
//!
//! ```text
//! crowddb-client [--addr HOST:PORT] [--tenant NAME] [--token TOKEN] [--seed N] [-c SQL]...
//! ```
//!
//! With `-c` statements it runs them and exits (scripting mode);
//! otherwise it reads statements from stdin, one per line, and prints
//! each result as a table plus its crowd-accounting line. `\metrics`
//! prints the server's Prometheus exposition; `\q` quits.

#![forbid(unsafe_code)]

use std::io::{BufRead, Write};
use std::process::ExitCode;

use crowddb_server::Client;

fn usage() -> ! {
    eprintln!(
        "usage: crowddb-client [--addr HOST:PORT] [--tenant NAME] [--token TOKEN] \
         [--seed N] [-c SQL]..."
    );
    std::process::exit(2);
}

fn run_one(client: &mut Client, line: &str) -> bool {
    match line.trim() {
        "" => true,
        "\\q" | "\\quit" => false,
        "\\metrics" => {
            match client.metrics() {
                Ok(text) => println!("{text}"),
                Err(e) => eprintln!("error: {e}"),
            }
            true
        }
        sql => {
            match client.query(sql) {
                Ok(r) => println!("{}", r.render()),
                Err(e) => eprintln!("error: {e}"),
            }
            true
        }
    }
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7583".to_string();
    let mut tenant = "public".to_string();
    let mut token = String::new();
    let mut seed = 42u64;
    let mut commands: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--addr" => addr = value(),
            "--tenant" => tenant = value(),
            "--token" => token = value(),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "-c" => commands.push(value()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }

    let mut client = match Client::connect(&addr, &tenant, &token, seed) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("crowddb-client: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "connected to {} ({}), session {}",
        addr,
        client.server(),
        client.session()
    );

    if !commands.is_empty() {
        for sql in &commands {
            if !run_one(&mut client, sql) {
                break;
            }
        }
    } else {
        let stdin = std::io::stdin();
        loop {
            eprint!("crowddb> ");
            let _ = std::io::stderr().flush();
            let mut line = String::new();
            match stdin.lock().read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if !run_one(&mut client, &line) {
                        break;
                    }
                }
            }
        }
    }

    match client.close() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("crowddb-client: close failed: {e}");
            ExitCode::FAILURE
        }
    }
}
