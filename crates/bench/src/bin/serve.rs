//! The campaign daemon: simulation-as-a-service over HTTP/1.1.
//!
//! Usage: `cargo run --release -p cpelide-bench --bin serve [-- --smoke]`
//!
//! Without flags the daemon binds `CPELIDE_SERVE_ADDR` (default
//! `127.0.0.1:8642`), keeps a warm `chiplet_harness::fleet` worker pool,
//! and serves the wire protocol of DESIGN.md §16 until a client POSTs
//! `/v1/shutdown`. With `--smoke` it runs the hermetic self-test instead
//! (boot on an ephemeral port, stream a sweep and stream it again from
//! the row memo, validate `/metrics`, shut down) — the CI smoke step.
//!
//! Environment:
//! - `CPELIDE_SERVE_ADDR=<host:port>`  bind address (port 0 = ephemeral).
//! - `CPELIDE_SERVE_QUEUE=<n>`         admission bound on queued cells
//!   (default 1024); overflowing requests are rejected whole with a 429.
//! - `CPELIDE_SERVE_TIMEOUT_MS=<ms>`   default per-request deadline
//!   (default: none); a request's own `timeout_ms` overrides it.
//! - `CPELIDE_JOBS=<n>`                worker threads (default: available
//!   parallelism; 1 under `CPELIDE_SMOKE=1`).
//! - `CPELIDE_RESULTS_DIR`, `CPELIDE_CACHE=0`  the shared `DiskCache`
//!   location, exactly as for `--bin campaign`.

use cpelide_bench::serve;

fn main() {
    if std::env::args().skip(1).any(|a| a == "--smoke") {
        match serve::smoke_self_test() {
            Ok(()) => println!("serve smoke: ok"),
            Err(e) => {
                eprintln!("serve smoke: FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let config = serve::ServeConfig::from_env();
    let server = match serve::spawn(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    println!(
        "serve: listening on http://{} ({} workers, queue bound {}, default timeout {})",
        server.addr(),
        config.workers,
        config.queue_bound,
        match config.default_timeout {
            Some(t) => format!("{} ms", t.as_millis()),
            None => "none".to_owned(),
        }
    );
    println!("serve: POST /v1/shutdown to stop");
    server.join();
    println!("serve: stopped");
}
