//! The `serve` command line, parsed in one place.
//!
//! [`SERVE_FLAGS`] is the one table of serve flags. Each entry names a
//! flag, says whether a router hands it on to the workers it spawns (and
//! under which name), and applies its value to a [`ServeArgs`].
//! `fastofd serve`, `fastofd serve --router` and the soak harness's child
//! servers all parse through [`ServeArgs::parse`], so a flag added here
//! is accepted, applied and forwarded everywhere at once.

use std::path::PathBuf;
use std::str::FromStr;

use ofd_core::FaultPlan;

use crate::peers::parse_peer_list;
use crate::router::RouterConfig;
use crate::server::ServeConfig;

/// One `serve` flag.
pub struct ServeFlag {
    /// Flag name without the leading `--`.
    pub name: &'static str,
    /// Whether the flag takes a value (`--name VALUE`); otherwise it is a
    /// bare switch.
    takes_value: bool,
    /// The name a router passes this flag's value to each worker under,
    /// if it passes it on at all.
    forward_as: Option<&'static str>,
    apply: fn(&mut ServeArgs, &str) -> Result<(), String>,
}

const fn local(name: &'static str, apply: fn(&mut ServeArgs, &str) -> Result<(), String>) -> ServeFlag {
    ServeFlag {
        name,
        takes_value: true,
        forward_as: None,
        apply,
    }
}

const fn forwarded(name: &'static str, apply: fn(&mut ServeArgs, &str) -> Result<(), String>) -> ServeFlag {
    ServeFlag {
        name,
        takes_value: true,
        forward_as: Some(name),
        apply,
    }
}

fn int<T: FromStr>(value: &str) -> Result<T, String> {
    value.parse().map_err(|_| "expects an integer".to_string())
}

/// Every `serve` flag, in the order they are applied.
pub const SERVE_FLAGS: &[ServeFlag] = &[
    ServeFlag {
        name: "router",
        takes_value: false,
        forward_as: None,
        apply: |a, _| {
            a.router_mode = true;
            Ok(())
        },
    },
    local("addr", |a, v| {
        a.serve.addr = v.to_owned();
        a.router.addr = v.to_owned();
        Ok(())
    }),
    // Engine threads of a plain server; worker *processes* under
    // `--router`, whose per-process thread count is `--worker-threads`.
    local("workers", |a, v| int(v).map(|n| (a.serve.workers, a.processes) = (n, n))),
    ServeFlag {
        name: "worker-threads",
        takes_value: true,
        forward_as: Some("workers"),
        apply: |_, v| int::<usize>(v).map(drop),
    },
    forwarded("queue-cap", |a, v| int(v).map(|n| a.serve.queue_cap = n)),
    forwarded("budget-ms", |a, v| int(v).map(|n| a.serve.budget_ms = n)),
    forwarded("max-body-mib", |a, v| int::<usize>(v).map(|mib| a.serve.max_body_bytes = mib * 1024 * 1024)),
    forwarded("rss-high-water-mib", |a, v| int(v).map(|n| a.serve.rss_high_water_mib = Some(n))),
    forwarded("breaker-failures", |a, v| int(v).map(|n| a.serve.breaker_threshold = n)),
    forwarded("breaker-cooldown-ms", |a, v| int(v).map(|n| a.serve.breaker_cooldown_ms = n)),
    forwarded("retry-after-ms", |a, v| int(v).map(|n| a.serve.retry_after_ms = n)),
    forwarded("head-timeout-ms", |a, v| {
        int(v).map(|ms| (a.serve.head_timeout_ms, a.router.head_timeout_ms) = (ms, ms))
    }),
    forwarded("peer-timeout-ms", |a, v| {
        int(v).map(|ms| (a.serve.peer_timeout_ms, a.router.peer_timeout_ms) = (ms, ms))
    }),
    // A router's workers share its root; the router itself only reads
    // the catalog under it, to route `dataset:` references.
    forwarded("checkpoint-dir", |a, v| {
        a.serve.checkpoint_dir = Some(PathBuf::from(v));
        a.router.catalog_dir = Some(PathBuf::from(v).join("catalog"));
        Ok(())
    }),
    forwarded("faults", |a, v| {
        FaultPlan::parse(v).map(|plan| a.serve.faults = plan).map_err(|e| e.to_string())
    }),
    // A router appends these hosts to its ring after its own workers; the
    // workers learn them too, for catalog read repair and checkpoint
    // shipping across the fleet.
    forwarded("peers", |a, v| parse_peer_list(v).map(|peers| a.serve.peers = peers)),
    local("probe-interval-ms", |a, v| int(v).map(|n| a.router.probe_interval_ms = n)),
];

/// A parsed `serve` command line.
#[derive(Debug)]
pub struct ServeArgs {
    /// `--router`: run the shard router instead of a server.
    pub router_mode: bool,
    /// The server a plain `serve` process runs.
    pub serve: ServeConfig,
    /// The router front end under `--router`.
    pub router: RouterConfig,
    /// Worker processes a router supervises (`--workers` under
    /// `--router`).
    pub processes: usize,
    /// The flags a router passes each worker: `--addr 127.0.0.1:0`
    /// (workers always bind an OS-assigned port and announce it) plus
    /// every forwarded flag that was given.
    pub worker_args: Vec<String>,
}

impl Default for ServeArgs {
    fn default() -> ServeArgs {
        ServeArgs {
            router_mode: false,
            serve: ServeConfig::default(),
            router: RouterConfig::default(),
            processes: 2,
            worker_args: vec!["--addr".into(), "127.0.0.1:0".into()],
        }
    }
}

impl ServeArgs {
    /// Parses `(name, value)` pairs (names without `--`; `None` for a
    /// flag given without a value). A name outside [`SERVE_FLAGS`] or a
    /// value flag without a value is an error naming the flag; when a
    /// flag repeats, its first occurrence wins.
    pub fn parse<'a>(
        given: impl IntoIterator<Item = (&'a str, Option<&'a str>)>,
    ) -> Result<ServeArgs, String> {
        let given: Vec<(&str, Option<&str>)> = given.into_iter().collect();
        if let Some((name, _)) = given
            .iter()
            .find(|(name, _)| !SERVE_FLAGS.iter().any(|f| f.name == *name))
        {
            return Err(format!("unknown serve flag --{name}"));
        }
        let mut args = ServeArgs::default();
        for flag in SERVE_FLAGS {
            let Some(&(_, value)) = given.iter().find(|(name, _)| *name == flag.name) else {
                continue;
            };
            let value = match (flag.takes_value, value) {
                (true, None) => return Err(format!("--{} expects a value", flag.name)),
                (true, Some(v)) => v,
                (false, _) => "",
            };
            (flag.apply)(&mut args, value).map_err(|e| format!("--{}: {e}", flag.name))?;
            if let Some(worker_name) = flag.forward_as {
                args.worker_args.push(format!("--{worker_name}"));
                args.worker_args.push(value.to_owned());
            }
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_reach_the_server_the_router_and_the_workers() {
        let args = ServeArgs::parse([
            ("router", None),
            ("workers", Some("3")),
            ("worker-threads", Some("4")),
            ("queue-cap", Some("8")),
            ("checkpoint-dir", Some("ckpt")),
            ("peer-timeout-ms", Some("1500")),
            ("probe-interval-ms", Some("100")),
            ("peers", Some("127.0.0.1:7001")),
        ])
        .expect("parse");
        assert!(args.router_mode);
        assert_eq!(args.processes, 3);
        assert_eq!(args.serve.queue_cap, 8);
        assert_eq!(args.router.peer_timeout_ms, 1500);
        assert_eq!(args.router.probe_interval_ms, 100);
        assert_eq!(args.router.catalog_dir, Some(PathBuf::from("ckpt").join("catalog")));
        assert_eq!(args.serve.peers.len(), 1);
        assert_eq!(
            args.worker_args,
            [
                "--addr", "127.0.0.1:0", "--workers", "4", "--queue-cap", "8",
                "--peer-timeout-ms", "1500", "--checkpoint-dir", "ckpt",
                "--peers", "127.0.0.1:7001",
            ],
            "router-only flags stay with the router; --worker-threads becomes --workers"
        );
    }

    #[test]
    fn bad_flags_are_named() {
        let err = ServeArgs::parse([("queue-capp", Some("4"))]).expect_err("unknown");
        assert!(err.contains("--queue-capp"), "{err}");
        let err = ServeArgs::parse([("queue-cap", Some("x"))]).expect_err("not an integer");
        assert!(err.contains("--queue-cap"), "{err}");
        let err = ServeArgs::parse([("budget-ms", None)]).expect_err("missing value");
        assert!(err.contains("--budget-ms"), "{err}");
    }
}
