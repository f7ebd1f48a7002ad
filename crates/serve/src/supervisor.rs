//! Worker-process supervision for the shard router.
//!
//! The router front process does not run engines itself — it spawns N
//! worker processes (each a full [`Server`](crate::Server) behind its
//! own OS-assigned port) and keeps them alive:
//!
//! * each worker is spawned with stdout piped and announces itself with
//!   a `listening on ADDR` banner, the same contract `serve_probe`'s
//!   child mode uses — workers always bind `:0` and report back, so the
//!   fleet never trips over a hard-coded port;
//! * a monitor thread polls the children; a worker that exits (crash,
//!   OOM-kill, SIGKILL) is respawned in place and the slot's address
//!   updated — `serve.router.respawned` counts these;
//! * a **restart-storm breaker** per slot: more than
//!   `max_restarts_in_window` respawns inside `restart_window` puts the
//!   slot in a cooldown instead of burning CPU on a crash loop (a worker
//!   that dies instantly — bad flags, missing binary — would otherwise
//!   respawn thousands of times a second). `serve.router.storm_cooldowns`
//!   counts trips; the slot rejoins the ring after the cooldown.
//!
//! The supervisor only spawns and respawns local workers and knows
//! nothing about HTTP routing; the [`Router`](crate::Router) reads the
//! live address set from it on every request and appends its fixed
//! `--peers` after it.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ofd_core::Obs;

/// How to launch one worker process. The same spec is reused for every
/// slot and every respawn; workers must print `listening on ADDR` as
/// their first stdout line (with `ADDR` parseable as a socket address,
/// optionally followed by more text).
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Program to execute (usually `current_exe()`).
    pub program: PathBuf,
    /// Arguments, e.g. `["serve", "--addr", "127.0.0.1:0", ...]`.
    pub args: Vec<String>,
}

/// Supervisor knobs; defaults are production-shaped.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Launch recipe shared by all slots.
    pub spec: WorkerSpec,
    /// Number of worker slots.
    pub workers: usize,
    /// How long to wait for a freshly spawned worker's banner before
    /// declaring the spawn failed.
    pub banner_timeout: Duration,
    /// Sliding window for the restart-storm breaker.
    pub restart_window: Duration,
    /// Respawns inside the window that trip the breaker.
    pub max_restarts_in_window: u32,
    /// How long a tripped slot sits out before the next respawn attempt.
    pub storm_cooldown: Duration,
    /// Metrics handle (`serve.router.respawned`, ...).
    pub obs: Obs,
}

impl SupervisorConfig {
    /// Defaults around a given launch spec.
    pub fn new(spec: WorkerSpec) -> SupervisorConfig {
        SupervisorConfig {
            spec,
            workers: 2,
            banner_timeout: Duration::from_secs(10),
            restart_window: Duration::from_secs(10),
            max_restarts_in_window: 5,
            storm_cooldown: Duration::from_secs(30),
            obs: Obs::enabled(),
        }
    }
}

/// One worker slot's live state.
struct Slot {
    child: Option<Child>,
    addr: Option<SocketAddr>,
    /// Respawn timestamps inside the storm window.
    restarts: VecDeque<Instant>,
    /// Set while the storm breaker holds the slot down.
    cooling_until: Option<Instant>,
}

struct Inner {
    cfg: SupervisorConfig,
    slots: Mutex<Vec<Slot>>,
    stopping: AtomicBool,
}

/// A running fleet of supervised worker processes.
pub struct Supervisor {
    inner: Arc<Inner>,
    monitor: Mutex<Option<JoinHandle<()>>>,
}

/// Spawns one worker and scrapes its `listening on ADDR` banner — the
/// one launcher for every process that announces itself that way (the
/// supervisor's workers, and the soak harness's server children). The
/// child's stdout keeps being drained after the banner so it never
/// blocks on a full pipe; a child that exits or stays silent for
/// `banner_timeout` is killed and reported as an error.
pub fn spawn_worker(spec: &WorkerSpec, banner_timeout: Duration) -> std::io::Result<(Child, SocketAddr)> {
    let mut child = Command::new(&spec.program)
        .args(&spec.args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdout = child.stdout.take().ok_or_else(|| {
        std::io::Error::other("worker spawned without a stdout pipe")
    })?;
    // The banner read happens on a side thread so a worker that never
    // prints can be timed out instead of hanging the supervisor.
    let (tx, rx) = mpsc::channel::<std::io::Result<SocketAddr>>();
    std::thread::Builder::new()
        .name("ofd-super-banner".into())
        .spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let sent = match reader.read_line(&mut line) {
                Ok(0) => Err(std::io::Error::other("worker exited before its banner")),
                Ok(_) => parse_banner(line.trim_end()),
                Err(e) => Err(e),
            };
            let _ = tx.send(sent);
            // Keep draining the pipe so the worker never blocks writing
            // to a full stdout buffer.
            let mut sink = [0u8; 4096];
            let mut reader = reader;
            while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
        })?;
    match rx.recv_timeout(banner_timeout) {
        Ok(Ok(addr)) => Ok((child, addr)),
        Ok(Err(e)) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(e)
        }
        Err(_) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(std::io::Error::other("worker banner timed out"))
        }
    }
}

/// Extracts the address token from a `listening on ADDR ...` banner
/// (trailing text, like `fastofd serve`'s worker/queue summary, is
/// ignored).
fn parse_banner(line: &str) -> std::io::Result<SocketAddr> {
    line.strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|token| token.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("unexpected worker banner {line:?}")))
}

impl Supervisor {
    /// Spawns the fleet and the monitor thread. Slots whose first spawn
    /// fails start in cooldown rather than failing the whole fleet — the
    /// monitor keeps trying, and a fleet with zero live workers is a
    /// valid (if useless) state the router answers 502 for.
    pub fn start(cfg: SupervisorConfig) -> std::io::Result<Supervisor> {
        let mut slots = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            let slot = match spawn_worker(&cfg.spec, cfg.banner_timeout) {
                Ok((child, addr)) => Slot {
                    child: Some(child),
                    addr: Some(addr),
                    restarts: VecDeque::new(),
                    cooling_until: None,
                },
                Err(_) => Slot {
                    child: None,
                    addr: None,
                    restarts: VecDeque::new(),
                    cooling_until: Some(Instant::now() + cfg.storm_cooldown),
                },
            };
            slots.push(slot);
        }
        let inner = Arc::new(Inner {
            cfg,
            slots: Mutex::new(slots),
            stopping: AtomicBool::new(false),
        });
        let monitor = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("ofd-super-monitor".into())
                .spawn(move || monitor_loop(&inner))?
        };
        Ok(Supervisor {
            inner,
            monitor: Mutex::new(Some(monitor)),
        })
    }

    /// Current worker addresses, one entry per slot (`None` while a slot
    /// is down or cooling off). Index order is stable, which is what
    /// keeps consistent-hash routing consistent across respawns.
    pub fn addrs(&self) -> Vec<Option<SocketAddr>> {
        self.inner
            .slots
            .lock()
            .expect("supervisor slots lock")
            .iter()
            .map(|s| s.addr)
            .collect()
    }

    /// Live worker process ids (for chaos harnesses to SIGKILL).
    pub fn pids(&self) -> Vec<Option<u32>> {
        self.inner
            .slots
            .lock()
            .expect("supervisor slots lock")
            .iter()
            .map(|s| s.child.as_ref().map(Child::id))
            .collect()
    }

    /// Hard-kills one worker (the chaos path — SIGKILL on unix). The
    /// monitor notices the exit and respawns the slot.
    pub fn kill_worker(&self, slot: usize) -> bool {
        let mut slots = self.inner.slots.lock().expect("supervisor slots lock");
        match slots.get_mut(slot).and_then(|s| s.child.as_mut()) {
            Some(child) => {
                let _ = child.kill();
                true
            }
            None => false,
        }
    }

    /// Stops the monitor and kills every worker. Workers that should
    /// drain gracefully get their `/admin/drain` from the router before
    /// this is called. Idempotent.
    pub fn stop(&self) {
        self.inner.stopping.store(true, Ordering::SeqCst);
        if let Some(m) = self.monitor.lock().expect("supervisor monitor lock").take() {
            let _ = m.join();
        }
        let mut slots = self.inner.slots.lock().expect("supervisor slots lock");
        for slot in slots.iter_mut() {
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            slot.addr = None;
        }
    }
}

fn monitor_loop(inner: &Inner) {
    while !inner.stopping.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
        let mut slots = inner.slots.lock().expect("supervisor slots lock");
        for slot in slots.iter_mut() {
            if inner.stopping.load(Ordering::SeqCst) {
                return;
            }
            // Reap an exited child; leave a running one alone.
            if let Some(child) = slot.child.as_mut() {
                match child.try_wait() {
                    Ok(None) => continue,
                    Ok(Some(_)) | Err(_) => {
                        slot.child = None;
                        slot.addr = None;
                    }
                }
            }
            // Slot is down. Storm breaker first.
            let now = Instant::now();
            if let Some(until) = slot.cooling_until {
                if now < until {
                    continue;
                }
                slot.cooling_until = None;
                slot.restarts.clear();
            }
            while let Some(&t) = slot.restarts.front() {
                if now.duration_since(t) > inner.cfg.restart_window {
                    slot.restarts.pop_front();
                } else {
                    break;
                }
            }
            if slot.restarts.len() >= inner.cfg.max_restarts_in_window as usize {
                slot.cooling_until = Some(now + inner.cfg.storm_cooldown);
                inner.cfg.obs.inc("serve.router.storm_cooldowns");
                continue;
            }
            match spawn_worker(&inner.cfg.spec, inner.cfg.banner_timeout) {
                Ok((child, addr)) => {
                    slot.child = Some(child);
                    slot.addr = Some(addr);
                    slot.restarts.push_back(now);
                    inner.cfg.obs.inc("serve.router.respawned");
                }
                Err(_) => {
                    // Spawn itself failed; that counts toward the storm.
                    slot.restarts.push_back(now);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake worker: prints a banner and sleeps. `sh` keeps these tests
    /// free of a real server binary (unix-only, like the CI runners).
    #[cfg(unix)]
    fn fake_worker(banner_port: u16, sleep_s: u32) -> WorkerSpec {
        WorkerSpec {
            program: PathBuf::from("/bin/sh"),
            args: vec![
                "-c".into(),
                format!("echo listening on 127.0.0.1:{banner_port}; sleep {sleep_s}"),
            ],
        }
    }

    #[cfg(unix)]
    fn cfg(spec: WorkerSpec, workers: usize) -> SupervisorConfig {
        SupervisorConfig {
            workers,
            banner_timeout: Duration::from_secs(5),
            restart_window: Duration::from_millis(400),
            max_restarts_in_window: 3,
            storm_cooldown: Duration::from_secs(60),
            obs: Obs::enabled(),
            ..SupervisorConfig::new(spec)
        }
    }

    #[test]
    fn banner_parsing_tolerates_trailing_text() {
        assert_eq!(
            parse_banner("listening on 127.0.0.1:8080 (workers=2, queue=64)").unwrap(),
            "127.0.0.1:8080".parse::<SocketAddr>().unwrap()
        );
        assert!(parse_banner("something else").is_err());
        assert!(parse_banner("listening on notanaddr").is_err());
    }

    #[cfg(unix)]
    #[test]
    fn spawns_and_reports_addresses() {
        let s = Supervisor::start(cfg(fake_worker(9001, 30), 2)).expect("start");
        let addrs = s.addrs();
        assert_eq!(addrs.len(), 2);
        assert!(addrs.iter().all(Option::is_some), "both slots live");
        s.stop();
    }

    #[cfg(unix)]
    #[test]
    fn respawns_a_killed_worker() {
        let obs = Obs::enabled();
        let mut c = cfg(fake_worker(9002, 30), 1);
        c.obs = obs.clone();
        let s = Supervisor::start(c).expect("start");
        let first_pid = s.pids()[0].expect("live worker");
        assert!(s.kill_worker(0));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(pid) = s.pids()[0] {
                if pid != first_pid {
                    break;
                }
            }
            assert!(Instant::now() < deadline, "worker never respawned");
            std::thread::sleep(Duration::from_millis(25));
        }
        assert!(obs.snapshot().counter("serve.router.respawned").unwrap_or(0) >= 1);
        s.stop();
    }

    #[cfg(unix)]
    #[test]
    fn restart_storm_puts_the_slot_in_cooldown() {
        // Workers that exit immediately after their banner crash-loop;
        // the breaker must trip instead of respawning forever.
        let obs = Obs::enabled();
        let mut c = cfg(fake_worker(9003, 0), 1);
        c.obs = obs.clone();
        c.restart_window = Duration::from_secs(10);
        c.max_restarts_in_window = 3;
        let s = Supervisor::start(c).expect("start");
        let deadline = Instant::now() + Duration::from_secs(15);
        while obs.snapshot().counter("serve.router.storm_cooldowns").unwrap_or(0) == 0 {
            assert!(Instant::now() < deadline, "storm breaker never tripped");
            std::thread::sleep(Duration::from_millis(25));
        }
        let respawns = obs.snapshot().counter("serve.router.respawned").unwrap_or(0);
        assert!(
            (1..=4).contains(&respawns),
            "respawns bounded by the storm window, got {respawns}"
        );
        assert_eq!(s.addrs()[0], None, "cooling slot reports no address");
        s.stop();
    }
}
