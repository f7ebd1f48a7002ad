//! Child processes of the benchmark: one-shot CLI runs timed with their
//! peak RSS, and long-running servers that are always stopped.
//!
//! Every child runs in a process group of its own and is registered here
//! until it has been reaped, so the watchdog, the panic hook and the
//! normal exit path can all kill whatever is still running — including
//! the worker processes a router spawns into its group.

use std::io::{BufRead, BufReader, Read};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SIGKILL: i32 = 9;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two timevals,
/// then fourteen longs of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Process groups of children not yet reaped.
static LIVE_GROUPS: Mutex<Vec<i32>> = Mutex::new(Vec::new());

fn register(pid: i32) {
    LIVE_GROUPS.lock().expect("process registry lock").push(pid);
}

fn unregister(pid: i32) {
    LIVE_GROUPS
        .lock()
        .expect("process registry lock")
        .retain(|&p| p != pid);
}

/// SIGKILLs every registered process group. Safe to call from the panic
/// hook and the watchdog; a poisoned registry is still drained.
pub fn kill_all() {
    let groups = match LIVE_GROUPS.lock() {
        Ok(g) => g.clone(),
        Err(poisoned) => poisoned.into_inner().clone(),
    };
    for pgid in groups {
        kill_group(pgid);
    }
}

fn kill_group(pgid: i32) {
    // SAFETY: kill(2) takes plain integers and touches no memory of ours;
    // a negative pid addresses the process group the child leads.
    unsafe {
        kill(-pgid, SIGKILL);
    }
}

/// Outcome of one CLI run.
pub struct RunOutcome {
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    /// From spawn to reap.
    pub wall: Duration,
    /// `ru_maxrss` of the process, in KiB.
    pub max_rss_kib: u64,
    /// Captured standard output.
    pub stdout: String,
}

/// Runs `program args` to completion with stdout captured and stderr
/// discarded, measuring wall time from spawn to reap and the child's peak
/// RSS. Fails if the process cannot be spawned or outlives `limit`.
pub fn run_cli(
    program: &Path,
    args: &[String],
    dir: &Path,
    limit: Duration,
) -> Result<RunOutcome, String> {
    let out_path = dir.join(format!("stdout-{}.txt", std::process::id()));
    let out_file =
        std::fs::File::create(&out_path).map_err(|e| format!("{}: {e}", out_path.display()))?;
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(out_file)
        .stderr(Stdio::null())
        .process_group(0)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", program.display()))?;
    let pid = child.id() as i32;
    register(pid);
    // The child is reaped by wait4 below, never through `Child`, which
    // does not wait on drop.
    drop(child);
    let killer = std::thread::spawn({
        let deadline = start + limit;
        move || {
            while Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
                if !LIVE_GROUPS
                    .lock()
                    .expect("process registry lock")
                    .contains(&pid)
                {
                    return;
                }
            }
            kill_group(pid);
        }
    });
    let mut status: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live, writable and laid out as
    // wait4(2) expects (see `Rusage`); `pid` is our unreaped child.
    let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall = start.elapsed();
    // Kill any process the child left behind in its group, then release it.
    kill_group(pid);
    unregister(pid);
    killer
        .join()
        .map_err(|_| "watchdog thread panicked".to_string())?;
    if rc != pid {
        return Err(format!("wait4 failed for {}", program.display()));
    }
    let code = if status & 0x7f == 0 {
        Some((status >> 8) & 0xff)
    } else {
        None
    };
    if wall >= limit {
        return Err(format!("{} exceeded {:?}", program.display(), limit));
    }
    let stdout = std::fs::read_to_string(&out_path).unwrap_or_default();
    let _ = std::fs::remove_file(&out_path);
    Ok(RunOutcome {
        code,
        wall,
        max_rss_kib: usage.maxrss.max(0) as u64,
        stdout,
    })
}

/// A running `fastofd serve` process (plain or router). Dropping it kills
/// its whole process group and reaps it.
pub struct Server {
    child: Option<Child>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// The address from the `listening on ADDR` banner.
    pub addr: String,
}

impl Server {
    /// Starts `program args` and waits (up to `timeout`) for its banner.
    pub fn start(
        program: &Path,
        args: &[String],
        dir: &Path,
        timeout: Duration,
    ) -> Result<Server, String> {
        let mut child = Command::new(program)
            .args(args)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .process_group(0)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", program.display()))?;
        register(child.id() as i32);
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = std::sync::mpsc::channel();
        // The reader keeps draining stdout after the banner so the server
        // never blocks on a full pipe; it ends when the server exits.
        let reader = std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let mut sent = false;
            while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                if !sent {
                    if let Some(rest) = line.strip_prefix("listening on ") {
                        let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                        let _ = tx.send(addr);
                        sent = true;
                    }
                }
                line.clear();
            }
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        });
        let mut server = Server {
            child: Some(child),
            reader: Some(reader),
            addr: String::new(),
        };
        match rx.recv_timeout(timeout) {
            Ok(addr) if !addr.is_empty() => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!(
                "{} printed no listening banner within {timeout:?}",
                program.display()
            )),
        }
    }

    /// PID of the server process (the router in fleet mode).
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Kills the process group and reaps the leader.
    pub fn stop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let pid = child.id() as i32;
            kill_group(pid);
            let _ = child.wait();
            unregister(pid);
            wait_group_gone(pid);
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Waits (bounded) until no live process is left in group `pgid`: the
/// router's workers are reparented and reaped by init, not by us.
fn wait_group_gone(pgid: i32) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if group_members(pgid).is_empty() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// PIDs of the non-zombie processes in group `pgid`, from `/proc`.
pub fn group_members(pgid: i32) -> Vec<u32> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return out;
    };
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // Fields after the parenthesised command: state ppid pgrp ...
        let Some(tail) = stat.rsplit_once(')').map(|(_, t)| t) else {
            continue;
        };
        let fields: Vec<&str> = tail.split_whitespace().collect();
        if fields.len() > 2 && fields[0] != "Z" && fields[2].parse::<i32>() == Ok(pgid) {
            out.push(pid);
        }
    }
    out
}

/// `VmHWM` of a process in KiB (0 if it is gone).
pub fn vm_hwm_kib(pid: u32) -> u64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Sum of `VmHWM` over every process in the server's group: the server
/// alone, or the router plus its workers.
pub fn group_hwm_kib(server: &Server) -> u64 {
    group_members(server.pid() as i32)
        .into_iter()
        .map(vm_hwm_kib)
        .sum()
}

/// A fresh, empty directory.
pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
