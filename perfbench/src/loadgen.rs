//! Open-loop load: requests are due on a fixed schedule whether or not
//! earlier ones have answered, so a stall delays everything behind it and
//! shows in the latency of every later request.
//!
//! One process, two threads, at most two connections: the writes (stream
//! edits) go in schedule order on one lane, so the session sees them in a
//! known order; the reads (validate) on the other. Every request is timed
//! from when it was *due*, not from when the lane got round to sending it;
//! the difference is the generator's lag.

use std::time::{Duration, Instant};

use crate::stats::percentile;

/// p95 latency limit of a rung, and the latency a failed request counts as.
pub const LIMIT_MS: f64 = 100.0;
pub const FAILED_MS: f64 = 10_000.0;

/// A request still unanswered this long after the last one was due is
/// outstanding when the schedule ends, and counts as failed.
const DRAIN: Duration = Duration::from_secs(1);

/// Backlog growth (due minus answered) tolerated between the middle and
/// the end of a rung: what the two in-flight lanes can hold.
const BACKLOG_SLACK: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Write,
    Read,
}

/// Why a request failed.
pub enum Failure {
    /// Transport error or non-2xx reply.
    Refused(String),
    /// A 2xx reply with the wrong answer.
    Wrong(String),
}

/// One scheduled request.
pub struct Outcome {
    pub kind: Kind,
    /// Offsets from the phase start.
    pub due: Duration,
    pub sent: Option<Duration>,
    pub done: Option<Duration>,
    /// True when answered in time, 2xx and correct.
    pub ok: bool,
    /// True when the answer was 2xx but wrong.
    pub wrong: bool,
}

impl Outcome {
    /// Latency from due to answer in ms; a failed request counts as
    /// [`FAILED_MS`], past any limit.
    pub fn latency_ms(&self) -> f64 {
        match (self.ok, self.done) {
            (true, Some(done)) => (done.saturating_sub(self.due)).as_secs_f64() * 1000.0,
            _ => FAILED_MS,
        }
    }
}

/// All outcomes of one phase at one rate.
pub struct Phase {
    pub length: Duration,
    pub outcomes: Vec<Outcome>,
}

impl Phase {
    pub fn latencies(&self, kind: Option<Kind>) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| kind.is_none_or(|k| o.kind == k))
            .map(Outcome::latency_ms)
            .collect()
    }

    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok).count()
    }

    pub fn wrong(&self) -> usize {
        self.outcomes.iter().filter(|o| o.wrong).count()
    }

    /// Requests due by `t` and not yet answered by `t`.
    fn backlog(&self, t: Duration) -> usize {
        let due = self.outcomes.iter().filter(|o| o.due <= t).count();
        let answered = self
            .outcomes
            .iter()
            .filter(|o| o.done.is_some_and(|d| d <= t))
            .count();
        due.saturating_sub(answered)
    }

    /// The rung rule: every request answered correctly, p95 over both
    /// kinds within [`LIMIT_MS`], and the backlog not growing from the
    /// middle of the rung to its end.
    pub fn sustained(&self) -> bool {
        let p95 = percentile(&self.latencies(None), 95.0).unwrap_or(FAILED_MS);
        let mid = self.backlog(self.length / 2);
        let end = self.backlog(self.length);
        self.failed() == 0 && p95 <= LIMIT_MS && end <= mid + BACKLOG_SLACK
    }

    /// Correct replies per second, from the phase start to the last
    /// reply: the offered rate when every request is answered in time,
    /// less when replies fail or fall behind the schedule.
    pub fn delivered_rps(&self) -> f64 {
        let ok = self.outcomes.iter().filter(|o| o.ok).count();
        let last = self.outcomes.iter().filter_map(|o| o.done).max();
        last.map_or(0.0, |t| ok as f64 / t.as_secs_f64())
    }

    /// How late requests were sent, p95, in ms.
    pub fn lag_p95_ms(&self) -> f64 {
        let lags: Vec<f64> = self
            .outcomes
            .iter()
            .filter_map(|o| {
                o.sent
                    .map(|s| s.saturating_sub(o.due).as_secs_f64() * 1000.0)
            })
            .collect();
        percentile(&lags, 95.0).unwrap_or(0.0)
    }
}

/// Runs one phase: `rate` requests per second for `length`, alternating
/// read, write, read, … Each lane's `send` performs one request.
pub fn run_phase(
    rate: f64,
    length: Duration,
    write: &mut (dyn FnMut() -> Result<(), Failure> + Send),
    read: &mut (dyn FnMut() -> Result<(), Failure> + Send),
) -> Phase {
    let n = (rate * length.as_secs_f64()).round().max(2.0) as usize;
    let dues: Vec<(Kind, Duration)> = (0..n)
        .map(|i| {
            let kind = if i % 2 == 0 { Kind::Read } else { Kind::Write };
            (kind, Duration::from_secs_f64(i as f64 / rate))
        })
        .collect();
    let end = dues.last().map_or(Duration::ZERO, |d| d.1) + DRAIN;
    let start = Instant::now();
    let lane =
        |kind: Kind, send: &mut (dyn FnMut() -> Result<(), Failure> + Send)| -> Vec<Outcome> {
            let mut out = Vec::new();
            for &(_, due) in dues.iter().filter(|d| d.0 == kind) {
                let mut o = Outcome {
                    kind,
                    due,
                    sent: None,
                    done: None,
                    ok: false,
                    wrong: false,
                };
                if start.elapsed() < end {
                    if let Some(wait) = due.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    o.sent = Some(start.elapsed());
                    let result = send();
                    let done = start.elapsed();
                    o.done = Some(done);
                    match result {
                        Ok(()) => o.ok = done <= end,
                        Err(Failure::Wrong(msg)) => {
                            eprintln!("wrong answer: {msg}");
                            o.wrong = true;
                        }
                        Err(Failure::Refused(msg)) => eprintln!("request failed: {msg}"),
                    }
                }
                out.push(o);
            }
            out
        };
    let (mut writes, reads) = std::thread::scope(|s| {
        let w = s.spawn(|| lane(Kind::Write, write));
        let r = lane(Kind::Read, read);
        (w.join().expect("write lane panicked"), r)
    });
    writes.extend(reads);
    writes.sort_by_key(|o| o.due);
    Phase {
        length,
        outcomes: writes,
    }
}
