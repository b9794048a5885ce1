//! The serve workloads, timed: a real `cqa serve` subprocess over a Unix
//! socket, driven by two closed-loop clients with one persistent
//! connection each.

use crate::gen::{Op, Request, ServeWorkload};
use crate::{end_to_end, more_setups, Outcome, RssCheckpoint, Timed};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long to wait for the server to listen, or to exit after `shutdown`.
const SERVER_WAIT: Duration = Duration::from_secs(20);

/// The `CQA_*` variables of this process; the server is started without
/// them, so the benchmark measures the shipped defaults.
pub fn cqa_env_names() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CQA_"))
        .collect()
}

/// A running `cqa serve`. Dropping it kills the process if it is still
/// running and waits for it.
pub struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    /// Starts `cqa serve --socket SOCKET` with the `CQA_*` variables
    /// removed from its environment.
    pub fn spawn(cqa: &Path, socket: &Path) -> io::Result<Server> {
        let _ = std::fs::remove_file(socket);
        let mut cmd = Command::new(cqa);
        cmd.arg("serve")
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        for name in cqa_env_names() {
            cmd.env_remove(name);
        }
        Ok(Server {
            child: cmd.spawn()?,
            socket: socket.to_path_buf(),
        })
    }

    /// Connects, retrying until the server listens.
    pub fn connect(&mut self) -> io::Result<Client> {
        let deadline = Instant::now() + SERVER_WAIT;
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(stream) => {
                    return Ok(Client {
                        reader: BufReader::with_capacity(1 << 16, stream),
                        request: Vec::new(),
                        reply: String::new(),
                    })
                }
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => {
                    if let Some(status) = self.child.try_wait()? {
                        return Err(io::Error::other(format!(
                            "cqa serve exited early: {status}"
                        )));
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown` on a fresh connection and waits for the process to
    /// exit (all client connections must be closed first).
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut c = self.connect()?;
        c.round_trip(r#"{"op":"shutdown"}"#)?;
        drop(c);
        let deadline = Instant::now() + SERVER_WAIT;
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(io::Error::other("cqa serve did not exit after shutdown"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One persistent client connection.
pub struct Client {
    reader: BufReader<UnixStream>,
    request: Vec<u8>,
    reply: String,
}

impl Client {
    /// Sends one request line and returns the reply line.
    pub fn round_trip(&mut self, line: &str) -> io::Result<&str> {
        // One write per request: the line and its newline together.
        self.request.clear();
        self.request.extend_from_slice(line.as_bytes());
        self.request.push(b'\n');
        self.reader.get_mut().write_all(&self.request)?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.reply.trim_end())
    }

    /// Sends every line before reading any reply and returns the replies in
    /// order. A second thread writes, so neither side can stall on a full
    /// socket buffer.
    pub fn pipeline(&mut self, lines: &[&str]) -> io::Result<Vec<String>> {
        let mut writer = self.reader.get_ref().try_clone()?;
        let mut batch = Vec::new();
        for line in lines {
            batch.extend_from_slice(line.as_bytes());
            batch.push(b'\n');
        }
        std::thread::scope(|s| {
            let sent = s.spawn(move || writer.write_all(&batch));
            let mut replies = Vec::with_capacity(lines.len());
            for _ in lines {
                let mut reply = String::new();
                if self.reader.read_line(&mut reply)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
                replies.push(reply.trim_end().to_string());
            }
            sent.join().expect("writer thread panicked")?;
            Ok(replies)
        })
    }
}

/// The verdict a `solve` reply carries: `Some(bool)` for a definite
/// verdict, `None` for an error, a rejection or `inconclusive`.
pub fn reply_verdict(reply: &str) -> Option<bool> {
    if !reply.contains(r#""ok":true"#) {
        return None;
    }
    if reply.contains(r#""certainty":"certain""#) {
        Some(true)
    } else if reply.contains(r#""certainty":"not certain""#) {
        Some(false)
    } else {
        None
    }
}

/// Executes the artifact of an `emit` reply with the vendored Datalog
/// evaluator and reads its goal.
pub fn emit_reply_verdict(reply: &str) -> Option<bool> {
    let v = serde_json::from_str(reply).ok()?;
    if v.get("ok")?.as_bool()? {
        let text = v.get("artifact")?.as_str()?;
        let goal = v.get("goal")?.as_str()?;
        let program = cqa_emit::datalog::Program::parse(text).ok()?;
        let evaluation = cqa_emit::evaluate(&program).ok()?;
        Some(evaluation.holds(goal))
    } else {
        None
    }
}

/// Checks a reply on the spot; `emit` replies are only checked for `ok`
/// here and executed after the timed window.
pub fn reply_ok(req: &Request, reply: &str) -> bool {
    match req.op {
        Op::Solve | Op::Fallback => reply_verdict(reply) == Some(req.expected),
        Op::Emit => reply.contains(r#""ok":true"#),
    }
}

/// What one client thread brings back from the timed window.
#[derive(Default)]
struct ClientLog {
    /// Solve ops (failed ones with latency `u64::MAX`).
    ops: Vec<Timed>,
    /// Emit ops: (request, reply, timing) — checked after the window.
    emits: Vec<(usize, String, Timed)>,
    attempted: u64,
    failed: u64,
    end: Option<Instant>,
}

fn client_loop(
    client: &mut Client,
    wl: &ServeWorkload,
    stream: &[usize],
    start: Instant,
    stop: Instant,
    rss: &RssCheckpoint,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut next = 0usize;
    while Instant::now() < stop {
        let idx = stream[next % stream.len()];
        next += 1;
        let req = &wl.requests[idx];
        let t0 = Instant::now();
        let reply = client.round_trip(&req.line);
        let t1 = Instant::now();
        let timed = ((t1 - start).as_nanos() as u64, (t1 - t0).as_nanos() as u64);
        log.attempted += 1;
        rss.tick();
        match reply {
            Ok(reply) if req.op == Op::Emit && reply_ok(req, reply) => {
                log.emits.push((idx, reply.to_string(), timed))
            }
            Ok(reply) if reply_ok(req, reply) => log.ops.push(timed),
            Ok(_) => {
                log.failed += 1;
                log.ops.push((timed.0, u64::MAX));
            }
            Err(_) => {
                log.failed += 1;
                log.ops.push((timed.0, u64::MAX));
                break;
            }
        }
    }
    log.end = Some(Instant::now().max(start));
    log
}

/// One spawned server plus the two connections the clients will use, after
/// the warm-up pass (run on the first connection).
struct Warm {
    server: Server,
    clients: [Client; 2],
    elapsed: Duration,
    warmup_ok: bool,
}

/// Spawns a server, opens both client connections and runs the warm-up
/// pass, timing all of it.
///
/// The warm-up pass is pipelined, so set-up time is the server's start and
/// its cold work (plan builds above all), not one socket round trip per
/// line: those round trips are what the timed window measures, and on a
/// shared host their wake-up cost swings from run to run.
fn start_and_warm(cqa: &Path, socket: &Path, wl: &ServeWorkload) -> io::Result<Warm> {
    let t0 = Instant::now();
    let mut server = Server::spawn(cqa, socket)?;
    let mut a = server.connect()?;
    let b = server.connect()?;
    let lines: Vec<&str> = wl.warmup.iter().map(|&i| wl.requests[i].line.as_str()).collect();
    let replies = a.pipeline(&lines)?;
    let elapsed = t0.elapsed();
    let warmup_ok = wl.warmup.iter().zip(&replies).all(|(&i, reply)| {
        let req = &wl.requests[i];
        match req.op {
            Op::Emit => emit_reply_verdict(reply) == Some(req.expected),
            _ => reply_ok(req, reply),
        }
    });
    Ok(Warm {
        server,
        clients: [a, b],
        elapsed,
        warmup_ok,
    })
}

/// Runs throw-away set-ups while [`more_setups`] asks for them and returns
/// their times.
fn spare_setups(
    cqa: &Path,
    socket: &Path,
    wl: &ServeWorkload,
    out: &mut Outcome,
) -> io::Result<Vec<Duration>> {
    let mut done = Vec::new();
    while more_setups(&done) {
        let Warm {
            server,
            clients,
            elapsed,
            warmup_ok,
        } = start_and_warm(cqa, socket, wl)?;
        done.push(elapsed);
        out.setup_failed |= !warmup_ok;
        drop(clients);
        server.shutdown()?;
    }
    Ok(done)
}

/// Runs a serve workload for `seconds` and reports the end-to-end metrics.
pub fn run(cqa: &Path, run_dir: &Path, wl: &ServeWorkload, seconds: f64) -> io::Result<Outcome> {
    let socket = run_dir.join(format!("s{}.sock", std::process::id()));
    let mut out = Outcome::default();
    let mut setups = spare_setups(cqa, &socket, wl, &mut out)?;
    let Warm {
        server,
        clients: [mut a, mut b],
        elapsed,
        warmup_ok,
    } = start_and_warm(cqa, &socket, wl)?;
    setups.push(elapsed);
    out.setup_failed |= !warmup_ok;

    let rss = RssCheckpoint::new(wl.rss_after, Some(server.pid()));
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let (log_a, log_b) = std::thread::scope(|s| {
        let ta = s.spawn(|| client_loop(&mut a, wl, &wl.streams[0], start, stop, &rss));
        let tb = s.spawn(|| client_loop(&mut b, wl, &wl.streams[1], start, stop, &rss));
        (
            ta.join().expect("client thread panicked"),
            tb.join().expect("client thread panicked"),
        )
    });
    let end = log_a.end.max(log_b.end).unwrap_or(stop);
    let window = end - start;
    let rss = rss.value();
    drop((a, b));
    server.shutdown()?;
    setups.extend(spare_setups(cqa, &socket, wl, &mut out)?);

    let mut ops = log_a.ops;
    ops.extend(log_b.ops);
    out.attempted = log_a.attempted + log_b.attempted;
    out.failed = log_a.failed + log_b.failed;

    // Execute every distinct emitted artifact once and compare its goal to
    // the reference.
    let mut verdicts: HashMap<(usize, &str), bool> = HashMap::new();
    for (idx, reply, (end, ns)) in log_a.emits.iter().chain(log_b.emits.iter()) {
        let ok = *verdicts
            .entry((*idx, reply.as_str()))
            .or_insert_with(|| emit_reply_verdict(reply) == Some(wl.requests[*idx].expected));
        if ok {
            ops.push((*end, *ns));
        } else {
            out.failed += 1;
            ops.push((*end, u64::MAX));
        }
    }
    end_to_end(&mut out, ops, window, &setups, rss);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_verdicts() {
        assert_eq!(
            reply_verdict(r#"{"certainty":"certain","ok":true}"#),
            Some(true)
        );
        assert_eq!(
            reply_verdict(r#"{"certainty":"not certain","ok":true}"#),
            Some(false)
        );
        assert_eq!(
            reply_verdict(r#"{"certainty":"inconclusive","ok":true}"#),
            None
        );
        assert_eq!(
            reply_verdict(r#"{"error":"x","ok":false,"rejected":true}"#),
            None
        );
    }
}
