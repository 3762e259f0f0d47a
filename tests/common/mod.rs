//! A live `sdb serve` child process for the end-to-end tests.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::thread;

/// A running `sdb serve` process, SIGKILLed and reaped when dropped so a
/// failed assertion never leaves a server behind.
pub struct Server {
    pub child: Child,
    pub addr: SocketAddr,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `sdb serve --addr 127.0.0.1:0 ARGS...` and wait for its ready
/// line. The server runs under `sh -c`, so `limits` (shell commands such as
/// `ulimit -n 64`, or `""` for none) apply to the server process alone.
pub fn serve(limits: &str, args: &[&str]) -> Server {
    let script = format!("{limits}\nexec \"$0\" serve --addr 127.0.0.1:0 \"$@\"");
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(script)
        .arg(env!("CARGO_BIN_EXE_sdb"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sdb serve");
    let stdout = child.stdout.take().expect("captured stdout");
    let mut lines = BufReader::new(stdout).lines();
    let ready = lines
        .next()
        .expect("server exited before becoming ready")
        .expect("read ready line");
    let addr = ready
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected ready line {ready:?}"))
        .parse()
        .expect("parse listen address");
    // Keep draining stdout in the background so the child never blocks on a
    // full pipe.
    thread::spawn(move || for _ in lines {});
    Server { child, addr }
}
