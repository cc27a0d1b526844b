//! Request-path benchmark for `SecureCluster`.
//!
//! A single-threaded, closed-loop client replays a seeded tape of
//! operations (logins, file and network access, federated token traffic,
//! revocations, job submissions and clock boundaries) through the public
//! API, checks every outcome against an oracle, and reports end-to-end
//! wall times. A traced replay of the same tape splits the wall time over
//! the crates on the request path. See `perfbench/README.md`.

pub mod oracle;
pub mod replay;
pub mod report;
pub mod speed;
pub mod stats;
pub mod tape;
