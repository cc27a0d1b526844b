//! Set-up and replay of a plan through `SecureCluster`'s public API.
//!
//! One client, closed loop: each operation is issued when the previous one
//! returns, and the simulated clock moves only at the tape's boundaries.
//! The untraced replay times each whole public call. The traced replay
//! issues the same tape but splits each composite call into the public
//! calls it makes internally, timing each piece under its layer's name;
//! since nothing overlaps, a piece's busy time is its self time.
//!
//! Between operations a [`Gauge`] reads the host's speed; the end-to-end
//! samples and the replay's wall time are scaled to the reference host's
//! speed when the replay ends (see [`crate::speed`]). The per-layer
//! samples of a traced replay stay as measured.

use crate::oracle::{Breach, Expect, Oracle};
use crate::speed::Gauge;
use crate::stats::Samples;
use crate::tape::{partition_names, Op, Plan, TokenRef, SISTER_REALMS};
use eus_core::fedauth::{
    shared_broker, BrokerPolicy, CredError, CredentialBroker, RealmId, SharedBroker, SignedToken,
};
use eus_core::sched::JobState;
use eus_core::simcore::{SimDuration, SimTime};
use eus_core::simnet::{Proto, SocketAddr};
use eus_core::simos::{FsError, Mode, NodeId, Uid};
use eus_core::{ClusterSpec, SecureCluster, SeparationConfig, HOME_REALM};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Bytes every `FsWrite` stores.
const FILE_BODY: &[u8] = b"request-path benchmark";

/// A drain that runs past this much simulated time is a stuck scheduler.
const DRAIN_LIMIT: SimDuration = SimDuration::from_secs(30 * 24 * 3600);

/// A cluster provisioned for one plan.
pub struct Env {
    /// The system under test.
    pub cluster: SecureCluster,
    /// Cluster uid of each population index.
    pub uids: Vec<Uid>,
    /// Trusted sister realms' credential planes.
    pub sisters: BTreeMap<u32, SharedBroker>,
    /// Sister tokens by mint index (set-up mints first).
    pub sister_tokens: Vec<SignedToken>,
}

/// Build the cluster of `plan` under `config`: nodes, partitions, every
/// account through `add_user`, project groups through the steward
/// workflow, and (with the credential plane) the trusted sister realms
/// with their standing token pool.
pub fn setup(plan: &Plan, config: SeparationConfig) -> Env {
    let federated = config.federated_auth;
    let config = if federated {
        config.with_trusted_realms(SISTER_REALMS)
    } else {
        config
    };
    let config = if plan.shape.fair_share {
        config.with_fair_share()
    } else {
        config
    };
    let spec = ClusterSpec {
        compute_nodes: plan.shape.compute_nodes,
        cores_per_node: 16,
        mem_per_node_mib: 65_536,
        gpus_per_node: 2,
        gpu_mem_bytes: 4096,
        login_nodes: 2,
    };
    let mut cluster = SecureCluster::new(config, spec);
    if plan.shape.partitions > 0 {
        let names = partition_names(plan.shape.partitions);
        let stripes = plan.shape.partitions as usize;
        let mut sched = cluster.sched.write();
        for (i, name) in names.iter().enumerate() {
            let nodes: Vec<NodeId> = cluster
                .compute_ids
                .iter()
                .copied()
                .skip(i)
                .step_by(stripes)
                .collect();
            sched
                .partitions_mut()
                .add(name, nodes, i == 0)
                .expect("fresh partition table");
        }
    }
    let uids: Vec<Uid> = plan
        .users
        .iter()
        .map(|name| cluster.add_user(name).expect("unique generated name"))
        .collect();
    for p in &plan.projects {
        let steward = uids[p.steward as usize];
        let gid = cluster
            .create_project(&p.name, steward)
            .expect("unique generated project");
        for m in &p.members {
            cluster
                .add_project_member(steward, gid, uids[*m as usize])
                .expect("steward adds a known user");
        }
    }
    let mut sisters = BTreeMap::new();
    let mut sister_tokens = Vec::new();
    if federated {
        for realm in SISTER_REALMS {
            let plane = shared_broker(CredentialBroker::new(
                RealmId(realm),
                0x5157_0000 + realm as u64,
                BrokerPolicy::default(),
            ));
            cluster.register_sister_realm(RealmId(realm), plane.clone());
            sisters.insert(realm, plane);
        }
        let db = cluster.db.read();
        for (user, realm) in &plan.sister_pool {
            let token = sisters[realm]
                .write()
                .login(&db, uids[*user as usize], None)
                .expect("sister realm knows every user");
            sister_tokens.push(token);
        }
    }
    Env {
        cluster,
        uids,
        sisters,
        sister_tokens,
    }
}

/// Per-layer accounting of a traced replay: wall-time samples of every
/// timed piece, plus the layers' outcome counters.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Samples by layer piece (`sched.run_until`, `core.ssh_raw`, ...).
    pub pieces: BTreeMap<&'static str, Samples>,
    /// `ensure_session` calls that re-minted the token or certificate.
    pub remints: u64,
    /// File operations the vfs refused.
    pub vfs_denied: u64,
    /// Connections the user-based firewall refused.
    pub connect_denied: u64,
}

impl Layers {
    fn time<R>(&mut self, piece: &'static str, f: impl FnOnce() -> R) -> R {
        let (r, ns) = timed(f);
        self.add(piece, ns);
        r
    }

    fn add(&mut self, piece: &'static str, ns: u64) {
        self.pieces.entry(piece).or_default().push(ns);
    }

    /// Pool another replay's samples and counters into this one.
    pub fn merge(&mut self, other: &Layers) {
        for (k, v) in &other.pieces {
            self.pieces.entry(k).or_default().extend(v);
        }
        self.remints += other.remints;
        self.vfs_denied += other.vfs_denied;
        self.connect_denied += other.connect_denied;
    }

    /// Total busy time over every piece, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.pieces.values().map(Samples::total_s).sum()
    }
}

/// What one replay measured and decided.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Wall time of the replay (set-up and speed readings excluded).
    pub wall_s: f64,
    /// The same at the reference host's speed.
    pub ref_wall_s: f64,
    /// How much slower than the reference the host ran (see
    /// [`crate::speed::Speed::slowness`]).
    pub slowness: f64,
    /// Operations attempted: tape operations plus drain boundaries.
    pub attempted: u64,
    /// Legitimate operations refused.
    pub failed: u64,
    /// Hash of every outcome and every job's start and end.
    pub fingerprint: u64,
    /// `ssh` and `portal_login` wall times. This and the next four hold
    /// times at the reference host's speed once the replay has ended.
    pub login: Samples,
    /// `fs_write`, `fs_read`, `listen` and `connect` wall times.
    pub access: Samples,
    /// `validate_federated_token` wall times.
    pub validate: Samples,
    /// `submit_at` wall times.
    pub submit: Samples,
    /// `advance_to` wall times.
    pub boundary: Samples,
    /// Simulated seconds from each revoke to the first denying probe.
    pub revoke_to_deny_s: Vec<f64>,
    /// Queue waits of every started job, simulated seconds.
    pub job_waits_s: Vec<f64>,
    /// Jobs that started.
    pub jobs_started: u64,
    /// Jobs that completed.
    pub jobs_completed: u64,
    /// Most jobs pending at any boundary.
    pub pending_peak: u64,
    /// Probes of revoked serials denied as revoked.
    pub denied_revoked: u64,
    /// Probes or validations refused because a replica was stale.
    pub denied_stale: u64,
    /// Per-layer split (traced replays only).
    pub layers: Option<Layers>,
}

/// Why a replay could not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// A cross-user operation was allowed, or a revoked serial was accepted
    /// past the staleness budget.
    Breach(Breach),
    /// After the drain, a submitted job was not completed exactly once.
    JobAccounting(String),
    /// An operation that later operations build on was refused.
    Dependency(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Breach(b) => write!(f, "separation breach: {b}"),
            ReplayError::JobAccounting(m) => write!(f, "job accounting: {m}"),
            ReplayError::Dependency(m) => write!(f, "{m}"),
        }
    }
}

impl From<Breach> for ReplayError {
    fn from(b: Breach) -> Self {
        ReplayError::Breach(b)
    }
}

/// Replay `plan` on a freshly set-up `env`. `traced` selects the split,
/// per-layer timing; `judge` turns the outcome oracle on (off only for the
/// informational baseline replay, where cross-user access is the point).
pub fn replay(
    env: &mut Env,
    plan: &Plan,
    traced: bool,
    judge: bool,
) -> Result<Outcome, ReplayError> {
    let mut r = Replayer {
        env,
        plan,
        layers: traced.then(Layers::default),
        oracle: Oracle::new(judge),
        out: Outcome::default(),
        revoked: Vec::new(),
        now: SimTime::ZERO,
        gauge: Gauge::start(),
    };
    for (idx, op) in plan.ops.iter().enumerate() {
        r.op(idx, op)?;
        r.gauge.tick();
    }
    // Drain: keep the tape's cadence until the queue is empty.
    let mut t = r.now;
    let mut idx = plan.ops.len();
    while {
        let s = r.env.cluster.sched.read();
        s.pending_count() + s.running_count() > 0
    } {
        t += plan.shape.boundary;
        if t.since(SimTime::ZERO) > DRAIN_LIMIT {
            return Err(ReplayError::JobAccounting(format!(
                "queue not drained by {t}"
            )));
        }
        r.op(idx, &Op::Boundary { t })?;
        r.gauge.tick();
        idx += 1;
    }
    let speed = r.gauge.finish();
    let out = &mut r.out;
    out.wall_s = speed.wall_s;
    out.ref_wall_s = speed.ref_wall_s;
    out.slowness = speed.slowness;
    for s in [
        &mut out.login,
        &mut out.access,
        &mut out.validate,
        &mut out.submit,
        &mut out.boundary,
    ] {
        s.rescale(&speed.factors);
    }
    r.finish()
}

struct Replayer<'a> {
    env: &'a mut Env,
    plan: &'a Plan,
    layers: Option<Layers>,
    oracle: Oracle,
    out: Outcome,
    /// Revoked sister tokens still being probed: (mint index, revoked at).
    revoked: Vec<(u32, SimTime)>,
    now: SimTime,
    gauge: Gauge,
}

/// Wall time of `f`, in nanoseconds, with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_nanos() as u64)
}

impl Replayer<'_> {
    fn uid(&self, user: u32) -> Uid {
        self.env.uids[user as usize]
    }

    fn home_path(&self, user: u32, file: u32) -> String {
        format!("/home/{}/f{file}", self.plan.users[user as usize])
    }

    fn login_node(&self, idx: u8) -> NodeId {
        let ids = &self.env.cluster.login_ids;
        ids[idx as usize % ids.len()]
    }

    fn compute_node(&self, idx: u16) -> NodeId {
        self.env.cluster.compute_ids[idx as usize]
    }

    fn op(&mut self, idx: usize, op: &Op) -> Result<(), ReplayError> {
        self.out.attempted += 1;
        let seg = self.gauge.segment();
        let federated = self.env.cluster.broker.is_some();
        match *op {
            Op::Ssh { user, login } => {
                let uid = self.uid(user);
                let node = self.login_node(login);
                let r = match self.layers.as_mut() {
                    None => {
                        let (r, ns) = timed(|| self.env.cluster.ssh(uid, node));
                        self.out.login.push_at(ns, seg);
                        r
                    }
                    Some(l) => {
                        ensure_session(l, &self.env.cluster, uid);
                        let (db, clone_ns) = timed(|| self.env.cluster.db.read().clone());
                        let (r, ns) =
                            timed(|| self.env.cluster.node_mut(node).login(&db, uid, "sshd"));
                        l.add("core.ssh_raw", ns);
                        let ((), drop_ns) = timed(|| drop(db));
                        l.add("simos.userdb_snapshot", clone_ns + drop_ns);
                        r
                    }
                };
                self.oracle.judge(idx, op, Expect::Allow, r.is_ok())?;
                if let Ok(sid) = r {
                    self.env.cluster.node_mut(node).logout(sid);
                }
            }
            Op::PortalLogin { user } => {
                let uid = self.uid(user);
                let r = match self.layers.as_mut() {
                    None => {
                        let (r, ns) = timed(|| self.env.cluster.portal_login(uid));
                        self.out.login.push_at(ns, seg);
                        r
                    }
                    Some(l) => {
                        let (db, clone_ns) = timed(|| self.env.cluster.db.read().clone());
                        let (r, ns) = timed(|| self.env.cluster.portal.auth.login(&db, uid));
                        l.add("portal.login", ns);
                        let ((), drop_ns) = timed(|| drop(db));
                        l.add("simos.userdb_snapshot", clone_ns + drop_ns);
                        r
                    }
                };
                self.oracle.judge(idx, op, Expect::Allow, r.is_ok())?;
            }
            Op::FsWrite { user, file } => {
                let uid = self.uid(user);
                let path = self.home_path(user, file);
                let node = self.login_node(0);
                let mode = Mode::new(0o600);
                let r = match self.layers.as_mut() {
                    None => {
                        let (r, ns) =
                            timed(|| self.env.cluster.fs_write(uid, node, &path, mode, FILE_BODY));
                        self.out.access.push_at(ns, seg);
                        r
                    }
                    Some(l) => {
                        let c = &self.env.cluster;
                        let ctx = l.time("simos.credentials", || c.user_fs_ctx(uid));
                        let r = l.time("simos.vfs", || {
                            c.node(node).fs_write(&ctx, &path, mode, FILE_BODY)
                        });
                        l.vfs_denied += r.is_err() as u64;
                        r
                    }
                };
                self.oracle.judge(idx, op, Expect::Allow, r.is_ok())?;
            }
            Op::FsReadOther { user, owner } => {
                let uid = self.uid(user);
                let path = self.home_path(owner, 0);
                let node = self.login_node(0);
                let r = match self.layers.as_mut() {
                    None => {
                        let (r, ns) = timed(|| self.env.cluster.fs_read(uid, node, &path));
                        self.out.access.push_at(ns, seg);
                        r
                    }
                    Some(l) => {
                        let c = &self.env.cluster;
                        let ctx = l.time("simos.credentials", || c.user_fs_ctx(uid));
                        let r = l.time("simos.vfs", || c.node(node).fs_read(&ctx, &path));
                        l.vfs_denied += r.is_err() as u64;
                        r
                    }
                };
                // Only a permission refusal keeps the other home opaque; a
                // read that gets as far as "no such file" already traversed
                // it.
                let refused = matches!(r, Err(FsError::PermissionDenied { .. }));
                self.oracle.judge(idx, op, Expect::Deny, !refused)?;
            }
            Op::Listen { user, node, port } => {
                let uid = self.uid(user);
                let node = self.compute_node(node);
                let r = match self.layers.as_mut() {
                    None => {
                        let (r, ns) =
                            timed(|| self.env.cluster.listen(uid, node, Proto::Tcp, port, None));
                        self.out.access.push_at(ns, seg);
                        r
                    }
                    Some(l) => {
                        let c = &mut self.env.cluster;
                        let cred = l.time("simos.credentials", || c.credentials(uid));
                        l.time("simnet.listen", || {
                            c.fabric.listen(
                                node,
                                Proto::Tcp,
                                port,
                                eus_core::simnet::PeerInfo::from_cred(&cred),
                            )
                        })
                    }
                };
                self.oracle.judge(idx, op, Expect::Allow, r.is_ok())?;
            }
            Op::Connect {
                user,
                owner,
                node,
                port,
            } => {
                let uid = self.uid(user);
                let to = SocketAddr::new(self.compute_node(node), port);
                let from = self.login_node(0);
                let r = match self.layers.as_mut() {
                    None => {
                        let (r, ns) = timed(|| self.env.cluster.connect(uid, from, to, Proto::Tcp));
                        self.out.access.push_at(ns, seg);
                        r
                    }
                    Some(l) => {
                        let c = &mut self.env.cluster;
                        let cred = l.time("simos.credentials", || c.credentials(uid));
                        let peer = eus_core::simnet::PeerInfo::from_cred(&cred);
                        let r = l.time("ubf.connect", || {
                            c.fabric.connect(from, peer, to, Proto::Tcp)
                        });
                        l.connect_denied += r.is_err() as u64;
                        r
                    }
                };
                let expect = if user == owner {
                    Expect::Allow
                } else {
                    Expect::Deny
                };
                self.oracle.judge(idx, op, expect, r.is_ok())?;
                if let Ok((conn, _)) = r {
                    self.env.cluster.fabric.close(conn);
                }
            }
            Op::SisterMint { user, realm } => {
                if !federated {
                    return Ok(());
                }
                let uid = self.uid(user);
                let plane = &self.env.sisters[&realm];
                let db = self.env.cluster.db.read();
                let (r, ns) = timed(|| plane.write().login(&db, uid, None));
                drop(db);
                if let Some(l) = self.layers.as_mut() {
                    l.add("fedauth.sister_login", ns);
                }
                self.oracle.judge(idx, op, Expect::Allow, r.is_ok())?;
                let token = r.map_err(|e| {
                    ReplayError::Dependency(format!("op #{idx}: sister mint refused: {e}"))
                })?;
                self.env.sister_tokens.push(token);
            }
            Op::Validate { token } => {
                if !federated {
                    return Ok(());
                }
                let (tok, expect) = self.resolve(token);
                let r = self.validate(&tok, false);
                if r.as_ref().is_ok_and(|u| *u != tok.user) {
                    return Err(Breach {
                        op: idx,
                        what: format!("{op:?} authenticated someone other than {}", tok.user),
                    }
                    .into());
                }
                self.oracle.judge(idx, op, expect, r.is_ok())?;
                self.out.denied_stale += matches!(r, Err(CredError::StaleReplica { .. })) as u64;
            }
            Op::Revoke { mint } => {
                if !federated {
                    return Ok(());
                }
                let tok = self.env.sister_tokens[mint as usize];
                let (fresh, ns) =
                    timed(|| self.env.cluster.portal_revoke_serial(tok.realm, tok.serial));
                if let Some(l) = self.layers.as_mut() {
                    l.add("revsync.revoke", ns);
                }
                self.oracle.judge(idx, op, Expect::Allow, fresh)?;
                self.revoked.push((mint, self.now));
            }
            Op::Submit { at, job } => {
                let mut spec = (*self.plan.jobs[job as usize]).clone();
                spec.user = self.uid(spec.user.0);
                let uid = spec.user;
                let ok = match self.layers.as_mut() {
                    None => {
                        let c = &mut self.env.cluster;
                        let (r, ns) =
                            timed(|| catch_unwind(AssertUnwindSafe(|| c.submit_at(at, spec))));
                        self.out.submit.push_at(ns, seg);
                        r.is_ok()
                    }
                    Some(l) => {
                        ensure_session(l, &self.env.cluster, uid);
                        let c = &mut self.env.cluster;
                        l.time("core.try_submit", || c.try_submit_at(at, spec))
                            .is_ok()
                    }
                };
                self.oracle.judge(idx, op, Expect::Allow, ok)?;
            }
            Op::Boundary { t } => self.boundary(idx, t)?,
        }
        Ok(())
    }

    /// The token a `TokenRef` names now, and whether it must validate.
    fn resolve(&self, token: TokenRef) -> (SignedToken, Expect) {
        match token {
            TokenRef::Home(user) => {
                let uid = self.uid(user);
                let broker = self.env.cluster.broker.as_ref().expect("federated");
                let tok = broker
                    .read()
                    .current_token(uid)
                    .expect("every provisioned user holds a token");
                let live = tok.expires > self.now;
                (tok, if live { Expect::Allow } else { Expect::Deny })
            }
            TokenRef::Sister(mint) => (self.env.sister_tokens[mint as usize], Expect::Allow),
        }
    }

    /// `validate_federated_token`, or its home/replica halves when traced.
    /// Probes of revoked serials are timed into the layers but are not
    /// samples of the end-to-end validate metric.
    fn validate(&mut self, tok: &SignedToken, probe: bool) -> Result<Uid, CredError> {
        let c = &self.env.cluster;
        match self.layers.as_mut() {
            None => {
                let (r, ns) = timed(|| c.validate_federated_token(tok));
                if !probe {
                    self.out.validate.push_at(ns, self.gauge.segment());
                }
                r
            }
            Some(l) => {
                let dir = c.federation.as_ref().expect("federated");
                if tok.realm == HOME_REALM {
                    l.time("fedauth.validate_home", || {
                        dir.validate_token_at(HOME_REALM, tok)
                    })
                } else {
                    let mesh = c.revsync.as_ref().expect("fedauth implies revsync");
                    let now = c.broker.as_ref().expect("federated").read().now();
                    l.time("revsync.validate", || {
                        dir.trust_gate(HOME_REALM, tok.realm)?;
                        mesh.validate_token_at(HOME_REALM, tok, now)
                    })
                }
            }
        }
    }

    fn boundary(&mut self, idx: usize, t: SimTime) -> Result<(), ReplayError> {
        let c = &mut self.env.cluster;
        match self.layers.as_mut() {
            None => {
                let ((), ns) = timed(|| c.advance_to(t));
                self.out.boundary.push_at(ns, self.gauge.segment());
            }
            Some(l) => {
                // The pieces `advance_to` runs first, each idempotent at
                // the same instant; what is left of `advance_to` is the
                // prolog/epilog reconcile plus the health and SLO pass.
                l.time("sched.run_until", || c.sched.write().run_until(t));
                if let Some(dir) = c.federation.as_mut() {
                    l.time("fedauth.advance", || dir.advance_to(t));
                }
                if let Some(mesh) = c.revsync.as_mut() {
                    l.time("revsync.pump", || mesh.pump(t));
                }
                l.time("portal.advance", || c.portal.auth.advance_to(t));
                l.time("core.reconcile", || c.advance_to(t));
            }
        }
        self.now = t;
        let pending = c.sched.read().pending_count() as u64;
        self.out.pending_peak = self.out.pending_peak.max(pending);
        self.oracle.note(idx, true);
        // Probe every revoked serial until the home site denies it.
        let max_lag = self.env.cluster.config.revsync_max_lag;
        let mut still = Vec::with_capacity(self.revoked.len());
        for (mint, at) in std::mem::take(&mut self.revoked) {
            let tok = self.env.sister_tokens[mint as usize];
            match self.validate(&tok, true) {
                Ok(_) => {
                    if t.since(at) > max_lag {
                        return Err(Breach::revoked_accepted(idx, tok.serial.0, at, t).into());
                    }
                    still.push((mint, at));
                }
                Err(e) => {
                    match e {
                        CredError::Revoked(_) => self.out.denied_revoked += 1,
                        CredError::StaleReplica { .. } => self.out.denied_stale += 1,
                        _ => {}
                    }
                    let lag = t.since(at).as_secs_f64();
                    self.out.revoke_to_deny_s.push(lag);
                    self.oracle.note_value(lag.to_bits());
                }
            }
        }
        self.revoked = still;
        Ok(())
    }

    /// Check job accounting after the drain and seal the fingerprint.
    fn finish(mut self) -> Result<Outcome, ReplayError> {
        let submits = self
            .plan
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Submit { .. }))
            .count();
        let sched = self.env.cluster.sched.read();
        if sched.jobs.len() != submits {
            return Err(ReplayError::JobAccounting(format!(
                "{} jobs known for {submits} submissions",
                sched.jobs.len()
            )));
        }
        for job in sched.jobs.values() {
            if job.state != JobState::Completed {
                return Err(ReplayError::JobAccounting(format!(
                    "job {} ended {:?}",
                    job.id.0, job.state
                )));
            }
            let started = job.started.expect("completed jobs started");
            let ended = job.ended.expect("completed jobs ended");
            self.oracle.note_value(job.id.0);
            self.oracle.note_value(started.as_micros());
            self.oracle.note_value(ended.as_micros());
        }
        let completed = sched.metrics.completed.get();
        if completed != submits as u64 {
            return Err(ReplayError::JobAccounting(format!(
                "{completed} completions for {submits} submissions"
            )));
        }
        self.out.jobs_started = sched.metrics.wait_times.len() as u64;
        self.out.jobs_completed = completed;
        self.out.job_waits_s = sched.metrics.wait_times.samples().to_vec();
        drop(sched);
        self.out.failed = self.oracle.failed();
        self.out.fingerprint = self.oracle.fingerprint();
        self.out.layers = self.layers;
        Ok(self.out)
    }
}

/// The credential refresh `ssh` and `submit_at` make first, timed alone.
fn ensure_session(l: &mut Layers, c: &SecureCluster, uid: Uid) {
    let Some(b) = &c.broker else {
        return;
    };
    let before = {
        let g = b.read();
        (g.current_token(uid), g.current_cert(uid))
    };
    let db = c.db.read();
    let _ = l.time("fedauth.ensure_session", || {
        b.write().ensure_session(&db, uid)
    });
    drop(db);
    let g = b.read();
    if (g.current_token(uid), g.current_cert(uid)) != before {
        l.remints += 1;
    }
}
