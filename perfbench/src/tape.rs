//! Workloads and the seeded operation tapes they generate.
//!
//! A tape is everything a replay issues, in order: request-path steps
//! (login, file and network access, federated token traffic, revocation),
//! job submissions and clock boundaries. Users are population indices;
//! the replay maps them to cluster uids. The same workload and seed always
//! give the same tape, and generating it touches no cluster, so its cost
//! is set-up cost.

use eus_core::sched::JobSpec;
use eus_core::simcore::{SimDuration, SimRng, SimTime};
use eus_core::simos::{Gid, GroupKind, Uid, UserDb};
use eus_core::workloads::{self, UserPopulation};
use std::sync::Arc;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Identity and access path: logins, file/network checks, federated
    /// token reads and writes; the scheduler nearly idle.
    LoginRush,
    /// Fair-share policy plane over four partitions, small population.
    FairshareStorm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::LoginRush, Workload::FairshareStorm];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LoginRush => "login_rush",
            Workload::FairshareStorm => "fairshare_storm",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size shape of this workload.
    pub fn shape(self) -> Shape {
        match self {
            Workload::LoginRush => Shape {
                users: 10_000,
                compute_nodes: 4,
                partitions: 0,
                fair_share: false,
                boundary: SimDuration::from_secs(1),
                request_steps: REQUEST_STEPS,
                cred_rounds: CRED_ROUNDS,
                validates_per_step: 50,
                jobs: Jobs::PerStep,
            },
            Workload::FairshareStorm => Shape {
                users: 500,
                compute_nodes: 1_024,
                partitions: 4,
                fair_share: true,
                boundary: SimDuration::from_secs(120),
                request_steps: REQUEST_STEPS,
                cred_rounds: CRED_ROUNDS,
                validates_per_step: 20,
                jobs: Jobs::Storm {
                    jobs: 30_000,
                    backlog_share: 0.3,
                    window: SimDuration::from_secs(2 * 3600),
                },
            },
        }
    }
}

/// Where a workload's jobs come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Jobs {
    /// One small job per request step, sized to keep a short queue.
    PerStep,
    /// `multi_partition_storm` over the partitions.
    Storm {
        /// Jobs in the storm.
        jobs: usize,
        /// Share submitted up front into the first partition.
        backlog_share: f64,
        /// Submission window.
        window: SimDuration,
    },
}

/// Size and cadence of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Accounts created through `add_user`.
    pub users: usize,
    /// 16-core / 64 GiB / 2-GPU compute nodes.
    pub compute_nodes: u32,
    /// Partitions the compute nodes are striped over (0 = none).
    pub partitions: u32,
    /// Run the scheduler's fair-share policy plane.
    pub fair_share: bool,
    /// Simulated time between clock boundaries.
    pub boundary: SimDuration,
    /// Request-path steps on the tape.
    pub request_steps: usize,
    /// Credential rounds (sister mint, validations, revocation) per
    /// request step.
    pub cred_rounds: usize,
    /// `validate_federated_token` calls per request step, spread over its
    /// credential rounds.
    pub validates_per_step: usize,
    /// The job stream.
    pub jobs: Jobs,
}

impl Shape {
    /// A few-second version of this shape for tests: same structure, far
    /// fewer users, steps and jobs.
    pub fn small(mut self) -> Shape {
        self.users = self.users.min(40);
        self.compute_nodes = self.compute_nodes.min(8);
        self.request_steps = 24;
        self.cred_rounds = 2;
        self.validates_per_step = self.validates_per_step.min(4);
        self.jobs = match self.jobs {
            Jobs::PerStep => Jobs::PerStep,
            Jobs::Storm { window, .. } => Jobs::Storm {
                jobs: 200,
                backlog_share: 0.3,
                window: SimDuration::from_secs(window.as_secs_f64() as u64 / 8),
            },
        };
        self
    }
}

/// Request steps on a full-size tape. A run pools the login and access
/// samples of several replays for their p99.
pub const REQUEST_STEPS: usize = 250;

/// Credential rounds per request step: every full-size tape revokes
/// 1 000 serials, so one replay's revoke-to-deny distribution carries a
/// p99 of its own (simulated time repeats exactly, so replays of one tape
/// cannot be pooled for it).
pub const CRED_ROUNDS: usize = 4;

/// Sister realms the home site trusts (realm ids).
pub const SISTER_REALMS: [u32; 2] = [2, 3];

/// Sister-realm tokens minted during set-up, so validation and revocation
/// have a standing pool from the first step.
pub const SISTER_POOL: usize = 64;

/// A federated token the tape refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenRef {
    /// The home-realm token the broker currently holds for a user.
    Home(u32),
    /// The token minted by the `n`-th sister mint (set-up mints first).
    Sister(u32),
}

/// One tape operation. `user`/`owner` are population indices.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `ssh` to a login node, then log out.
    Ssh { user: u32, login: u8 },
    /// `portal_login`. The portal session stays open, as a browser's
    /// would: logging out revokes, at the broker, the token this login
    /// minted, which is the user's current home token that later steps
    /// present.
    PortalLogin { user: u32 },
    /// Write a file in the user's own home (expected allowed).
    FsWrite { user: u32, file: u32 },
    /// Read a file in another user's home (expected denied).
    FsReadOther { user: u32, owner: u32 },
    /// `listen` on a compute node (expected allowed).
    Listen { user: u32, node: u16, port: u16 },
    /// `connect` from a login node to `owner`'s listener: allowed exactly
    /// when `user == owner`.
    Connect {
        user: u32,
        owner: u32,
        node: u16,
        port: u16,
    },
    /// Mint a sister-realm token (a credential write).
    SisterMint { user: u32, realm: u32 },
    /// `validate_federated_token` on a live token (a credential read).
    Validate { token: TokenRef },
    /// `portal_revoke_serial` of a live sister token (a credential write).
    Revoke { mint: u32 },
    /// `submit_at` of `jobs[job]`.
    Submit { at: SimTime, job: u32 },
    /// `advance_to(t)`.
    Boundary { t: SimTime },
}

/// A project group as the population generator built it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Project {
    /// Group name.
    pub name: String,
    /// Population index of the steward.
    pub steward: u32,
    /// Population indices of the other members.
    pub members: Vec<u32>,
}

/// Everything one replay needs, generated from (workload, seed).
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload's shape.
    pub shape: Shape,
    /// Account names, by population index.
    pub users: Vec<String>,
    /// Project rosters.
    pub projects: Vec<Project>,
    /// Users who mint the set-up sister tokens, with their realm.
    pub sister_pool: Vec<(u32, u32)>,
    /// Job specs; `spec.user` holds the population index.
    pub jobs: Vec<Arc<JobSpec>>,
    /// The operations, in replay order.
    pub ops: Vec<Op>,
}

impl Plan {
    /// Generate the full-size plan of `workload`.
    pub fn generate(workload: Workload, seed: u64) -> Plan {
        Plan::with_shape(workload.shape(), seed)
    }

    /// Generate a plan of an explicit shape.
    pub fn with_shape(shape: Shape, seed: u64) -> Plan {
        let mut rng = SimRng::seed_from_u64(seed);
        // Rosters like `UserPopulation`: users/5 + 1 projects, Zipf
        // activity. Built in a scratch database; the replay re-creates the
        // same accounts through `add_user` and the project workflow.
        let mut db = UserDb::new();
        let pop = UserPopulation::build(
            &mut db,
            shape.users,
            shape.users / 5 + 1,
            1.1,
            &mut rng.fork(1),
        );
        let index_of = |uid: Uid| -> u32 { uid.0 - pop.users[0].0 };
        let users: Vec<String> = pop
            .users
            .iter()
            .map(|u| db.user(*u).expect("generated").name.clone())
            .collect();
        let projects = pop
            .projects
            .iter()
            .map(|g: &Gid| {
                let group = db.group(*g).expect("generated");
                let GroupKind::Project { stewards } = &group.kind else {
                    unreachable!("population projects are project groups")
                };
                let steward = *stewards.iter().next().expect("one steward");
                Project {
                    name: group.name.clone(),
                    steward: index_of(steward),
                    members: group
                        .members
                        .iter()
                        .filter(|m| **m != steward)
                        .map(|m| index_of(*m))
                        .collect(),
                }
            })
            .collect();

        let mut g = Gen {
            rng: rng.fork(2),
            pop: &pop,
            index_of: &index_of,
            minted: 0,
            live: Vec::new(),
            ops: Vec::new(),
            listens: 0,
            files: 0,
        };
        let sister_pool: Vec<(u32, u32)> = (0..SISTER_POOL)
            .map(|i| {
                let user = g.user();
                let realm = SISTER_REALMS[i % SISTER_REALMS.len()];
                g.live.push(g.minted);
                g.minted += 1;
                (user, realm)
            })
            .collect();

        let mut jobs: Vec<Arc<JobSpec>> = Vec::new();
        let mut arrivals: Vec<(SimTime, u32)> = Vec::new();
        let mut job_rng = rng.fork(3);
        match shape.jobs {
            Jobs::PerStep => {}
            Jobs::Storm {
                jobs: n,
                backlog_share,
                window,
            } => {
                let names = partition_names(shape.partitions);
                let names: Vec<&str> = names.iter().map(String::as_str).collect();
                let trace = workloads::multi_partition_storm(
                    &pop,
                    &names,
                    n,
                    backlog_share,
                    SimTime::ZERO + window,
                    &mut job_rng,
                );
                for e in trace.entries {
                    let mut spec = e.spec;
                    spec.user = Uid(index_of(spec.user));
                    arrivals.push((e.at, jobs.len() as u32));
                    jobs.push(Arc::new(spec));
                }
            }
        }

        // Request steps are spread evenly over the job stream's span (or
        // one per boundary when the steps are the whole workload).
        let span = arrivals
            .last()
            .map_or(SimTime::ZERO, |(at, _)| *at)
            .since(SimTime::ZERO);
        let intervals = span.as_micros().div_ceil(shape.boundary.as_micros()).max(1) as usize;
        let per_step_boundary = matches!(shape.jobs, Jobs::PerStep);
        let intervals = if per_step_boundary {
            shape.request_steps
        } else {
            intervals
        };
        let mut next_arrival = 0usize;
        let mut steps_done = 0usize;
        for k in 0..intervals {
            let now =
                SimTime::ZERO + SimDuration::from_micros(shape.boundary.as_micros() * k as u64);
            let end = now + shape.boundary;
            let steps_due = (shape.request_steps * (k + 1)).div_ceil(intervals);
            while steps_done < steps_due {
                let user = g.request_step(&shape, steps_done);
                if per_step_boundary {
                    let job = per_step_job(user, steps_done, &mut job_rng);
                    g.ops.push(Op::Submit {
                        at: now,
                        job: jobs.len() as u32,
                    });
                    jobs.push(Arc::new(job));
                }
                steps_done += 1;
            }
            while next_arrival < arrivals.len() && arrivals[next_arrival].0 <= end {
                let (at, job) = arrivals[next_arrival];
                g.ops.push(Op::Submit { at, job });
                next_arrival += 1;
            }
            g.ops.push(Op::Boundary { t: end });
        }
        assert_eq!(next_arrival, arrivals.len(), "every arrival is on the tape");
        let ops = g.ops;
        Plan {
            shape,
            users,
            projects,
            sister_pool,
            jobs,
            ops,
        }
    }

    /// Request-path operations of this plan that take a wall-time sample,
    /// by class: (logins, access ops, validates, submits), and revocations.
    pub fn op_counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0);
        for op in &self.ops {
            match op {
                Op::Ssh { .. } | Op::PortalLogin { .. } => c.0 += 1,
                Op::FsWrite { .. }
                | Op::FsReadOther { .. }
                | Op::Listen { .. }
                | Op::Connect { .. } => c.1 += 1,
                Op::Validate { .. } => c.2 += 1,
                Op::Submit { .. } => c.3 += 1,
                Op::Revoke { .. } => c.4 += 1,
                _ => {}
            }
        }
        c
    }
}

/// Partition names `p0..p{n-1}`.
pub fn partition_names(n: u32) -> Vec<String> {
    (0..n).map(|i| format!("p{i}")).collect()
}

/// The login-rush job: one whole-node task of 8-14 s with one GPU, so
/// that every prolog assigns a device and every epilog scrubs it. One a
/// second on four nodes is nearly three times what they can run, so the
/// queue grows steadily and the p95 wait follows the summed run time,
/// which varies little between seeds. About 0.36 jobs start per one-second
/// boundary, so most boundaries run no prolog and the median boundary
/// stays in that mode instead of flipping between the two.
fn per_step_job(user: u32, step: usize, rng: &mut SimRng) -> JobSpec {
    let secs = 8.0 + 6.0 * rng.f64();
    JobSpec::new(
        Uid(user),
        format!("rush-{step}"),
        SimDuration::from_secs_f64(secs),
    )
    .with_cpus_per_task(16)
    .with_mem_per_task(16_384)
    .with_gpus_per_task(1)
}

struct Gen<'a> {
    rng: SimRng,
    pop: &'a UserPopulation,
    index_of: &'a dyn Fn(Uid) -> u32,
    minted: u32,
    live: Vec<u32>,
    ops: Vec<Op>,
    listens: u32,
    files: u32,
}

impl Gen<'_> {
    fn user(&mut self) -> u32 {
        (self.index_of)(self.pop.active_user(&mut self.rng))
    }

    fn other_than(&mut self, user: u32) -> u32 {
        loop {
            let v = self.user();
            if v != user {
                return v;
            }
        }
    }

    /// One request step: a login, five access checks, then credential
    /// rounds of a sister mint, validation reads and a revocation. Returns
    /// the step's user.
    fn request_step(&mut self, shape: &Shape, step: usize) -> u32 {
        let user = self.user();
        let other = self.other_than(user);
        if step.is_multiple_of(2) {
            self.ops.push(Op::Ssh {
                user,
                login: (step / 2 % 2) as u8,
            });
        } else {
            self.ops.push(Op::PortalLogin { user });
        }
        self.ops.push(Op::FsWrite {
            user,
            file: self.files,
        });
        self.files += 1;
        self.ops.push(Op::FsReadOther { user, owner: other });
        let node = self.rng.index(shape.compute_nodes as usize) as u16;
        let port = 10_000 + (self.listens % 50_000) as u16;
        self.listens += 1;
        self.ops.push(Op::Listen { user, node, port });
        self.ops.push(Op::Connect {
            user,
            owner: user,
            node,
            port,
        });
        self.ops.push(Op::Connect {
            user: other,
            owner: user,
            node,
            port,
        });
        for round in 0..shape.cred_rounds {
            self.cred_round(shape, step * shape.cred_rounds + round);
        }
        user
    }

    /// One credential round: a sister mint, this round's share of the
    /// step's validation reads, and the revocation of one live serial.
    fn cred_round(&mut self, shape: &Shape, round: usize) {
        let minter = self.user();
        let realm = SISTER_REALMS[round % SISTER_REALMS.len()];
        self.ops.push(Op::SisterMint {
            user: minter,
            realm,
        });
        self.live.push(self.minted);
        self.minted += 1;
        let share = |r: usize| shape.validates_per_step * r / shape.cred_rounds;
        let r = round % shape.cred_rounds;
        // One read in four presents a home token, three a sister token.
        // The two paths differ in cost several-fold on some workloads; an
        // even split would put the median on the edge between them.
        for _ in share(r)..share(r + 1) {
            let token = if self.rng.chance(0.25) {
                TokenRef::Home(self.user())
            } else {
                TokenRef::Sister(*self.rng.pick(&self.live))
            };
            self.ops.push(Op::Validate { token });
        }
        let victim = self.rng.index(self.live.len());
        let mint = self.live.swap_remove(victim);
        self.ops.push(Op::Revoke { mint });
    }
}
