//! The three workloads driven through `QueryService`: set-up, the timed
//! phase, and the checks made on every run.

use crate::checks::{repeated_spend, same_bytes, Checker};
use crate::oracle::{Oracle, Truth};
use crate::queries::{
    adhoc_request, dashboard_pool, dashboards, stream_seed, Class, Names, Panel, Request,
    ADHOC_ANALYSTS, COLD_ROUND, DASHBOARD_ANALYSTS, PANELS_PER_PAGE,
};
use crate::stats::{median, ms, peak_rss_mb, process_cpu, quantile, us};
use crate::Metric;
use flex_core::PrivacyParams;
use flex_db::{Database, Value};
use flex_service::{
    BudgetLedger, FileStorage, FsyncPolicy, LedgerPolicy, QueryService, ServiceConfig,
    ServiceResponse, ServiceResult, Wal,
};
use flex_workloads::uber::{self, UberConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    UberCold,
    DashboardHot,
    AdhocDurable,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "uber-cold" => Some(Kind::UberCold),
            "dashboard-hot" => Some(Kind::DashboardHot),
            "adhoc-durable" => Some(Kind::AdhocDurable),
            _ => None,
        }
    }
}

/// ε of every request (the paper's §5.2 setting).
pub const EPSILON: f64 = 0.1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The cold workload times at least this many rounds, so its p99 has at
/// least ten samples beyond it.
pub const COLD_MIN_ROUNDS: usize = 10;
/// Charges the untimed earlier session leaves in the durable log: enough
/// records (a charge and a settle each) to cross the snapshot threshold.
const EARLIER_CHARGES: usize = 3000;
/// Releases of each class kept for the checks that re-run queries.
const KEPT_PER_CLASS: usize = 2;
/// WAL sync policy of the durable workload: one fsync per 512 records (256
/// admissions). Syncing every record made throughput follow the shared
/// disk's fsync rate, which swung between 2k and 8k/s from one second to
/// the next on the reference machine; syncing every 32 records still let
/// the fsyncs decide the p99 (2.2 to 7.7 ms over ten seeds).
pub const DURABLE_FSYNC: FsyncPolicy = FsyncPolicy::EveryN(512);

/// Service and client shape of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workers: usize,
    pub parallelism: usize,
    pub clients: usize,
    pub durable: bool,
}

/// Tables every workload's warm-up touches once, with parameters outside
/// every template's range so no timed request can hit their cache entries.
const TABLE_WARMUP: [&str; 6] = [
    "SELECT COUNT(*) FROM trips WHERE fare > 1000",
    "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id WHERE t.fare > 1000",
    "SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id WHERE t.fare > 1000",
    "SELECT COUNT(*) FROM drivers d JOIN analytics a ON d.id = a.driver_id WHERE a.completed_trips >= 100000",
    "SELECT COUNT(*) FROM user_tags WHERE tagged_at > '2017-01-01'",
    "SELECT COUNT(*) FROM riders WHERE id >= 1000000",
];

const WARMUP_ANALYST: &str = "warmup";
const DASHBOARD_RELEASE_SEED: u64 = 0xDA5B;

pub fn policy() -> LedgerPolicy {
    LedgerPolicy::sequential(1e12, 0.5)
}

/// Set-up timings of every repetition, in seconds.
#[derive(Debug, Default)]
pub struct SetupTimes {
    pub total: Vec<f64>,
    pub generate: Vec<f64>,
    pub start: Vec<f64>,
    pub warm: Vec<f64>,
}

/// A started service, warmed up, ready for the timed phase.
pub struct Ready {
    pub db: Arc<Database>,
    pub svc: QueryService,
    pub params: PrivacyParams,
    /// Dashboard pool and each panel's first release (dashboard only).
    pub pool: Vec<Panel>,
    pub first: Vec<Vec<Vec<Value>>>,
    /// `QueryTrace::queue` of each warm-up release, in µs.
    pub warm_queue_us: Vec<f64>,
}

/// One latency sample: when it completed (seconds from the phase start)
/// and how long it took (ms).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub done_s: f32,
    pub ms: f32,
}

/// A point on the timed phase's clock: seconds from the phase start and
/// the process CPU time used since then. Consecutive marks bound the
/// windows the speed figures are taken over.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at_s: f64,
    pub cpu: Duration,
}

impl Mark {
    const START: Mark = Mark {
        at_s: 0.0,
        cpu: Duration::ZERO,
    };

    fn now(t0: Instant, cpu0: Duration) -> Mark {
        Mark {
            at_s: t0.elapsed().as_secs_f64(),
            cpu: process_cpu().saturating_sub(cpu0),
        }
    }
}

/// A release kept for the checks that re-run its query after the phase.
pub struct Kept {
    pub index: u64,
    pub rows: Vec<Vec<Value>>,
}

/// What a timed phase measured and checked. Answers are checked as they
/// arrive, so memory does not grow with throughput.
pub struct Phase {
    /// Window bounds: the start, each round start on the cold workload or
    /// every `budget / WINDOWS` on the others, and the end.
    pub marks: Vec<Mark>,
    /// Per client: submit-to-answer time per request (per page of panels,
    /// divided by the panel count, on the dashboard).
    pub samples: Vec<Vec<Sample>>,
    /// `QueryTrace::queue` of each computed response, in µs.
    pub queue_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub checker: Checker,
    /// Charged requests per analyst.
    pub charged: HashMap<usize, usize>,
    pub kept: Vec<Kept>,
    /// Dashboard: each client's seed and the pages it completed, so the
    /// traced replay can re-issue exactly the same requests.
    pub pages: Vec<(u64, u64)>,
}

impl Phase {
    fn new(budget: Duration) -> Phase {
        Phase {
            marks: Vec::new(),
            samples: vec![Vec::with_capacity(sample_capacity(budget))],
            queue_us: Vec::new(),
            attempted: 0,
            failed: 0,
            checker: Checker::new(EPSILON),
            charged: HashMap::new(),
            kept: Vec::new(),
            pages: Vec::new(),
        }
    }

    fn sample(&mut self, t0: Instant, lat: Duration) {
        self.samples[0].push(Sample {
            done_s: t0.elapsed().as_secs_f32(),
            ms: ms(lat) as f32,
        });
    }

    /// Merge the clients' phases into one, closing the last window now.
    fn join(parts: Vec<Phase>, mut marks: Vec<Mark>, t0: Instant, cpu0: Duration) -> Phase {
        marks.push(Mark::now(t0, cpu0));
        let mut all = Phase {
            marks,
            samples: Vec::new(),
            ..Phase::new(Duration::ZERO)
        };
        for p in parts {
            all.samples.extend(p.samples);
            all.queue_us.extend(p.queue_us);
            all.attempted += p.attempted;
            all.failed += p.failed;
            all.checker.absorb(p.checker);
            for (a, n) in p.charged {
                *all.charged.entry(a).or_default() += n;
            }
            all.kept.extend(p.kept);
            all.pages.extend(p.pages);
        }
        all
    }

    /// Check one answer against the oracle as it arrives.
    fn answer(
        &mut self,
        req: &Request,
        index: u64,
        analyst: usize,
        res: ServiceResult<ServiceResponse>,
        oracle: &Oracle,
        kept: &mut HashMap<Class, usize>,
    ) {
        self.attempted += 1;
        let r = match res {
            Ok(r) => r,
            Err(e) => {
                eprintln!("request failed: {e}: {}", req.sql);
                self.failed += 1;
                return;
            }
        };
        if let Some(trace) = &r.trace {
            self.queue_us.push(us(trace.queue));
        }
        let charged = r.charged.0 > 0.0;
        self.checker.expect(charged && !r.from_cache, || {
            format!("`{}` was not a fresh, charged release", req.sql)
        });
        *self.charged.entry(analyst).or_default() += usize::from(charged);
        self.checker.release(req, &oracle.truth(&req.spec), &r.rows);
        let n = kept.entry(req.class).or_default();
        *n += 1;
        if *n <= KEPT_PER_CLASS {
            self.kept.push(Kept {
                index,
                rows: r.rows,
            });
        }
    }
}

/// Room for every latency sample a phase can take, reserved up front so
/// the vector never reallocates: a reallocation copies the samples, and
/// how many copies happen would make peak memory depend on throughput.
/// Untouched capacity is never resident.
fn sample_capacity(budget: Duration) -> usize {
    (budget.as_secs_f64() * 100_000.0) as usize + 4096
}

pub struct Run {
    pub kind: Kind,
    pub seed: u64,
    pub nproc: usize,
    pub plan: Plan,
    pub state_dir: PathBuf,
    earlier_log: Vec<u8>,
    earlier_charges: HashMap<usize, usize>,
}

pub fn names(db: &Database) -> Names {
    let cities = db.table("cities").expect("generated cities table");
    let name = cities.schema.index_of("name").expect("cities.name");
    Names {
        cities: cities
            .rows
            .iter()
            .map(|r| r[name].as_str().expect("city name").to_string())
            .collect(),
    }
}

impl Run {
    pub fn new(kind: Kind, seed: u64) -> Run {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let plan = match kind {
            Kind::UberCold => Plan {
                workers: 1,
                parallelism: nproc,
                clients: 1,
                durable: false,
            },
            Kind::DashboardHot => Plan {
                workers: nproc,
                parallelism: 1,
                clients: nproc,
                durable: false,
            },
            Kind::AdhocDurable => Plan {
                workers: nproc,
                parallelism: 1,
                clients: nproc,
                durable: true,
            },
        };
        let state_dir = PathBuf::from("perfbench")
            .join(".state")
            .join(format!("run-{}", std::process::id()));
        Run {
            kind,
            seed,
            nproc,
            plan,
            state_dir,
            earlier_log: Vec::new(),
            earlier_charges: HashMap::new(),
        }
    }

    /// The seed of the data and of the service's noise. The dashboard is a
    /// fixed set of panels over one dataset, so its releases — and the
    /// utility measured on its 40 answers — are the same for every
    /// workload seed; the seed drives who asks and in which spelling.
    /// Forty noised answers were too few for a steady utility figure when
    /// data and noise changed with the seed (0.54 of the median between
    /// quartiles over five seeds).
    fn release_seed(&self) -> u64 {
        match self.kind {
            Kind::DashboardHot => DASHBOARD_RELEASE_SEED,
            _ => self.seed,
        }
    }

    pub fn uber_config(&self) -> UberConfig {
        UberConfig {
            seed: stream_seed(self.release_seed(), 0),
            ..UberConfig::default()
        }
    }

    pub fn config(&self, parallelism: usize, durable: bool) -> ServiceConfig {
        ServiceConfig {
            workers: self.plan.workers,
            parallelism,
            policy: policy(),
            seed: Some(stream_seed(self.release_seed(), 9)),
            wal_path: durable.then(|| self.wal_path()),
            wal_fsync: DURABLE_FSYNC,
            ..ServiceConfig::default()
        }
    }

    /// The timed request at `index`: a position in the cold stream, or an
    /// index of the ad-hoc stream.
    pub fn request(&self, cold: &[Request], index: u64) -> Request {
        match self.kind {
            Kind::AdhocDurable => adhoc_request(self.seed, index).1,
            _ => cold[index as usize].clone(),
        }
    }

    pub fn wal_path(&self) -> PathBuf {
        self.state_dir.join("ledger.wal")
    }

    pub fn analyst(&self, i: usize) -> String {
        match self.kind {
            Kind::UberCold => "cold-analyst".to_string(),
            Kind::DashboardHot => format!("dash-{i}"),
            Kind::AdhocDurable => format!("adhoc-{i}"),
        }
    }

    /// δ = n^(−ln n) for the generated database's row count (§5.2).
    pub fn params(&self) -> PrivacyParams {
        let c = self.uber_config();
        let rows = c.cities.min(30) + c.drivers + c.riders + c.trips + c.user_tags + c.drivers;
        PrivacyParams::new(EPSILON, PrivacyParams::delta_for_db_size(rows))
            .expect("valid privacy parameters")
    }

    /// The untimed earlier session of the durable workload: charges and
    /// settles written through a log that every set-up then recovers.
    pub fn prepare(&mut self) -> Result<(), String> {
        std::fs::create_dir_all(&self.state_dir).map_err(|e| e.to_string())?;
        if !self.plan.durable {
            return Ok(());
        }
        let path = self.state_dir.join("earlier.wal");
        let storage = FileStorage::open(&path).map_err(|e| e.to_string())?;
        let threshold = ServiceConfig::default().wal_snapshot_threshold;
        let wal = Arc::new(Wal::new(Box::new(storage), FsyncPolicy::Never, threshold));
        let (ledger, _) = BudgetLedger::with_wal(policy(), 16, wal).map_err(|e| e.to_string())?;
        let p = self.params();
        for i in 0..EARLIER_CHARGES {
            let a = i % ADHOC_ANALYSTS;
            let charge = ledger
                .try_charge(&self.analyst(a), p.epsilon, p.delta)
                .map_err(|e| e.to_string())?;
            ledger.settle(&charge);
            *self.earlier_charges.entry(a).or_default() += 1;
        }
        drop(ledger);
        self.earlier_log = std::fs::read(&path).map_err(|e| e.to_string())?;
        std::fs::remove_file(&path).map_err(|e| e.to_string())
    }

    /// Put the earlier session's log where a ledger will recover it.
    pub fn reset_log(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, &self.earlier_log).map_err(|e| e.to_string())
    }

    /// Set up `SETUP_REPS` times and keep the last service.
    pub fn setup(&self, times: &mut SetupTimes, checker: &mut Checker) -> Ready {
        let mut ready: Option<Ready> = None;
        for _ in 0..SETUP_REPS {
            drop(ready.take());
            ready = Some(self.setup_once(times, checker));
        }
        ready.expect("at least one set-up")
    }

    fn setup_once(&self, times: &mut SetupTimes, checker: &mut Checker) -> Ready {
        if self.plan.durable {
            if let Err(e) = self.reset_log(&self.wal_path()) {
                checker.fail(format!("cannot restore the earlier session's log: {e}"));
            }
        }
        let t0 = Instant::now();
        let db = Arc::new(uber::generate(&self.uber_config()));
        let t_gen = t0.elapsed();
        let t1 = Instant::now();
        let svc = QueryService::try_new(
            Arc::clone(&db),
            self.config(self.plan.parallelism, self.plan.durable),
        )
        .expect("service starts over the recovered log");
        let t_start = t1.elapsed();
        let t2 = Instant::now();
        // Build every table's columnar projection here rather than on
        // whichever worker scans it first: memory allocated on a worker
        // thread lands in that thread's allocator arena, which made peak
        // RSS jump by ~7 MB between runs depending on the worker.
        for name in db.table_names() {
            if let Some(table) = db.table(name) {
                table.columnar();
            }
        }
        let params = self.params();
        let (pool, (first, warm_queue_us)) = if self.kind == Kind::DashboardHot {
            let mut pool = dashboard_pool(&names(&db));
            let sqls: Vec<&str> = pool.iter().map(|p| p.spellings[0].sql.as_str()).collect();
            let warm = warm_up(&svc, &sqls, params, checker);
            for (panel, rows) in pool.iter_mut().zip(&warm.0) {
                panel.set_cost(rows);
            }
            (pool, warm)
        } else {
            let (_, queue) = warm_up(&svc, &TABLE_WARMUP, params, checker);
            (Vec::new(), (Vec::new(), queue))
        };
        let t_warm = t2.elapsed();
        times.total.push(t0.elapsed().as_secs_f64());
        times.generate.push(t_gen.as_secs_f64());
        times.start.push(t_start.as_secs_f64());
        times.warm.push(t_warm.as_secs_f64());
        Ready {
            db,
            svc,
            params,
            pool,
            first,
            warm_queue_us,
        }
    }

    /// The timed phase for `budget`. The cold stream is passed in so the
    /// traced replay can re-issue the same prefix.
    pub fn timed(
        &self,
        ready: &Ready,
        oracle: &Oracle,
        budget: Duration,
        cold: &[Request],
        min_rounds: usize,
        per_request: bool,
    ) -> Phase {
        match self.kind {
            Kind::UberCold => self.timed_cold(ready, oracle, budget, cold, min_rounds),
            Kind::DashboardHot => self.timed_dashboard(ready, budget, per_request),
            Kind::AdhocDurable => self.timed_adhoc(ready, oracle, budget),
        }
    }

    fn timed_cold(
        &self,
        ready: &Ready,
        oracle: &Oracle,
        budget: Duration,
        stream: &[Request],
        min_rounds: usize,
    ) -> Phase {
        let analyst = self.analyst(0);
        let mut phase = Phase::new(budget);
        let mut kept = HashMap::new();
        let cpu0 = process_cpu();
        let t0 = Instant::now();
        for (round, chunk) in stream.chunks(COLD_ROUND).enumerate() {
            if round >= min_rounds.max(1) && t0.elapsed() >= budget {
                break;
            }
            phase.marks.push(if round == 0 {
                Mark::START
            } else {
                Mark::now(t0, cpu0)
            });
            for (j, req) in chunk.iter().enumerate() {
                let t = Instant::now();
                let res = ready.svc.query(&analyst, &req.sql, ready.params);
                phase.sample(t0, t.elapsed());
                let index = (round * COLD_ROUND + j) as u64;
                phase.answer(req, index, 0, res, oracle, &mut kept);
            }
        }
        phase.marks.push(Mark::now(t0, cpu0));
        phase
    }

    fn timed_dashboard(&self, ready: &Ready, budget: Duration, per_request: bool) -> Phase {
        let boards = dashboards(self.seed, &ready.pool);
        let names: Vec<String> = (0..boards.pages.len()).map(|i| self.analyst(i)).collect();
        let cpu0 = process_cpu();
        let t0 = Instant::now();
        let (parts, marks) = std::thread::scope(|s| {
            let marks = s.spawn(move || mark_windows(t0, cpu0, budget));
            let handles: Vec<_> = (0..self.plan.clients)
                .map(|c| {
                    let (boards, names) = (&boards, &names);
                    let client_seed = stream_seed(self.seed, 100 + c as u64);
                    s.spawn(move || {
                        let mut p = Phase::new(budget);
                        let mut rng = StdRng::seed_from_u64(client_seed);
                        let mut answers = Vec::with_capacity(PANELS_PER_PAGE);
                        let (mut pages, mut misses, mut mismatches) = (0u64, 0u64, 0u64);
                        while t0.elapsed() < budget {
                            let a = boards.zipf.sample(&mut rng);
                            let page = &boards.pages[a];
                            answers.clear();
                            let t = Instant::now();
                            for &panel in page {
                                let spellings = &ready.pool[panel].spellings;
                                let req = &spellings[rng.gen_range(0..spellings.len())];
                                let ts = Instant::now();
                                let res = ready.svc.query(&names[a], &req.sql, ready.params);
                                if per_request {
                                    p.sample(t0, ts.elapsed());
                                }
                                answers.push((panel, res));
                            }
                            if !per_request {
                                p.sample(t0, t.elapsed() / page.len() as u32);
                            }
                            pages += 1;
                            for (panel, res) in answers.drain(..) {
                                p.attempted += 1;
                                match res {
                                    Ok(r) => {
                                        misses += u64::from(!r.from_cache);
                                        mismatches +=
                                            u64::from(!same_bytes(&r.rows, &ready.first[panel]));
                                    }
                                    Err(e) => {
                                        eprintln!("dashboard request failed: {e}");
                                        p.failed += 1;
                                    }
                                }
                            }
                        }
                        p.checker.expect(misses == 0, || {
                            format!("{misses} dashboard requests were not cache hits")
                        });
                        p.checker.expect(mismatches == 0, || {
                            format!(
                                "{mismatches} dashboard answers differ from the panel's first release"
                            )
                        });
                        p.pages.push((client_seed, pages));
                        p
                    })
                })
                .collect();
            let parts: Vec<Phase> = handles
                .into_iter()
                .map(|h| h.join().expect("dashboard client panicked"))
                .collect();
            (parts, marks.join().expect("window marker panicked"))
        });
        Phase::join(parts, marks, t0, cpu0)
    }

    fn timed_adhoc(&self, ready: &Ready, oracle: &Oracle, budget: Duration) -> Phase {
        let next = AtomicU64::new(0);
        let names: Vec<String> = (0..ADHOC_ANALYSTS).map(|i| self.analyst(i)).collect();
        let cpu0 = process_cpu();
        let t0 = Instant::now();
        let (parts, marks) = std::thread::scope(|s| {
            let marks = s.spawn(move || mark_windows(t0, cpu0, budget));
            let handles: Vec<_> = (0..self.plan.clients)
                .map(|_| {
                    let (next, names) = (&next, &names);
                    s.spawn(move || {
                        let mut p = Phase::new(budget);
                        let mut kept = HashMap::new();
                        while t0.elapsed() < budget {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let (a, req) = adhoc_request(self.seed, i);
                            let t = Instant::now();
                            let res = ready.svc.query(&names[a], &req.sql, ready.params);
                            p.sample(t0, t.elapsed());
                            p.answer(&req, i, a, res, oracle, &mut kept);
                        }
                        p
                    })
                })
                .collect();
            let parts: Vec<Phase> = handles
                .into_iter()
                .map(|h| h.join().expect("ad-hoc client panicked"))
                .collect();
            (parts, marks.join().expect("window marker panicked"))
        });
        Phase::join(parts, marks, t0, cpu0)
    }

    /// The checks made after the timed phase. Consumes the service: the
    /// durable workload's recovery check needs it shut down. Returns how
    /// long recovering a ledger from the log took.
    pub fn check(
        &self,
        ready: Ready,
        phase: &mut Phase,
        cold: &[Request],
        oracle: &Oracle,
    ) -> Option<Duration> {
        let Ready {
            db,
            svc,
            params,
            pool,
            first,
            ..
        } = ready;
        let checker = &mut phase.checker;
        for (panel, rows) in pool.iter().zip(&first) {
            let req = &panel.spellings[0];
            checker.release(req, &oracle.truth(&req.spec), rows);
        }

        // CTE and derived-table spellings have the same truth as their
        // plain template: both run through the engine and match the oracle.
        for k in &phase.kept {
            let req = self.request(cold, k.index);
            let Some(plain) = &req.plain_sql else {
                continue;
            };
            let truth = oracle.truth(&req.spec);
            for sql in [&req.sql, plain] {
                let got = db
                    .execute_sql(sql)
                    .ok()
                    .and_then(|rs| rs.scalar()?.as_f64());
                checker.expect(got.is_some_and(|g| Truth::Scalar(g) == truth), || {
                    format!("`{sql}` computes {got:?}, the oracle says {truth:?}")
                });
            }
        }

        // Ledger: every analyst spent exactly ε per charged request.
        let ledger = svc.ledger();
        let mut expected: BTreeMap<String, usize> = BTreeMap::new();
        let warm = if self.kind == Kind::DashboardHot {
            pool.len()
        } else {
            TABLE_WARMUP.len()
        };
        expected.insert(WARMUP_ANALYST.to_string(), warm);
        let analysts = match self.kind {
            Kind::UberCold => 1,
            Kind::DashboardHot => DASHBOARD_ANALYSTS,
            Kind::AdhocDurable => ADHOC_ANALYSTS,
        };
        for a in 0..analysts {
            let n = phase.charged.get(&a).copied().unwrap_or(0)
                + self.earlier_charges.get(&a).copied().unwrap_or(0);
            expected.insert(self.analyst(a), n);
        }
        let mut live = BTreeMap::new();
        for (name, n) in &expected {
            let spent = ledger.spent(name);
            let want = repeated_spend(params.epsilon, *n);
            checker.expect(spent.0.to_bits() == want.to_bits(), || {
                format!("{name} spent {}, expected {n} × ε = {want}", spent.0)
            });
            live.insert(name.clone(), spent);
        }
        drop(svc);

        // Durable workload: a ledger recovered from the log agrees.
        let mut recovery = None;
        if self.plan.durable {
            let t = Instant::now();
            match recover(&self.wal_path()) {
                Ok(recovered) => {
                    recovery = Some(t.elapsed());
                    for (name, spent) in &live {
                        let got = recovered.spent(name);
                        checker.expect(
                            got.0.to_bits() == spent.0.to_bits()
                                && got.1.to_bits() == spent.1.to_bits(),
                            || format!("recovered ledger: {name} spent {got:?}, live {spent:?}"),
                        );
                    }
                }
                Err(e) => checker.fail(format!("ledger recovery failed: {e}")),
            }
        }

        // Released bytes do not depend on execution parallelism.
        let other = if self.plan.parallelism == 1 {
            self.nproc
        } else {
            1
        };
        let sample: Vec<(Request, &Vec<Vec<Value>>)> = if self.kind == Kind::DashboardHot {
            pool.iter()
                .zip(&first)
                .map(|(p, rows)| (p.spellings[0].clone(), rows))
                .collect()
        } else {
            phase
                .kept
                .iter()
                .map(|k| (self.request(cold, k.index), &k.rows))
                .collect()
        };
        let mut cfg = self.config(other, false);
        cfg.workers = 1;
        let twin = QueryService::try_new(Arc::clone(&db), cfg).expect("in-memory service starts");
        for (req, rows) in sample {
            match twin.query("identity-check", &req.sql, params) {
                Ok(r) => checker.expect(same_bytes(&r.rows, rows), || {
                    format!(
                        "`{}` released different bytes at parallelism {other}",
                        req.sql
                    )
                }),
                Err(e) => checker.fail(format!("identity re-run of `{}` failed: {e}", req.sql)),
            }
        }
        recovery
    }
}

fn recover(path: &Path) -> Result<BudgetLedger, String> {
    let storage = FileStorage::open(path).map_err(|e| e.to_string())?;
    let threshold = ServiceConfig::default().wal_snapshot_threshold;
    let wal = Arc::new(Wal::new(Box::new(storage), DURABLE_FSYNC, threshold));
    BudgetLedger::with_wal(policy(), 16, wal)
        .map(|(ledger, _)| ledger)
        .map_err(|e| e.to_string())
}

/// Release `sqls` concurrently as the warm-up analyst; returns each
/// answer's rows in order and the queue wait (µs) of each release.
fn warm_up(
    svc: &QueryService,
    sqls: &[&str],
    params: PrivacyParams,
    checker: &mut Checker,
) -> (Vec<Vec<Vec<Value>>>, Vec<f64>) {
    let tickets: Vec<_> = sqls
        .iter()
        .map(|sql| svc.submit(WARMUP_ANALYST, sql, params))
        .collect();
    let mut queue_us = Vec::new();
    let rows = tickets
        .into_iter()
        .zip(sqls)
        .map(|(t, sql)| match t.wait() {
            Ok(r) => {
                queue_us.extend(r.trace.map(|t| us(t.queue)));
                r.rows
            }
            Err(e) => {
                checker.fail(format!("warm-up `{sql}` failed: {e}"));
                Vec::new()
            }
        })
        .collect();
    (rows, queue_us)
}

/// Windows of a multi-client timed phase.
const WINDOWS: u32 = 60;

/// Mark the phase clock at the start and every `budget / WINDOWS` until
/// the last window opens; `Phase::join` closes it.
fn mark_windows(t0: Instant, cpu0: Duration, budget: Duration) -> Vec<Mark> {
    let every = budget / WINDOWS;
    let mut marks = vec![Mark::START];
    for k in 1..WINDOWS {
        if let Some(wait) = (every * k).checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        marks.push(Mark::now(t0, cpu0));
    }
    marks
}

/// The share of windows the speed figures are read from: the quietest
/// quarter, the windows of highest throughput. The host's speed is
/// bimodal — a fixed CPU loop ran at its best speed or at about half of
/// it, in bursts of seconds — and whichever mode held most of a run
/// decided that run's median figures. Over five dashboard seeds the
/// median over windows of each window's p50 spread by 0.22 of its median
/// between quartiles, the p50 over the quietest quarter by 0.07.
const QUIET: f64 = 0.25;

/// One window's completed requests, length, CPU time and latencies.
struct Window {
    requests: f64,
    secs: f64,
    cpu: Duration,
    ms: Vec<f64>,
}

/// Cut the phase's samples at its marks. A window without samples (a
/// cold round cannot be empty; a multi-client window of 1/60 of the run
/// never was) is left out.
fn windows(phase: &Phase, requests_per_sample: f64) -> Vec<Window> {
    let mut all: Vec<Sample> = phase.samples.iter().flatten().copied().collect();
    all.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    let mut rest = &all[..];
    let mut out = Vec::new();
    for pair in phase.marks.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let n = rest.partition_point(|s| f64::from(s.done_s) <= b.at_s);
        let (inside, after) = rest.split_at(n);
        rest = after;
        if inside.is_empty() || b.at_s <= a.at_s {
            continue;
        }
        out.push(Window {
            requests: inside.len() as f64 * requests_per_sample,
            secs: b.at_s - a.at_s,
            cpu: b.cpu.saturating_sub(a.cpu),
            ms: inside.iter().map(|s| f64::from(s.ms)).collect(),
        });
    }
    out
}

/// The end-to-end metrics of an untraced run. Throughput, p50 latency and
/// CPU per request are taken over the quietest quarter of the phase's
/// windows, pooled: their requests ÷ their time, the p50 of their
/// samples, their CPU time ÷ their requests.
///
/// The p99 latency is printed to standard error but is not one of the
/// reported metrics: on adhoc-durable it followed how often the machine
/// preempted the longer requests, and its segments ranged from 1.9 to
/// 10 ms within a single run.
pub fn end_to_end(times: &SetupTimes, phase: &Phase, rel_error: f64) -> Vec<Metric> {
    let completed = (phase.attempted - phase.failed).max(1) as f64;
    let samples = phase.samples.iter().map(Vec::len).sum::<usize>();
    let mut windows = windows(phase, completed / samples.max(1) as f64);
    windows.sort_by(|a, b| (b.requests / b.secs).total_cmp(&(a.requests / a.secs)));
    let quiet = &windows[..((windows.len() as f64 * QUIET).ceil() as usize).min(windows.len())];
    let requests: f64 = quiet.iter().map(|w| w.requests).sum();
    let secs: f64 = quiet.iter().map(|w| w.secs).sum();
    let cpu: Duration = quiet.iter().map(|w| w.cpu).sum();
    let mut lat: Vec<f64> = quiet.iter().flat_map(|w| w.ms.iter().copied()).collect();
    let mut all: Vec<f64> = windows.iter().flat_map(|w| w.ms.iter().copied()).collect();
    let p99 = quantile(&mut all, 0.99).unwrap_or(f64::NAN);
    eprintln!("{:>20} {:>14.4} ms (whole phase, not reported)", "latency_p99_ms", p99);
    let mut setup = times.total.clone();
    vec![
        Metric::new("setup_s", median(&mut setup).unwrap_or(f64::NAN), "s"),
        Metric::new("throughput_qps", requests / secs, "1/s"),
        Metric::new("latency_p50_ms", median(&mut lat).unwrap_or(f64::NAN), "ms"),
        Metric::new("cpu_ms_per_query", ms(cpu) / requests, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("rel_error_gm_pct", rel_error, "%"),
    ]
}
