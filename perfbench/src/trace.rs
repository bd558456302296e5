//! The traced run: the per-layer breakdown of one workload.
//!
//! A traced run first drives the service exactly as an untraced run does,
//! for half the time budget, keeping what only the service can report
//! (queue waits, cache and WAL counters) and timing cache hits through
//! `QueryService::submit`. It then replays the same request prefix
//! through each layer's public functions, in the service's order —
//! `parse_query`, `canonicalize` + `print_query`, `AnswerCache::admit`
//! with `BudgetLedger::try_charge` inside it, `analyze_with`,
//! `Database::execute_traced`, `smooth` + `enumerate_bins` + `laplace`,
//! `BudgetLedger::settle`, `AnswerCache::complete` — timing every call
//! from outside. The replay's own request latency against the service
//! pass's is the tracing overhead.

use crate::bench::{self, policy, Kind, Phase, Ready, Run, SetupTimes};
use crate::checks::Checker;
use crate::oracle::Oracle;
use crate::queries::{adhoc_request, cold_stream, dashboards, stream_seed, Class, Panel, Request};
use crate::stats::{median, ms, quantile, us};
use crate::{cold_rounds, Metric, Outcome};
use flex_core::{
    analyze_with, enumerate_bins, laplace, smooth, AnalyzedQuery, FlexOptions, OutputColumn,
    PrivacyParams, RouteDecision, SmoothSensitivity,
};
use flex_db::{Database, ResultSet, RowKey, Value};
use flex_service::{
    Admission, AnswerCache, BudgetLedger, CacheKey, CachedAnswer, FileStorage, ServiceConfig,
    Storage, Wal,
};
use flex_sql::{canonicalize, parse_query, print_query, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Released queries re-submitted once to time the cache-hit path on
/// workloads whose own traffic has no hits.
const HIT_PROBES: usize = 256;
/// Executed queries re-run at parallelism 1 and nproc for `morsel.scaling`.
const SCALING_QUERIES: usize = 2000;

/// Spans recorded by the replay, one entry per call.
#[derive(Default)]
struct Spans {
    request_us: Vec<f64>,
    parse_us: Vec<f64>,
    canonicalize_us: Vec<f64>,
    admit_hit_us: Vec<f64>,
    charge_us: Vec<f64>,
    analysis_us: Vec<f64>,
    exec_ms: Vec<(Class, f64)>,
    perturbation_us: Vec<f64>,
    cells: u64,
    releases: u64,
    rows_scanned: u64,
    morsels: u64,
    fallbacks: u64,
    executed: Vec<Query>,
    errors: u64,
}

impl Spans {
    fn merge(&mut self, o: Spans) {
        self.request_us.extend(o.request_us);
        self.parse_us.extend(o.parse_us);
        self.canonicalize_us.extend(o.canonicalize_us);
        self.admit_hit_us.extend(o.admit_hit_us);
        self.charge_us.extend(o.charge_us);
        self.analysis_us.extend(o.analysis_us);
        self.exec_ms.extend(o.exec_ms);
        self.perturbation_us.extend(o.perturbation_us);
        self.cells += o.cells;
        self.releases += o.releases;
        self.rows_scanned += o.rows_scanned;
        self.morsels += o.morsels;
        self.fallbacks += o.fallbacks;
        self.executed.extend(o.executed);
        self.errors += o.errors;
    }
}

/// A [`Storage`] that counts the bytes written through it, compaction
/// rewrites included.
#[derive(Debug)]
struct CountingStorage {
    inner: FileStorage,
    written: Arc<AtomicU64>,
}

impl Storage for CountingStorage {
    fn append(&self, bytes: &[u8]) -> io::Result<()> {
        self.written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append(bytes)
    }
    fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }
    fn read(&self) -> io::Result<Vec<u8>> {
        self.inner.read()
    }
    fn replace(&self, bytes: &[u8]) -> io::Result<()> {
        self.written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.replace(bytes)
    }
}

/// The replay's own cache and ledger, configured as the service's.
struct Ctx<'a> {
    db: &'a Database,
    cache: AnswerCache<()>,
    ledger: BudgetLedger,
    params: PrivacyParams,
    flex: FlexOptions,
}

pub fn traced_run(run: &Run, budget: Duration) -> Outcome {
    let params = run.params();
    let mut checker = Checker::new(params.epsilon);
    let mut times = SetupTimes::default();
    let ready = run.setup(&mut times, &mut checker);
    let oracle = Oracle::new(&ready.db);
    let cold = if run.kind == Kind::UberCold {
        cold_stream(run.seed, cold_rounds(budget), &bench::names(&ready.db))
    } else {
        Vec::new()
    };
    let db = Arc::clone(&ready.db);

    // Service pass.
    let before = ready.svc.telemetry();
    let mut phase = run.timed(&ready, &oracle, budget / 2, &cold, 1, true);
    let after = ready.svc.telemetry();
    let requests = phase.attempted.max(1) as f64;
    let hit_ratio = (after.cache_hits - before.cache_hits) as f64
        / (after.submitted - before.submitted).max(1) as f64;
    let fsyncs = (after.wal_fsyncs - before.wal_fsyncs) as f64 / requests;
    let service_us: Vec<f64> = phase
        .samples
        .iter()
        .flatten()
        .map(|s| s.ms as f64 * 1e3)
        .collect();
    let service_hit_us = if run.kind == Kind::DashboardHot {
        service_us.clone()
    } else {
        hit_probe(run, &ready, phase.attempted, &cold)
    };
    let cache_bytes = ready.svc.cached_bytes() as f64;
    let pool = ready.pool.clone();
    // Dashboard traffic is all hits, which never queue: its queue waits
    // are those of the warm-up releases.
    let queue_us = if run.kind == Kind::DashboardHot {
        ready.warm_queue_us.clone()
    } else {
        phase.queue_us.clone()
    };
    let recovery = run.check(ready, &mut phase, &cold, &oracle);
    phase.checker.absorb(checker);
    let (correct, _) = phase.checker.finish();

    // Replay through the layers' public functions, at the workload's
    // parallelism (the identity check above ran at the other one).
    db.set_parallelism(run.plan.parallelism);
    let (spans, wal_bytes) = match replay(run, &db, params, &phase, &cold, &pool) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("replay failed: {e}");
            return Outcome {
                correct: false,
                attempted: phase.attempted,
                failed: phase.failed,
                metrics: Vec::new(),
            };
        }
    };
    let scaling = morsel_scaling(run, &db, &spans.executed);

    let mut service_lat = service_us;
    let mut replay_lat = spans.request_us.clone();
    let service_p50_us = median(&mut service_lat).unwrap_or(f64::NAN);
    let replay_p50_us = median(&mut replay_lat).unwrap_or(f64::NAN);
    eprintln!(
        "traced: service pass p50 {service_p50_us:.2} µs over {} requests, \
         replay p50 {replay_p50_us:.2} µs over {} requests",
        phase.attempted,
        spans.request_us.len()
    );
    let metrics = per_layer(
        &times,
        &spans,
        PassFigures {
            hit_ratio,
            cache_bytes,
            fsyncs,
            wal_bytes: wal_bytes as f64 / spans.request_us.len().max(1) as f64,
            recovery_s: recovery.map_or(0.0, |d| d.as_secs_f64()),
            queue_us,
            service_hit_us,
            scaling,
            overhead_pct: (replay_p50_us / service_p50_us - 1.0) * 100.0,
        },
    );
    for m in &metrics {
        eprintln!("{:>32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Outcome {
        correct: correct && spans.errors == 0,
        attempted: phase.attempted,
        failed: phase.failed + spans.errors,
        metrics,
    }
}

/// Time `QueryService::submit` on cache hits: re-submit the latest of the
/// `n` timed requests, which the bounded cache still holds.
fn hit_probe(run: &Run, ready: &Ready, n: u64, cold: &[Request]) -> Vec<f64> {
    (n.saturating_sub(HIT_PROBES as u64)..n)
        .filter_map(|i| {
            let sql = run.request(cold, i).sql;
            let t = Instant::now();
            let res = ready.svc.query("hit-probe", &sql, ready.params);
            let lat = t.elapsed();
            res.ok().filter(|a| a.from_cache).map(|_| us(lat))
        })
        .collect()
}

fn replay(
    run: &Run,
    db: &Database,
    params: PrivacyParams,
    phase: &Phase,
    cold: &[Request],
    pool: &[Panel],
) -> Result<(Spans, u64), String> {
    let cfg = ServiceConfig::default();
    let written = Arc::new(AtomicU64::new(0));
    let ledger = if run.plan.durable {
        let path = run.state_dir.join("replay.wal");
        run.reset_log(&path)?;
        let storage = CountingStorage {
            inner: FileStorage::open(&path).map_err(|e| e.to_string())?,
            written: Arc::clone(&written),
        };
        let wal = Arc::new(Wal::new(
            Box::new(storage),
            bench::DURABLE_FSYNC,
            cfg.wal_snapshot_threshold,
        ));
        BudgetLedger::with_wal(policy(), cfg.ledger_shards, wal)
            .map_err(|e| e.to_string())?
            .0
    } else {
        BudgetLedger::with_shards(policy(), cfg.ledger_shards)
    };
    let ctx = Ctx {
        db,
        cache: AnswerCache::with_config(cfg.cache_capacity, cfg.cache_max_bytes, cfg.cache_shards),
        ledger,
        params,
        flex: FlexOptions::new(),
    };
    let n = phase.attempted;
    let mut spans = Spans::default();
    match run.kind {
        Kind::UberCold => {
            let analyst = run.analyst(0);
            for (i, req) in cold.iter().take(n as usize).enumerate() {
                replay_one(
                    &ctx,
                    &analyst,
                    req,
                    stream_seed(run.seed, i as u64),
                    &mut spans,
                );
            }
            // Cache hits do not occur in this workload; time admission on
            // hits by re-admitting the latest released keys once.
            let mut probe = Spans::default();
            let n = (n as usize).min(cold.len());
            for req in &cold[n.saturating_sub(HIT_PROBES)..n] {
                replay_one(&ctx, "hit-probe", req, 0, &mut probe);
            }
            spans.admit_hit_us = probe.admit_hit_us;
        }
        Kind::AdhocDurable => {
            let next = AtomicU64::new(0);
            let names: Vec<String> = (0..crate::queries::ADHOC_ANALYSTS)
                .map(|i| run.analyst(i))
                .collect();
            let parts: Vec<Spans> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..run.plan.clients)
                    .map(|_| {
                        let (ctx, next, names) = (&ctx, &next, &names);
                        s.spawn(move || {
                            let mut sp = Spans::default();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= n {
                                    break;
                                }
                                let (a, req) = adhoc_request(run.seed, i);
                                replay_one(ctx, &names[a], &req, stream_seed(run.seed, i), &mut sp);
                            }
                            sp
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("replay client panicked"))
                    .collect()
            });
            for p in parts {
                spans.merge(p);
            }
            let mut probe = Spans::default();
            for i in n.saturating_sub(HIT_PROBES as u64)..n {
                let (_, req) = adhoc_request(run.seed, i);
                replay_one(&ctx, "hit-probe", &req, 0, &mut probe);
            }
            spans.admit_hit_us = probe.admit_hit_us;
        }
        Kind::DashboardHot => {
            for (i, panel) in pool.iter().enumerate() {
                replay_one(&ctx, "warmup", &panel.spellings[0], i as u64, &mut spans);
            }
            // Only the timed hits count as requests of the replay.
            spans.request_us.clear();
            let boards = dashboards(run.seed, pool);
            let names: Vec<String> = (0..boards.pages.len()).map(|i| run.analyst(i)).collect();
            let parts: Vec<Spans> = std::thread::scope(|s| {
                let handles: Vec<_> = phase
                    .pages
                    .iter()
                    .map(|&(client_seed, pages)| {
                        let (ctx, boards, names) = (&ctx, &boards, &names);
                        s.spawn(move || {
                            let mut sp = Spans::default();
                            let mut rng = StdRng::seed_from_u64(client_seed);
                            for _ in 0..pages {
                                let a = boards.zipf.sample(&mut rng);
                                for &panel in &boards.pages[a] {
                                    let spellings = &pool[panel].spellings;
                                    let req = &spellings[rng.gen_range(0..spellings.len())];
                                    replay_one(ctx, &names[a], req, 0, &mut sp);
                                }
                            }
                            sp
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("replay client panicked"))
                    .collect()
            });
            for p in parts {
                spans.merge(p);
            }
        }
    }
    Ok((spans, written.load(Ordering::Relaxed)))
}

/// One request through the layers, in the service's order.
fn replay_one(ctx: &Ctx, analyst: &str, req: &Request, noise_seed: u64, sp: &mut Spans) {
    let t_req = Instant::now();
    let t = Instant::now();
    let Ok(parsed) = parse_query(&req.sql) else {
        sp.errors += 1;
        return;
    };
    sp.parse_us.push(us(t.elapsed()));

    let t = Instant::now();
    let query = canonicalize(&parsed);
    let key = CacheKey::new(print_query(&query), ctx.params);
    sp.canonicalize_us.push(us(t.elapsed()));

    let mut charge_span = Duration::ZERO;
    let t = Instant::now();
    let decision = ctx.cache.admit(
        &key,
        || (),
        || {
            let t = Instant::now();
            let charge = ctx
                .ledger
                .try_charge(analyst, ctx.params.epsilon, ctx.params.delta);
            charge_span = t.elapsed();
            charge
        },
    );
    let charge = match decision {
        Admission::Hit(answer) => {
            black_box(answer.rows.clone());
            sp.admit_hit_us.push(us(t.elapsed()));
            sp.request_us.push(us(t_req.elapsed()));
            return;
        }
        Admission::Admitted(charge) => charge,
        Admission::Coalesced | Admission::Rejected(_) => {
            sp.errors += 1;
            return;
        }
    };

    let outcome = compute(ctx, &query, noise_seed, req.class, sp);
    let t = Instant::now();
    match outcome {
        Some(answer) => {
            ctx.ledger.settle(&charge);
            sp.charge_us.push(us(charge_span + t.elapsed()));
            ctx.cache.complete(key, answer);
            sp.request_us.push(us(t_req.elapsed()));
        }
        None => {
            ctx.ledger.refund(&charge);
            ctx.cache.fail(&key);
            sp.errors += 1;
        }
    }
}

/// Analysis, execution and perturbation of an admitted query.
fn compute(
    ctx: &Ctx,
    query: &Query,
    noise_seed: u64,
    class: Class,
    sp: &mut Spans,
) -> Option<CachedAnswer> {
    let t = Instant::now();
    let analysis = analyze_with(query, ctx.db, &ctx.flex.analysis).ok()?;
    sp.analysis_us.push(us(t.elapsed()));

    let t = Instant::now();
    let (trace, truth) = ctx.db.execute_traced(query);
    let exec = t.elapsed();
    let truth = truth.ok()?;
    sp.exec_ms.push((class, ms(exec)));
    sp.rows_scanned += trace.rows_scanned;
    sp.morsels += trace.morsels;
    sp.fallbacks += u64::from(matches!(trace.route, RouteDecision::Fallback(_)));
    sp.executed.push(query.clone());

    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(noise_seed);
    let rows = perturb(ctx, &analysis, &truth, &mut rng)?;
    sp.perturbation_us.push(us(t.elapsed()));
    sp.cells += (rows.len() * analysis.outputs.iter().filter(|o| o.is_some()).count()) as u64;
    sp.releases += 1;
    Some(CachedAnswer {
        columns: truth.columns,
        rows,
        join_count: analysis.join_count,
    })
}

/// Smooth each output's sensitivity, enumerate histogram bins where the
/// labels are public, and add Laplace noise to every aggregate cell.
fn perturb(
    ctx: &Ctx,
    analysis: &AnalyzedQuery,
    truth: &ResultSet,
    rng: &mut StdRng,
) -> Option<Vec<Vec<Value>>> {
    let n = ctx.db.total_rows();
    let sens: Vec<Option<SmoothSensitivity>> = analysis
        .outputs
        .iter()
        .map(|o| o.as_ref().map(|s| smooth(s, ctx.params, n)).transpose())
        .collect::<Result<_, _>>()
        .ok()?;
    let noise = |row: &[Value], rng: &mut StdRng| -> Vec<Value> {
        row.iter()
            .zip(&sens)
            .map(|(v, s)| match s {
                None => v.clone(),
                Some(s) => Value::Float(v.as_f64().unwrap_or(0.0) + laplace(rng, s.noise_scale)),
            })
            .collect()
    };
    let bins = if analysis.is_histogram() {
        enumerate_bins(ctx.db, &analysis.lowered.group_by, ctx.flex.max_bins).ok()?
    } else {
        None
    };
    let Some(bins) = bins else {
        return Some(truth.rows.iter().map(|r| noise(r, rng)).collect());
    };
    let labels: Vec<usize> = analysis
        .lowered
        .outputs
        .iter()
        .enumerate()
        .filter_map(|(i, o)| matches!(o, OutputColumn::Label(_)).then_some(i))
        .collect();
    let by_label: HashMap<RowKey, &Vec<Value>> = truth
        .rows
        .iter()
        .map(|r| {
            let l: Vec<Value> = labels.iter().map(|&c| r[c].clone()).collect();
            (RowKey::from_values(&l), r)
        })
        .collect();
    let width = truth.columns.len();
    Some(
        bins.iter()
            .map(|bin| match by_label.get(&RowKey::from_values(bin)) {
                Some(row) => noise(row, rng),
                None => {
                    let mut row = vec![Value::Int(0); width];
                    for (b, &c) in labels.iter().enumerate() {
                        row[c] = bin[b].clone();
                    }
                    noise(&row, rng)
                }
            })
            .collect(),
    )
}

/// Σ execution at parallelism 1 ÷ Σ at nproc over the executed queries,
/// each run serially.
fn morsel_scaling(run: &Run, db: &Database, executed: &[Query]) -> f64 {
    let sample = &executed[..executed.len().min(SCALING_QUERIES)];
    let total = |workers: usize| {
        db.set_parallelism(workers);
        sample
            .iter()
            .map(|q| {
                let t = Instant::now();
                let _ = black_box(db.execute_traced(q));
                t.elapsed().as_secs_f64()
            })
            .sum::<f64>()
    };
    let one = total(1);
    let all = total(run.nproc);
    db.set_parallelism(run.plan.parallelism);
    one / all
}

/// What the service pass measured, for the per-layer table.
struct PassFigures {
    hit_ratio: f64,
    cache_bytes: f64,
    fsyncs: f64,
    wal_bytes: f64,
    recovery_s: f64,
    queue_us: Vec<f64>,
    service_hit_us: Vec<f64>,
    scaling: f64,
    overhead_pct: f64,
}

fn p(xs: &[f64], q: f64) -> f64 {
    // A layer with no calls on this workload reads 0.
    quantile(&mut xs.to_vec(), q).unwrap_or(0.0)
}

fn per_layer(times: &SetupTimes, s: &Spans, f: PassFigures) -> Vec<Metric> {
    let executed = s.exec_ms.len().max(1) as f64;
    let exec_total: f64 = s.exec_ms.iter().map(|(_, m)| m * 1e3).sum();
    let analysis_total: f64 = s.analysis_us.iter().sum();
    let mut m = vec![
        Metric::new("setup.generate_s", p(&times.generate, 0.5), "s"),
        Metric::new("setup.service_start_s", p(&times.start, 0.5), "s"),
        Metric::new("setup.warm_s", p(&times.warm, 0.5), "s"),
        Metric::new("sql.parse_us_p50", p(&s.parse_us, 0.5), "us"),
        Metric::new("sql.canonicalize_us_p50", p(&s.canonicalize_us, 0.5), "us"),
        Metric::new("service.hit_us_p50", p(&f.service_hit_us, 0.5), "us"),
        Metric::new("cache.admit_us_p50", p(&s.admit_hit_us, 0.5), "us"),
        Metric::new("cache.hit_ratio", f.hit_ratio, "ratio"),
        Metric::new("cache.bytes", f.cache_bytes, "bytes"),
        Metric::new("ledger.charge_us_p50", p(&s.charge_us, 0.5), "us"),
        Metric::new("ledger.charge_us_p99", p(&s.charge_us, 0.99), "us"),
        Metric::new("wal.fsyncs_per_query", f.fsyncs, "count"),
        Metric::new("wal.bytes_per_query", f.wal_bytes, "bytes"),
        Metric::new("wal.recovery_s", f.recovery_s, "s"),
        Metric::new("queue.wait_us_p50", p(&f.queue_us, 0.5), "us"),
        Metric::new("queue.wait_us_p99", p(&f.queue_us, 0.99), "us"),
        Metric::new("analysis.us_p50", p(&s.analysis_us, 0.5), "us"),
        Metric::new(
            "analysis.overhead_pct",
            if exec_total > 0.0 {
                analysis_total / exec_total * 100.0
            } else {
                0.0
            },
            "%",
        ),
        Metric::new("perturbation.us_p50", p(&s.perturbation_us, 0.5), "us"),
        Metric::new(
            "perturbation.cells_per_query",
            s.cells as f64 / s.releases.max(1) as f64,
            "count",
        ),
    ];
    for class in Class::ALL {
        let xs: Vec<f64> = s
            .exec_ms
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, v)| *v)
            .collect();
        m.push(Metric::new(
            format!("exec.{}.ms_p50", class.name()),
            p(&xs, 0.5),
            "ms",
        ));
    }
    m.extend([
        Metric::new(
            "exec.rows_scanned_per_query",
            s.rows_scanned as f64 / executed,
            "count",
        ),
        Metric::new(
            "exec.morsels_per_query",
            s.morsels as f64 / executed,
            "count",
        ),
        Metric::new("exec.fallback_queries", s.fallbacks as f64, "count"),
        Metric::new("morsel.scaling", f.scaling, "ratio"),
        Metric::new("trace.overhead_pct", f.overhead_pct, "%"),
    ]);
    m
}
