//! The request streams of the three workloads.
//!
//! Each request carries its SQL (in one spelling), the execution class it
//! is timed under, and a [`Spec`]: the template parameters the oracle
//! needs to compute the true answer without the database engine.

use crate::sql::{From, Lit, Op, Pred, Shape, Spelling, Wrap};
use flex_db::Value;
use flex_workloads::uber::date_2016;
use flex_workloads::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Execution classes the traced run times `Database::execute_traced` by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    CountKernel,
    CountBetween,
    JoinPublic,
    JoinPrivate,
    JoinM2m,
    Histogram,
    Cte,
    Derived,
    Small,
}

impl Class {
    pub const ALL: [Class; 9] = [
        Class::CountKernel,
        Class::CountBetween,
        Class::JoinPublic,
        Class::JoinPrivate,
        Class::JoinM2m,
        Class::Histogram,
        Class::Cte,
        Class::Derived,
        Class::Small,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::CountKernel => "count-kernel",
            Class::CountBetween => "count-between",
            Class::JoinPublic => "join-public",
            Class::JoinPrivate => "join-private",
            Class::JoinM2m => "join-m2m",
            Class::Histogram => "histogram",
            Class::Cte => "cte",
            Class::Derived => "derived",
            Class::Small => "small",
        }
    }
}

/// A conjunction of predicates over `trips` (days are 2016 day indexes).
#[derive(Debug, Clone, Default)]
pub struct TripFilter {
    pub city: Option<i64>,
    pub cities: Vec<i64>,
    pub days: Option<(u32, u32)>,
    pub from_day: Option<u32>,
    pub completed: bool,
    pub fare_gt_cents: Option<i64>,
    pub driver: Option<i64>,
}

/// A conjunction of predicates over `drivers`.
#[derive(Debug, Clone, Default)]
pub struct DriverFilter {
    pub city: Option<i64>,
    pub vehicle: Option<&'static str>,
    pub active: bool,
    pub signup_from: Option<u32>,
    pub min_id: Option<i64>,
}

/// What a request computes, in terms the oracle evaluates directly.
#[derive(Debug, Clone)]
pub enum Spec {
    /// `COUNT(*)` over trips.
    TripCount(TripFilter),
    /// `COUNT(*)` over trips ⋈ cities, filtered on the city's name.
    PublicJoinCount { city: String, trip: TripFilter },
    /// `COUNT(*)` over trips ⋈ drivers.
    TripDriverCount {
        trip: TripFilter,
        driver: DriverFilter,
    },
    /// `COUNT(*)` over drivers ⋈ analytics.
    DriverAnalyticsCount {
        min_trips: i64,
        driver: DriverFilter,
    },
    /// `COUNT(*)` over the user_tags self-join on `tag`.
    TagPairs {
        tag: &'static str,
        a_after: u32,
        b_days: (u32, u32),
    },
    /// Trips per city name over trips ⋈ cities; every city is a bin.
    HistCity(TripFilter),
    /// Trips per (city name, status); observed bins only.
    HistCityStatus(TripFilter),
    /// Trips per driver of one named city; observed bins only.
    HistDriver { city: String, trip: TripFilter },
    /// Drivers per city name over drivers ⋈ cities; every city is a bin.
    HistDriverCity(DriverFilter),
    /// `SUM(fare)` over trips.
    FareSum(TripFilter),
    /// `AVG(fare)` over trips.
    FareAvg(TripFilter),
    /// `COUNT(*)` over riders.
    RiderCount {
        city: i64,
        from_day: u32,
        min_id: i64,
    },
}

impl Spec {
    /// A join-free `COUNT(*)`: elastic sensitivity 1, noise scale 2/ε.
    pub fn is_plain_count(&self) -> bool {
        matches!(self, Spec::TripCount(_) | Spec::RiderCount { .. })
    }
}

/// One request: the SQL sent to the service and what it should answer.
#[derive(Debug, Clone)]
pub struct Request {
    pub class: Class,
    pub sql: String,
    pub spec: Spec,
    /// For CTE and derived-table spellings: the same query phrased plainly.
    pub plain_sql: Option<String>,
}

/// A template instance before spelling.
struct Instance {
    class: Class,
    shape: Shape,
    spec: Spec,
}

impl Instance {
    fn request(&self, sp: Spelling) -> Request {
        let plain_sql = (self.shape.wrap != Wrap::Plain).then(|| {
            let mut plain = self.shape.clone();
            plain.wrap = Wrap::Plain;
            plain.render(Spelling::default())
        });
        Request {
            class: self.class,
            sql: self.shape.render(sp),
            spec: self.spec.clone(),
            plain_sql,
        }
    }
}

const VEHICLES: [&str; 4] = ["car", "motorbike", "suv", "bike"];
const M2M_TAGS: [&str; 3] = ["duplicate_account", "fraud_review", "vip"];
const HIST_DRIVER_CITY: &str = "hong kong";

fn date(day: u32) -> Lit {
    Lit::Str(date_2016(day))
}

/// A random window of one of the template set's four lengths (1 day,
/// 1 week, 1 month, about a year), as inclusive day indexes.
fn window(rng: &mut StdRng, kind: usize) -> (u32, u32) {
    let len = match kind {
        0 => 1,
        1 => 7,
        2 => rng.gen_range(28..=31),
        _ => rng.gen_range(300..=366),
    };
    let lo = rng.gen_range(0..=366 - len);
    (lo, lo + len - 1)
}

fn trip_preds(f: &TripFilter, alias: bool) -> Vec<Pred> {
    let col = |bare: &'static str, aliased: &'static str| if alias { aliased } else { bare };
    let mut p = Vec::new();
    if let Some(c) = f.city {
        p.push(Pred::Cmp(col("city_id", "t.city_id"), Op::Eq, Lit::Int(c)));
    }
    if !f.cities.is_empty() {
        p.push(Pred::In(
            col("city_id", "t.city_id"),
            f.cities.iter().map(|&c| Lit::Int(c)).collect(),
        ));
    }
    if let Some(d) = f.driver {
        p.push(Pred::Cmp(
            col("driver_id", "t.driver_id"),
            Op::Eq,
            Lit::Int(d),
        ));
    }
    if let Some((lo, hi)) = f.days {
        p.push(Pred::Between(
            col("trip_date", "t.trip_date"),
            date(lo),
            date(hi),
        ));
    }
    if let Some(d) = f.from_day {
        p.push(Pred::Cmp(col("trip_date", "t.trip_date"), Op::Ge, date(d)));
    }
    if f.completed {
        p.push(Pred::Cmp(
            col("status", "t.status"),
            Op::Eq,
            Lit::Str("completed".into()),
        ));
    }
    if let Some(c) = f.fare_gt_cents {
        p.push(Pred::Cmp(col("fare", "t.fare"), Op::Gt, Lit::Cents(c)));
    }
    p
}

fn driver_preds(f: &DriverFilter) -> Vec<Pred> {
    let mut p = Vec::new();
    if let Some(c) = f.city {
        p.push(Pred::Cmp("d.city_id", Op::Eq, Lit::Int(c)));
    }
    if let Some(v) = f.vehicle {
        p.push(Pred::Cmp("d.vehicle", Op::Eq, Lit::Str(v.into())));
    }
    if f.active {
        p.push(Pred::Cmp("d.status", Op::Eq, Lit::Str("active".into())));
    }
    if let Some(d) = f.signup_from {
        p.push(Pred::Cmp("d.signup_date", Op::Ge, date(d)));
    }
    if let Some(k) = f.min_id {
        p.push(Pred::Cmp("d.id", Op::Ge, Lit::Int(k)));
    }
    p
}

const TRIPS_CITIES: From = From::Join {
    left: "trips t",
    right: "cities c",
    on: ("t.city_id", "c.id"),
};
const TRIPS_DRIVERS: From = From::Join {
    left: "trips t",
    right: "drivers d",
    on: ("t.driver_id", "d.id"),
};
const DRIVERS_ANALYTICS: From = From::Join {
    left: "drivers d",
    right: "analytics a",
    on: ("d.id", "a.driver_id"),
};
const DRIVERS_CITIES: From = From::Join {
    left: "drivers d",
    right: "cities c",
    on: ("d.city_id", "c.id"),
};

/// The template families of `uber::workload`, in that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Family {
    CityWindow(usize),
    FareAbove,
    Driver,
    DriverMonth,
    PublicJoin,
    HistCity(usize),
    PrivateJoin,
    BroadJoin(usize),
    OneToOne,
    ManyToMany(usize),
    HistDriver,
    /// Dashboard-only: a city IN-list count, for the IN-order spelling.
    CityIn,
    /// Dashboard-only: a two-key histogram, for the GROUP BY-order spelling.
    HistCityStatus,
}

/// Requests per round of the cold workload.
pub const COLD_ROUND: usize = 101;

/// One round of the cold workload: the 101 template slots of
/// `uber::workload` in its proportions (48 city-window counts, 5 fare
/// thresholds, 4 individual-targeting counts, 10 public joins, 4 city
/// histograms, 16 + 6 one-to-many joins, 4 one-to-one joins, 3
/// many-to-many self-joins, 1 driver histogram).
fn cold_round() -> Vec<Family> {
    let mut r = Vec::with_capacity(COLD_ROUND);
    for kind in 0..4 {
        r.extend(std::iter::repeat_n(Family::CityWindow(kind), 12));
    }
    r.extend(std::iter::repeat_n(Family::FareAbove, 5));
    r.extend([Family::Driver, Family::Driver]);
    r.extend([Family::DriverMonth, Family::DriverMonth]);
    r.extend(std::iter::repeat_n(Family::PublicJoin, 10));
    r.extend((0..4).map(Family::HistCity));
    r.extend(std::iter::repeat_n(Family::PrivateJoin, 16));
    r.extend((0..6).map(Family::BroadJoin));
    r.extend(std::iter::repeat_n(Family::OneToOne, 4));
    r.extend((0..3).map(Family::ManyToMany));
    r.push(Family::HistDriver);
    r
}

/// City names as stored in the generated `cities` table, by id − 1.
pub struct Names {
    pub cities: Vec<String>,
}

/// One instance of `fam`. `slot` counts the family's instances so far:
/// cities and fare thresholds are stratified by it (cities in rotation,
/// fares one per fifth of the fare range), so every round of a stream
/// asks about the same mix of populations whatever the seed.
fn instantiate(fam: Family, wrap: Wrap, names: &Names, rng: &mut StdRng, slot: usize) -> Instance {
    let n_cities = names.cities.len();
    let city = 1 + (slot % n_cities) as i64;
    let any_day = |rng: &mut StdRng| rng.gen_range(0..366u32);
    let count = vec!["COUNT(*)"];
    match fam {
        Family::CityWindow(kind) => {
            let f = TripFilter {
                city: Some(city),
                days: Some(window(rng, kind)),
                completed: true,
                ..TripFilter::default()
            };
            trip_count(f, Class::CountBetween, wrap)
        }
        Family::FareAbove => {
            let stratum = (slot % 5) as i64;
            let f = TripFilter {
                fare_gt_cents: Some(300 + 800 * stratum + rng.gen_range(0..800)),
                ..TripFilter::default()
            };
            trip_count(f, Class::CountKernel, wrap)
        }
        Family::Driver => {
            let f = TripFilter {
                driver: Some(rng.gen_range(1..=2000)),
                from_day: Some(rng.gen_range(0..60)),
                ..TripFilter::default()
            };
            trip_count(f, Class::CountKernel, wrap)
        }
        Family::DriverMonth => {
            let f = TripFilter {
                driver: Some(rng.gen_range(1..=2000)),
                days: Some(window(rng, 2)),
                ..TripFilter::default()
            };
            trip_count(f, Class::CountBetween, wrap)
        }
        Family::CityIn => {
            let mut cities = Vec::new();
            while cities.len() < 3 {
                let c = rng.gen_range(1..=n_cities as i64);
                if !cities.contains(&c) {
                    cities.push(c);
                }
            }
            let f = TripFilter {
                cities,
                from_day: Some(any_day(rng)),
                ..TripFilter::default()
            };
            trip_count(f, Class::CountKernel, wrap)
        }
        Family::PublicJoin => {
            let city = names.cities[city as usize - 1].clone();
            let trip = TripFilter {
                completed: true,
                from_day: Some(any_day(rng)),
                ..TripFilter::default()
            };
            let mut preds = vec![Pred::Cmp("c.name", Op::Eq, Lit::Str(city.clone()))];
            preds.extend(trip_preds(&trip, true));
            Instance {
                class: Class::JoinPublic,
                shape: Shape::plain(count, TRIPS_CITIES, preds),
                spec: Spec::PublicJoinCount { city, trip },
            }
        }
        Family::HistCity(kind) => {
            let trip = TripFilter {
                days: Some(window(rng, kind)),
                ..TripFilter::default()
            };
            let mut shape = Shape::plain(
                vec!["c.name", "COUNT(*)"],
                TRIPS_CITIES,
                trip_preds(&trip, true),
            );
            shape.group_by = vec!["c.name"];
            Instance {
                class: Class::Histogram,
                shape,
                spec: Spec::HistCity(trip),
            }
        }
        Family::HistCityStatus => {
            let trip = TripFilter {
                days: Some(window(rng, 2)),
                ..TripFilter::default()
            };
            let mut shape = Shape::plain(
                vec!["c.name", "t.status", "COUNT(*)"],
                TRIPS_CITIES,
                trip_preds(&trip, true),
            );
            shape.group_by = vec!["c.name", "t.status"];
            Instance {
                class: Class::Histogram,
                shape,
                spec: Spec::HistCityStatus(trip),
            }
        }
        Family::HistDriver => {
            let lo = rng.gen_range(0..340u32);
            let trip = TripFilter {
                days: Some((lo, lo + rng.gen_range(20..=26))),
                ..TripFilter::default()
            };
            let mut preds = vec![Pred::Cmp(
                "c.name",
                Op::Eq,
                Lit::Str(HIST_DRIVER_CITY.into()),
            )];
            preds.extend(trip_preds(&trip, true));
            let mut shape = Shape::plain(vec!["t.driver_id", "COUNT(*)"], TRIPS_CITIES, preds);
            shape.group_by = vec!["t.driver_id"];
            Instance {
                class: Class::Histogram,
                shape,
                spec: Spec::HistDriver {
                    city: HIST_DRIVER_CITY.into(),
                    trip,
                },
            }
        }
        Family::PrivateJoin => {
            let trip = TripFilter {
                completed: true,
                from_day: Some(any_day(rng)),
                ..TripFilter::default()
            };
            let driver = DriverFilter {
                city: Some(city),
                vehicle: Some(VEHICLES[slot / n_cities % 2]),
                ..DriverFilter::default()
            };
            trip_driver_count(trip, driver)
        }
        Family::BroadJoin(i) => {
            // The six broad predicates of the template set, each with a
            // random date or fare bound so that every instance is distinct.
            let mut trip = TripFilter::default();
            let mut driver = DriverFilter::default();
            match i {
                0 => trip.completed = true,
                1 => driver.active = true,
                2 => {
                    trip.completed = true;
                    driver.active = true;
                }
                3 => trip.fare_gt_cents = Some(rng.gen_range(300..4300)),
                4 => {}
                _ => driver.vehicle = Some("car"),
            }
            if i != 3 {
                trip.from_day = Some(any_day(rng));
            }
            trip_driver_count(trip, driver)
        }
        Family::OneToOne => {
            let min_trips = rng.gen_range(0..400);
            let driver = DriverFilter {
                active: true,
                signup_from: Some(any_day(rng)),
                ..DriverFilter::default()
            };
            let mut preds = vec![Pred::Cmp("a.completed_trips", Op::Ge, Lit::Int(min_trips))];
            preds.extend(driver_preds(&driver));
            Instance {
                class: Class::JoinPrivate,
                shape: Shape::plain(count, DRIVERS_ANALYTICS, preds),
                spec: Spec::DriverAnalyticsCount { min_trips, driver },
            }
        }
        Family::ManyToMany(i) => {
            let tag = M2M_TAGS[i % M2M_TAGS.len()];
            let a_after = rng.gen_range(100..250u32);
            let b_lo = rng.gen_range(150..350u32);
            let b_days = (b_lo, b_lo + 7);
            let preds = vec![
                Pred::Cmp("a.tag", Op::Eq, Lit::Str(tag.into())),
                Pred::Cmp("a.tagged_at", Op::Gt, date(a_after)),
                Pred::Between("b.tagged_at", date(b_days.0), date(b_days.1)),
            ];
            let from = From::Join {
                left: "user_tags a",
                right: "user_tags b",
                on: ("a.tag", "b.tag"),
            };
            Instance {
                class: Class::JoinM2m,
                shape: Shape::plain(count, from, preds),
                spec: Spec::TagPairs {
                    tag,
                    a_after,
                    b_days,
                },
            }
        }
    }
}

fn trip_count(f: TripFilter, class: Class, wrap: Wrap) -> Instance {
    let class = match wrap {
        Wrap::Plain => class,
        Wrap::Cte => Class::Cte,
        Wrap::Derived => Class::Derived,
    };
    let mut shape = Shape::plain(
        vec!["COUNT(*)"],
        From::Table("trips"),
        trip_preds(&f, false),
    );
    shape.wrap = wrap;
    Instance {
        class,
        shape,
        spec: Spec::TripCount(f),
    }
}

fn trip_driver_count(trip: TripFilter, driver: DriverFilter) -> Instance {
    let mut preds = driver_preds(&driver);
    preds.extend(trip_preds(&trip, true));
    Instance {
        class: Class::JoinPrivate,
        shape: Shape::plain(vec!["COUNT(*)"], TRIPS_DRIVERS, preds),
        spec: Spec::TripDriverCount { trip, driver },
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// A deterministic stream seed for one purpose of one run.
pub fn stream_seed(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The cold workload: `rounds` rounds of [`cold_round`], each shuffled,
/// every request distinct across the whole stream. Five of every round's
/// join-free counts are phrased through a CTE (three) or a derived table
/// (two), the CTE rate of the query-corpus generator.
pub fn cold_stream(seed: u64, rounds: usize, names: &Names) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 1));
    let mut seen = Seen::new(&mut rng);
    let mut out = Vec::with_capacity(rounds * COLD_ROUND);
    for _ in 0..rounds {
        let mut round = cold_round();
        shuffle(&mut round, &mut rng);
        let mut wrapped = 0;
        for fam in round {
            let wrap = match (fam, wrapped) {
                (Family::CityWindow(_) | Family::FareAbove, 0..=2) => Wrap::Cte,
                (Family::CityWindow(_) | Family::FareAbove, 3..=4) => Wrap::Derived,
                _ => Wrap::Plain,
            };
            if wrap != Wrap::Plain {
                wrapped += 1;
            }
            out.push(distinct(fam, wrap, names, &mut rng, &mut seen).request(Spelling::default()));
        }
    }
    out
}

/// The queries a stream has issued so far, and how many instances of each
/// family it has drawn (offset by a seeded rotation).
struct Seen {
    queries: HashSet<String>,
    slots: HashMap<Family, usize>,
    offset: usize,
}

impl Seen {
    fn new(rng: &mut StdRng) -> Seen {
        Seen {
            queries: HashSet::new(),
            slots: HashMap::new(),
            offset: rng.gen_range(0..1000),
        }
    }
}

/// A new instance of `fam`, distinct from every query issued before.
fn distinct(fam: Family, wrap: Wrap, names: &Names, rng: &mut StdRng, seen: &mut Seen) -> Instance {
    let n = seen.slots.entry(fam).or_default();
    let slot = *n + seen.offset;
    *n += 1;
    loop {
        let inst = instantiate(fam, wrap, names, rng, slot);
        let mut plain = inst.shape.clone();
        plain.wrap = Wrap::Plain;
        if seen.queries.insert(plain.render(Spelling::default())) {
            return inst;
        }
    }
}

/// One dashboard panel: every spelling of one pool query.
#[derive(Debug, Clone)]
pub struct Panel {
    pub spellings: Vec<Request>,
    /// Relative cost of serving the panel from the cache, known once its
    /// first release is (see `Panel::set_cost`).
    pub cost: f64,
}

impl Panel {
    /// A hit parses and canonicalizes the query text and clones the
    /// answer, so its cost follows the mean spelling length plus the
    /// answer's cells, a cell counting a third of a character: the 40
    /// panels, timed one by one, cost 3 to 25 µs a hit in that proportion.
    pub fn set_cost(&mut self, rows: &[Vec<Value>]) {
        let text: usize = self.spellings.iter().map(|r| r.sql.len()).sum();
        let cells: usize = rows.iter().map(Vec::len).sum();
        self.cost = text as f64 / self.spellings.len() as f64 + cells as f64 / 3.0;
    }
}

/// The dashboard pool: 40 distinct panels drawn from the same template
/// families, stratified so every execution class appears, plus IN-list
/// counts and a two-key histogram for the IN-order and GROUP BY-order
/// spellings. A dashboard is designed once, so the panels are the same
/// for every workload seed; the seed drives the data, who asks, and how.
pub fn dashboard_pool(names: &Names) -> Vec<Panel> {
    let mut rng = StdRng::seed_from_u64(stream_seed(DASHBOARD_POOL_SEED, 2));
    let mut seen = Seen::new(&mut rng);
    let mut fams: Vec<(Family, Wrap)> = Vec::new();
    for kind in 0..4 {
        fams.extend(std::iter::repeat_n(
            (Family::CityWindow(kind), Wrap::Plain),
            3,
        ));
    }
    fams.extend(std::iter::repeat_n((Family::FareAbove, Wrap::Plain), 3));
    fams.extend([
        (Family::Driver, Wrap::Plain),
        (Family::DriverMonth, Wrap::Plain),
        (Family::HistCity(1), Wrap::Plain),
        (Family::HistCity(3), Wrap::Plain),
        (Family::BroadJoin(0), Wrap::Plain),
        (Family::BroadJoin(3), Wrap::Plain),
        (Family::ManyToMany(0), Wrap::Plain),
        (Family::HistDriver, Wrap::Plain),
        (Family::CityWindow(2), Wrap::Cte),
        (Family::FareAbove, Wrap::Derived),
        (Family::CityIn, Wrap::Plain),
        (Family::CityIn, Wrap::Plain),
        (Family::HistCityStatus, Wrap::Plain),
    ]);
    fams.extend(std::iter::repeat_n((Family::PublicJoin, Wrap::Plain), 4));
    fams.extend(std::iter::repeat_n((Family::PrivateJoin, Wrap::Plain), 6));
    fams.extend(std::iter::repeat_n((Family::OneToOne, Wrap::Plain), 2));
    fams.into_iter()
        .map(|(fam, wrap)| {
            let inst = distinct(fam, wrap, names, &mut rng, &mut seen);
            Panel {
                spellings: inst
                    .shape
                    .spellings()
                    .into_iter()
                    .map(|sp| inst.request(sp))
                    .collect(),
                cost: 0.0,
            }
        })
        .collect()
}

/// Dashboard analysts: who asks (Zipf-skewed) and which panels each
/// analyst's page shows.
pub struct Dashboards {
    pub pages: Vec<Vec<usize>>,
    pub zipf: Zipf,
}

const DASHBOARD_POOL_SEED: u64 = 0xDA5B_0A2D;
pub const DASHBOARD_ANALYSTS: usize = 64;
pub const PANELS_PER_PAGE: usize = 8;
pub const DASHBOARD_ZIPF_S: f64 = 1.1;

/// Every page shows one panel of each cost stratum: the pool, ranked by
/// `Panel::cost`, is cut into `PANELS_PER_PAGE` equal strata, and the seed
/// picks each page's panel within each. With pages of 8 panels drawn from
/// the whole pool, the pages of the few analysts who send most traffic
/// set a seed's mean hit cost, and one seed ran 12% slower than another,
/// run after run.
pub fn dashboards(seed: u64, pool: &[Panel]) -> Dashboards {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 3));
    let mut ranked: Vec<usize> = (0..pool.len()).collect();
    ranked.sort_by(|&a, &b| pool[a].cost.total_cmp(&pool[b].cost).then(a.cmp(&b)));
    let strata: Vec<&[usize]> = ranked
        .chunks(pool.len().div_ceil(PANELS_PER_PAGE))
        .collect();
    let pages = (0..DASHBOARD_ANALYSTS)
        .map(|_| {
            strata
                .iter()
                .map(|s| s[rng.gen_range(0..s.len())])
                .collect()
        })
        .collect();
    Dashboards {
        pages,
        zipf: Zipf::new(DASHBOARD_ANALYSTS, DASHBOARD_ZIPF_S),
    }
}

pub const ADHOC_ANALYSTS: usize = 128;
const ADHOC_TEMPLATES: u64 = 6;

/// Request `i` of the ad-hoc stream and the analyst who sends it. Every
/// index yields a distinct query: the index picks a template and walks a
/// seeded pseudo-random permutation of that template's parameter grid
/// (each grid holds over a hundred thousand points).
pub fn adhoc_request(seed: u64, i: u64) -> (usize, Request) {
    let salt = stream_seed(seed, 4);
    let analyst = (stream_seed(salt, i) % ADHOC_ANALYSTS as u64) as usize;
    let template = i % ADHOC_TEMPLATES;
    let j = i / ADHOC_TEMPLATES;
    let grid = |m: u64| permute(j % m, m, salt ^ template);
    let day = |k: u64| (k % 366) as u32;
    let count = vec!["COUNT(*)"];
    let (shape, spec) = match template {
        0 => {
            let k = grid(2000 * 4000);
            let f = TripFilter {
                driver: Some(1 + (k % 2000) as i64),
                fare_gt_cents: Some(300 + (k / 2000) as i64),
                ..TripFilter::default()
            };
            (
                Shape::plain(count, From::Table("trips"), trip_preds(&f, false)),
                Spec::TripCount(f),
            )
        }
        1 => {
            let k = grid(2000 * 366);
            let f = TripFilter {
                driver: Some(1 + (k % 2000) as i64),
                from_day: Some(day(k / 2000)),
                ..TripFilter::default()
            };
            (
                Shape::plain(
                    vec!["SUM(fare)"],
                    From::Table("trips"),
                    trip_preds(&f, false),
                ),
                Spec::FareSum(f),
            )
        }
        2 => {
            let k = grid(2000 * 4000);
            let f = TripFilter {
                driver: Some(1 + (k % 2000) as i64),
                fare_gt_cents: Some(300 + (k / 2000) as i64),
                ..TripFilter::default()
            };
            (
                Shape::plain(
                    vec!["AVG(fare)"],
                    From::Table("trips"),
                    trip_preds(&f, false),
                ),
                Spec::FareAvg(f),
            )
        }
        3 => {
            let k = grid(366 * 4 * 2000);
            let driver = DriverFilter {
                signup_from: Some(day(k)),
                vehicle: Some(VEHICLES[((k / 366) % 4) as usize]),
                min_id: Some(1 + (k / (366 * 4)) as i64),
                ..DriverFilter::default()
            };
            let mut shape = Shape::plain(
                vec!["c.name", "COUNT(*)"],
                DRIVERS_CITIES,
                driver_preds(&driver),
            );
            shape.group_by = vec!["c.name"];
            (shape, Spec::HistDriverCity(driver))
        }
        4 => {
            let k = grid(400 * 366);
            let min_trips = (k % 400) as i64;
            let driver = DriverFilter {
                signup_from: Some(day(k / 400)),
                ..DriverFilter::default()
            };
            let mut preds = vec![Pred::Cmp("a.completed_trips", Op::Ge, Lit::Int(min_trips))];
            preds.extend(driver_preds(&driver));
            (
                Shape::plain(count, DRIVERS_ANALYTICS, preds),
                Spec::DriverAnalyticsCount { min_trips, driver },
            )
        }
        _ => {
            let k = grid(30 * 366 * 5000);
            let city = 1 + (k % 30) as i64;
            let from_day = day(k / 30);
            let min_id = 1 + (k / (30 * 366)) as i64;
            let preds = vec![
                Pred::Cmp("city_id", Op::Eq, Lit::Int(city)),
                Pred::Cmp("signup_date", Op::Ge, date(from_day)),
                Pred::Cmp("id", Op::Ge, Lit::Int(min_id)),
            ];
            (
                Shape::plain(count, From::Table("riders"), preds),
                Spec::RiderCount {
                    city,
                    from_day,
                    min_id,
                },
            )
        }
    };
    let inst = Instance {
        class: Class::Small,
        shape,
        spec,
    };
    (analyst, inst.request(Spelling::default()))
}

/// A keyed bijection on `0..m`: a four-round Feistel network over the
/// smallest even-width bit domain holding `m`, cycle-walked back into
/// range.
fn permute(j: u64, m: u64, key: u64) -> u64 {
    let bits = 64 - m.saturating_sub(1).leading_zeros();
    let half = bits.div_ceil(2).max(1);
    let mask = (1u64 << half) - 1;
    let mut x = j;
    loop {
        let (mut l, mut r) = (x >> half, x & mask);
        for round in 0..4 {
            let f = stream_seed(key ^ round, r) & mask;
            (l, r) = (r, l ^ f);
        }
        x = (l << half) | r;
        if x < m {
            return x;
        }
    }
}
