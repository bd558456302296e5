//! True answers computed in plain Rust over the generated tables.
//!
//! The oracle reads the rows the generator stored (`Table::rows`) once,
//! into plain structs, and evaluates every [`Spec`] with loops and maps —
//! never through the database's query engine — so a fault in parsing,
//! planning or execution cannot hide in both the answer and its check.

use crate::queries::{DriverFilter, Spec, TripFilter};
use flex_db::{Database, Value};
use std::collections::{BTreeMap, HashMap};

/// A histogram bin label.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Label {
    Int(i64),
    Str(String),
}

impl Label {
    pub fn of(v: &Value) -> Option<Label> {
        match v {
            Value::Int(i) => Some(Label::Int(*i)),
            Value::Str(s) => Some(Label::Str(s.to_string())),
            _ => None,
        }
    }
}

/// The true answer of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Truth {
    Scalar(f64),
    /// Per-bin truth. `enumerated` bins list every label of the public
    /// domain (absent ones as 0); otherwise only observed bins appear.
    Bins {
        enumerated: bool,
        cells: BTreeMap<Vec<Label>, f64>,
    },
}

struct Trip {
    driver: i64,
    city: i64,
    completed: bool,
    fare: f64,
    day: u32,
}

struct Driver {
    city: i64,
    vehicle: String,
    active: bool,
    signup: u32,
}

struct Rider {
    id: i64,
    city: i64,
    signup: u32,
}

pub struct Oracle {
    trips: Vec<Trip>,
    /// Trip positions by driver id, for the selective ad-hoc queries.
    trips_by_driver: HashMap<i64, Vec<usize>>,
    drivers: BTreeMap<i64, Driver>,
    riders: Vec<Rider>,
    tags: Vec<(String, u32)>,
    analytics: HashMap<i64, i64>,
    cities: BTreeMap<i64, String>,
}

/// `YYYY-MM-DD` in 2016 to a day index (the inverse of `date_2016`).
fn day_of(date: &str) -> u32 {
    const MONTH_DAYS: [u32; 12] = [31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
    let month: usize = date[5..7].parse().expect("month in a generated date");
    let day: u32 = date[8..10].parse().expect("day in a generated date");
    MONTH_DAYS[..month - 1].iter().sum::<u32>() + day - 1
}

fn rows<'a>(db: &'a Database, table: &str, cols: &[&str]) -> Vec<Vec<&'a Value>> {
    let t = db.table(table).expect("generated table");
    let idx: Vec<usize> = cols
        .iter()
        .map(|c| t.schema.index_of(c).expect("generated column"))
        .collect();
    t.rows
        .iter()
        .map(|r| idx.iter().map(|&i| &r[i]).collect())
        .collect()
}

fn int(v: &Value) -> i64 {
    v.as_i64().expect("integer column")
}

fn text(v: &Value) -> &str {
    v.as_str().expect("text column")
}

impl Oracle {
    pub fn new(db: &Database) -> Oracle {
        let trips: Vec<Trip> = rows(
            db,
            "trips",
            &["driver_id", "city_id", "status", "fare", "trip_date"],
        )
        .into_iter()
        .map(|r| Trip {
            driver: int(r[0]),
            city: int(r[1]),
            completed: text(r[2]) == "completed",
            fare: r[3].as_f64().expect("fare"),
            day: day_of(text(r[4])),
        })
        .collect();
        let mut trips_by_driver: HashMap<i64, Vec<usize>> = HashMap::new();
        for (i, t) in trips.iter().enumerate() {
            trips_by_driver.entry(t.driver).or_default().push(i);
        }
        let drivers = rows(
            db,
            "drivers",
            &["id", "city_id", "vehicle", "status", "signup_date"],
        )
        .into_iter()
        .map(|r| {
            (
                int(r[0]),
                Driver {
                    city: int(r[1]),
                    vehicle: text(r[2]).to_string(),
                    active: text(r[3]) == "active",
                    signup: day_of(text(r[4])),
                },
            )
        })
        .collect();
        let riders = rows(db, "riders", &["id", "city_id", "signup_date"])
            .into_iter()
            .map(|r| Rider {
                id: int(r[0]),
                city: int(r[1]),
                signup: day_of(text(r[2])),
            })
            .collect();
        let tags = rows(db, "user_tags", &["tag", "tagged_at"])
            .into_iter()
            .map(|r| (text(r[0]).to_string(), day_of(text(r[1]))))
            .collect();
        let analytics = rows(db, "analytics", &["driver_id", "completed_trips"])
            .into_iter()
            .map(|r| (int(r[0]), int(r[1])))
            .collect();
        let cities = rows(db, "cities", &["id", "name"])
            .into_iter()
            .map(|r| (int(r[0]), text(r[1]).to_string()))
            .collect();
        Oracle {
            trips,
            trips_by_driver,
            drivers,
            riders,
            tags,
            analytics,
            cities,
        }
    }

    fn city_id(&self, name: &str) -> i64 {
        self.cities
            .iter()
            .find(|(_, n)| *n == name)
            .map(|(id, _)| *id)
            .expect("city named by a template exists")
    }

    /// Trips passing `f`, visiting only the driver's trips when the
    /// filter pins one driver.
    fn trips<'a>(&'a self, f: &'a TripFilter) -> Box<dyn Iterator<Item = &'a Trip> + 'a> {
        let keep = move |t: &&Trip| trip_matches(f, t);
        match f.driver {
            Some(d) => Box::new(
                self.trips_by_driver
                    .get(&d)
                    .into_iter()
                    .flatten()
                    .map(|&i| &self.trips[i])
                    .filter(keep),
            ),
            None => Box::new(self.trips.iter().filter(keep)),
        }
    }

    pub fn truth(&self, spec: &Spec) -> Truth {
        match spec {
            Spec::TripCount(f) => Truth::Scalar(self.trips(f).count() as f64),
            Spec::PublicJoinCount { city, trip } => {
                let id = self.city_id(city);
                Truth::Scalar(self.trips(trip).filter(|t| t.city == id).count() as f64)
            }
            Spec::TripDriverCount { trip, driver } => Truth::Scalar(
                self.trips(trip)
                    .filter(|t| {
                        self.drivers
                            .get(&t.driver)
                            .is_some_and(|d| driver_matches(driver, t.driver, d))
                    })
                    .count() as f64,
            ),
            Spec::DriverAnalyticsCount { min_trips, driver } => Truth::Scalar(
                self.drivers
                    .iter()
                    .filter(|(id, d)| {
                        driver_matches(driver, **id, d)
                            && self.analytics.get(id).is_some_and(|n| n >= min_trips)
                    })
                    .count() as f64,
            ),
            Spec::TagPairs {
                tag,
                a_after,
                b_days,
            } => {
                let a = self
                    .tags
                    .iter()
                    .filter(|(t, d)| t == tag && d > a_after)
                    .count();
                let b = self
                    .tags
                    .iter()
                    .filter(|(t, d)| t == tag && (b_days.0..=b_days.1).contains(d))
                    .count();
                Truth::Scalar((a * b) as f64)
            }
            Spec::HistCity(trip) => {
                let mut cells: BTreeMap<Vec<Label>, f64> = self
                    .cities
                    .values()
                    .map(|n| (vec![Label::Str(n.clone())], 0.0))
                    .collect();
                for t in self.trips(trip) {
                    if let Some(name) = self.cities.get(&t.city) {
                        *cells
                            .get_mut(&vec![Label::Str(name.clone())])
                            .expect("every city is a bin") += 1.0;
                    }
                }
                Truth::Bins {
                    enumerated: true,
                    cells,
                }
            }
            Spec::HistCityStatus(trip) => {
                let mut cells = BTreeMap::new();
                for t in self.trips(trip) {
                    if let Some(name) = self.cities.get(&t.city) {
                        let status = if t.completed { "completed" } else { "canceled" };
                        *cells
                            .entry(vec![Label::Str(name.clone()), Label::Str(status.into())])
                            .or_insert(0.0) += 1.0;
                    }
                }
                Truth::Bins {
                    enumerated: false,
                    cells,
                }
            }
            Spec::HistDriver { city, trip } => {
                let id = self.city_id(city);
                let mut cells = BTreeMap::new();
                for t in self.trips(trip).filter(|t| t.city == id) {
                    *cells.entry(vec![Label::Int(t.driver)]).or_insert(0.0) += 1.0;
                }
                Truth::Bins {
                    enumerated: false,
                    cells,
                }
            }
            Spec::HistDriverCity(driver) => {
                let mut cells: BTreeMap<Vec<Label>, f64> = self
                    .cities
                    .values()
                    .map(|n| (vec![Label::Str(n.clone())], 0.0))
                    .collect();
                for (id, d) in &self.drivers {
                    if !driver_matches(driver, *id, d) {
                        continue;
                    }
                    if let Some(name) = self.cities.get(&d.city) {
                        *cells
                            .get_mut(&vec![Label::Str(name.clone())])
                            .expect("every city is a bin") += 1.0;
                    }
                }
                Truth::Bins {
                    enumerated: true,
                    cells,
                }
            }
            Spec::FareSum(f) => Truth::Scalar(self.trips(f).map(|t| t.fare).sum()),
            Spec::FareAvg(f) => {
                let (n, sum) = self
                    .trips(f)
                    .fold((0usize, 0.0), |(n, s), t| (n + 1, s + t.fare));
                // The mechanism noises an empty average around 0.
                Truth::Scalar(if n == 0 { 0.0 } else { sum / n as f64 })
            }
            Spec::RiderCount {
                city,
                from_day,
                min_id,
            } => Truth::Scalar(
                self.riders
                    .iter()
                    .filter(|r| r.city == *city && r.signup >= *from_day && r.id >= *min_id)
                    .count() as f64,
            ),
        }
    }
}

fn trip_matches(f: &TripFilter, t: &Trip) -> bool {
    f.city.is_none_or(|c| t.city == c)
        && (f.cities.is_empty() || f.cities.contains(&t.city))
        && f.driver.is_none_or(|d| t.driver == d)
        && f.days.is_none_or(|(lo, hi)| (lo..=hi).contains(&t.day))
        && f.from_day.is_none_or(|d| t.day >= d)
        && (!f.completed || t.completed)
        && f.fare_gt_cents.is_none_or(|c| t.fare > c as f64 / 100.0)
}

fn driver_matches(f: &DriverFilter, id: i64, d: &Driver) -> bool {
    f.city.is_none_or(|c| d.city == c)
        && f.vehicle.is_none_or(|v| d.vehicle == v)
        && (!f.active || d.active)
        && f.signup_from.is_none_or(|s| d.signup >= s)
        && f.min_id.is_none_or(|k| id >= k)
}
