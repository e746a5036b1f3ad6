//! Seeded generators: table contents, set-up text and op streams.
//!
//! Everything here is text and numbers made from `--seed`; nothing
//! depends on a crate under test, so the same stream drives the
//! end-to-end run (over loopback) and the traced run (in process).

use crate::check::{digest_of, Digest};
use crate::rng::{Rng, Zipf};

/// How big each workload's data is. The full sizes are the benchmark's
/// record and are repeated in `README.md`; change them only in a PR
/// that re-measures the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Rows of `account` (`oltp_commit`, `oltp_read`).
    pub accounts: usize,
    /// Distinct `branch` values of `account`.
    pub branches: usize,
    /// Rows of `r` and `t` (`s` and `u` have half) in `analytic`.
    pub analytic_rows: usize,
    /// Rows of `orders` in `view_churn`.
    pub orders: usize,
    /// Rows of `customers` (`view_churn`, `recovery`).
    pub customers: usize,
    /// Distinct regions of `customers`.
    pub regions: usize,
    /// Rows deleted and rows inserted by one churn transaction.
    pub churn: usize,
    /// Rows of `orders` in the `recovery` checkpoint.
    pub recovery_orders: usize,
    /// Rows of `customers` in the `recovery` checkpoint.
    pub recovery_customers: usize,
    /// Churn commits in the `recovery` WAL tail.
    pub recovery_commits: usize,
}

/// The recorded sizes.
pub const FULL: Sizes = Sizes {
    accounts: 10_000,
    branches: 16,
    analytic_rows: 10_000,
    orders: 100_000,
    customers: 5_000,
    regions: 64,
    churn: 50,
    recovery_orders: 4_000,
    recovery_customers: 1_000,
    recovery_commits: 40,
};

/// Tiny sizes for `--smoke`: every code path, oracles only.
pub const SMOKE: Sizes = Sizes {
    accounts: 200,
    branches: 4,
    analytic_rows: 400,
    orders: 1_000,
    customers: 100,
    regions: 8,
    churn: 5,
    recovery_orders: 500,
    recovery_customers: 50,
    recovery_commits: 10,
};

/// Rows per load statement: large enough that set-up is not dominated by
/// per-commit cost, small enough that a statement stays a few hundred KB.
const LOAD_BATCH: usize = 2_000;

/// Which front door a request goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Door {
    /// `Client::sql` / `ConcurrentDb::run_sql`.
    Sql,
    /// `Client::xra` / `ConcurrentDb::run_script`.
    Xra,
}

/// What a reply must look like for the op to count as done.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// One transaction committed, none aborted.
    Commit,
    /// One result relation with this many distinct rows, this total
    /// multiplicity and this checksum ([`crate::check::digest`]).
    Rows(Digest),
}

/// One request of an op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Door to send it through.
    pub door: Door,
    /// Statement or script text.
    pub text: String,
    /// Workload-defined kind, for per-kind medians.
    pub kind: u8,
    /// The reply that makes it a success.
    pub expect: Expect,
}

// ----------------------------------------------------------------------
// account: oltp_commit, oltp_read
// ----------------------------------------------------------------------

/// The `account` table as loaded.
#[derive(Debug, Clone)]
pub struct Accounts {
    /// `balance` by `id`.
    pub balances: Vec<i64>,
    /// Distinct branches; `branch = id % branches`.
    pub branches: usize,
    /// What the per-branch aggregate must return.
    agg: Digest,
}

/// Kind tag of a point read.
pub const KIND_POINT: u8 = 0;
/// Kind tag of an aggregate read.
pub const KIND_AGG: u8 = 1;
/// Kind tag of a commit.
pub const KIND_COMMIT: u8 = 0;

impl Accounts {
    /// Balances drawn from the seed.
    pub fn generate(seed: u64, sizes: &Sizes) -> Accounts {
        let mut rng = Rng::new(seed, 10);
        let balances: Vec<i64> = (0..sizes.accounts)
            .map(|_| 1_000 + rng.below(9_000) as i64)
            .collect();
        let branches = sizes.branches.min(sizes.accounts);
        let agg = Self::aggregate(&balances, branches);
        Accounts {
            balances,
            branches,
            agg,
        }
    }

    /// The same table with one balance changed — for the test that
    /// corrupts an expectation.
    #[cfg(test)]
    pub(crate) fn with_balance(mut self, id: usize, balance: i64) -> Accounts {
        self.balances[id] = balance;
        self.agg = Self::aggregate(&self.balances, self.branches);
        self
    }

    fn aggregate(balances: &[i64], branches: usize) -> Digest {
        digest_of((0..branches).map(|b| {
            let sum: i64 = balances.iter().skip(b).step_by(branches).sum();
            (1, vec![b.to_string(), sum.to_string()])
        }))
    }

    /// Schema statement (SQL door). The primary key is what lets two
    /// writers of different rows commit without conflicting.
    pub fn create_sql() -> &'static str {
        "CREATE TABLE account (id INT PRIMARY KEY, branch INT, balance INT)"
    }

    /// Load statements, [`LOAD_BATCH`] rows each.
    pub fn load_sql(&self) -> Vec<String> {
        let rows: Vec<String> = self
            .balances
            .iter()
            .enumerate()
            .map(|(id, bal)| format!("({id}, {}, {bal})", id % self.branches))
            .collect();
        rows.chunks(LOAD_BATCH)
            .map(|chunk| format!("INSERT INTO account VALUES {}", chunk.join(", ")))
            .collect()
    }

    /// Sum of all loaded balances.
    pub fn total(&self) -> i64 {
        self.balances.iter().sum()
    }

    /// The statement whose single output row is the table's balance sum.
    pub fn total_sql() -> &'static str {
        "SELECT SUM(balance) FROM account"
    }

    /// One `oltp_commit` op: add 1 to a uniformly chosen account.
    pub fn commit_op(&self, rng: &mut Rng) -> Request {
        let k = rng.below(self.balances.len() as u64);
        Request {
            door: Door::Sql,
            text: format!("UPDATE account SET balance = balance + 1 WHERE id = {k}"),
            kind: KIND_COMMIT,
            expect: Expect::Commit,
        }
    }

    /// One `oltp_read` op: four in five a point read of a uniformly
    /// chosen account, one in five the per-branch aggregate.
    pub fn read_op(&self, rng: &mut Rng) -> Request {
        if rng.below(5) == 0 {
            Request {
                door: Door::Sql,
                text: "SELECT branch, SUM(balance) FROM account GROUP BY branch".to_owned(),
                kind: KIND_AGG,
                expect: Expect::Rows(self.agg),
            }
        } else {
            let k = rng.below(self.balances.len() as u64) as usize;
            Request {
                door: Door::Sql,
                text: format!("SELECT balance FROM account WHERE id = {k}"),
                kind: KIND_POINT,
                expect: Expect::Rows(digest_of([(1, vec![self.balances[k].to_string()])])),
            }
        }
    }
}

// ----------------------------------------------------------------------
// r, s, t, u: analytic
// ----------------------------------------------------------------------

/// The four `analytic` queries, in round order, with their kind tags
/// (1-based so that 0 stays the whole round).
pub const ANALYTIC_QUERIES: [(&str, &str); 4] = [
    (
        "join_int",
        "? groupby[(%1), SUM, %3](project[%1, %2, %4](join[%1 = %3](select[%2 < 800](r), s)));",
    ),
    ("groupby_int", "? groupby[(%1), AVG, %2](r);"),
    (
        "join_str",
        "? groupby[(%1), SUM, %3](project[%1, %2, %4](join[%1 = %3](select[%2 < 800](t), u)));",
    ),
    ("groupby_str", "? groupby[(%1), SUM, %2](t);"),
];

/// Schema script of the `analytic` relations (XRA door).
pub fn analytic_schema_xra() -> &'static str {
    "relation r (k: int, v: int); relation s (k: int, v: int); \
     relation t (k: str, v: int); relation u (k: str, v: int);"
}

/// The `analytic` tables: `r, s` (int keys) and `t, u` (string keys
/// `key{k}`), each a bag of `(k, v)`. The legacy `scaling_db` shapes —
/// Zipf 0.3 keys over `rows/4 + 1` values, `v` uniform below 1000, `s`
/// and `u` half the size of `r` and `t`.
#[derive(Debug, Clone)]
pub struct Analytic {
    /// `[r, s, t, u]`, one `(k, v)` per tuple instance.
    pub tables: [Vec<(usize, i64)>; 4],
}

impl Analytic {
    /// Tables drawn from the seed.
    pub fn generate(seed: u64, sizes: &Sizes) -> Analytic {
        let rows = sizes.analytic_rows;
        let zipf = Zipf::new(rows / 4 + 1, 0.3);
        let table = |stream: u64, n: usize| {
            let mut rng = Rng::new(seed, stream);
            (0..n)
                .map(|_| (zipf.sample(&mut rng), rng.below(1_000) as i64))
                .collect()
        };
        Analytic {
            tables: [
                table(20, rows),
                table(21, rows / 2 + 1),
                table(22, rows),
                table(23, rows / 2 + 1),
            ],
        }
    }

    /// Load scripts, [`LOAD_BATCH`] rows each.
    pub fn load_xra(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, table, strings) in [
            ("r", &self.tables[0], false),
            ("s", &self.tables[1], false),
            ("t", &self.tables[2], true),
            ("u", &self.tables[3], true),
        ] {
            let types = if strings { "(str, int)" } else { "(int, int)" };
            for chunk in table.chunks(LOAD_BATCH) {
                let tuples: Vec<String> = chunk
                    .iter()
                    .map(|(k, v)| {
                        if strings {
                            format!("('key{k}', {v})")
                        } else {
                            format!("({k}, {v})")
                        }
                    })
                    .collect();
                out.push(format!(
                    "insert({name}, values {types} {{{}}});",
                    tuples.join(", ")
                ));
            }
        }
        out
    }

    /// What the four queries must return, worked out from the tables by
    /// the definitions (the reference engine materializes `r × s` and
    /// cannot run at the recorded size; `--smoke` checks this model
    /// against it).
    pub fn expected(&self) -> [Digest; 4] {
        let [r, s, t, u] = &self.tables;
        let int_key = |k: usize| k.to_string();
        let str_key = |k: usize| format!("'key{k}'");
        [
            join_sum(r, s, int_key),
            digest_of(
                group(r)
                    .into_iter()
                    .map(|(k, (sum, n))| (1, vec![int_key(k), render_real(sum as f64 / n as f64)])),
            ),
            join_sum(t, u, str_key),
            digest_of(
                group(t)
                    .into_iter()
                    .map(|(k, (sum, _))| (1, vec![str_key(k), sum.to_string()])),
            ),
        ]
    }
}

/// Per key: `(Σ v, tuple count)`.
fn group(table: &[(usize, i64)]) -> std::collections::BTreeMap<usize, (i64, i64)> {
    let mut out = std::collections::BTreeMap::new();
    for &(k, v) in table {
        let slot = out.entry(k).or_insert((0, 0));
        slot.0 += v;
        slot.1 += 1;
    }
    out
}

/// `γ[(k), SUM, right.v](σ[v < 800](left) ⋈ right)`: every qualifying
/// left instance pairs with every right instance of its key.
fn join_sum(
    left: &[(usize, i64)],
    right: &[(usize, i64)],
    key: impl Fn(usize) -> String,
) -> Digest {
    let selected: Vec<(usize, i64)> = left.iter().copied().filter(|&(_, v)| v < 800).collect();
    let right = group(right);
    digest_of(group(&selected).into_iter().filter_map(|(k, (_, n))| {
        let (sum, _) = right.get(&k)?;
        Some((1, vec![key(k), (n * sum).to_string()]))
    }))
}

/// A real in the engine's `Display` form.
fn render_real(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

// ----------------------------------------------------------------------
// orders, customers, region_totals: view_churn, recovery
// ----------------------------------------------------------------------

/// Name of the maintained view.
pub const VIEW_NAME: &str = "region_totals";

/// The view's definition — the `BENCH_pr7` shape: per-region revenue
/// over `orders ⋈ customers`.
pub const VIEW_DEF: &str = "groupby[(%4), SUM, %2](join[%1 = %3](orders, customers))";

/// The client's model of `orders ⋈ customers`: enough to generate valid
/// churn (only live rows are deleted) and to predict the view.
#[derive(Debug, Clone)]
pub struct Orders {
    /// Live `orders` rows `(cust, amount)`, one entry per instance.
    pub live: Vec<(i64, i64)>,
    /// `customers` row count; customer `id` lives in region `id % regions`.
    pub customers: usize,
    /// Distinct regions.
    pub regions: usize,
    churn: usize,
    rng: Rng,
}

impl Orders {
    /// `rows` orders over `customers` customers, from the seed's
    /// `stream`-th pair of generators.
    fn generate(seed: u64, stream: u64, rows: usize, customers: usize, sizes: &Sizes) -> Orders {
        let mut rng = Rng::new(seed, 30 + 2 * stream);
        let live = (0..rows)
            .map(|_| Self::fresh_row(&mut rng, customers))
            .collect();
        Orders {
            live,
            customers,
            regions: sizes.regions,
            churn: sizes.churn,
            rng: Rng::new(seed, 31 + 2 * stream),
        }
    }

    /// The `view_churn` tables.
    pub fn for_churn(seed: u64, sizes: &Sizes) -> Orders {
        Orders::generate(seed, 0, sizes.orders, sizes.customers, sizes)
    }

    /// The smaller tables behind the `image`-th `recovery` image.
    pub fn for_recovery(seed: u64, image: u64, sizes: &Sizes) -> Orders {
        let (rows, customers) = (sizes.recovery_orders, sizes.recovery_customers);
        Orders::generate(seed, 1 + image, rows, customers, sizes)
    }

    fn fresh_row(rng: &mut Rng, customers: usize) -> (i64, i64) {
        (
            rng.below(customers as u64) as i64,
            1 + rng.below(1_000) as i64,
        )
    }

    /// Schema, key and view script (XRA door). The view is declared
    /// after the load so that set-up computes it once.
    pub fn schema_xra() -> &'static str {
        "relation orders (cust: int, amount: int); \
         relation customers (id: int, region: str);"
    }

    /// Key and view declarations, run after the load.
    pub fn catalog_xra() -> String {
        format!("key customers (%1); view {VIEW_NAME} = {VIEW_DEF};")
    }

    /// Load scripts for both relations.
    pub fn load_xra(&self) -> Vec<String> {
        let customers: Vec<String> = (0..self.customers)
            .map(|id| format!("({id}, 'region{}')", id % self.regions))
            .collect();
        let orders: Vec<String> = self
            .live
            .iter()
            .map(|(c, a)| format!("({c}, {a})"))
            .collect();
        let mut out = Vec::new();
        for chunk in customers.chunks(LOAD_BATCH) {
            out.push(format!(
                "insert(customers, values (int, str) {{{}}});",
                chunk.join(", ")
            ));
        }
        for chunk in orders.chunks(LOAD_BATCH) {
            out.push(format!(
                "insert(orders, values (int, int) {{{}}});",
                chunk.join(", ")
            ));
        }
        out
    }

    /// One churn transaction: delete `churn` live rows, insert `churn`
    /// fresh ones. The model is updated as the op is generated, so an op
    /// that fails to commit shows up in the final oracle.
    pub fn churn_op(&mut self) -> Request {
        let mut deleted = Vec::with_capacity(self.churn);
        for _ in 0..self.churn.min(self.live.len()) {
            let i = self.rng.below(self.live.len() as u64) as usize;
            deleted.push(self.live.swap_remove(i));
        }
        let inserted: Vec<(i64, i64)> = (0..self.churn)
            .map(|_| Self::fresh_row(&mut self.rng, self.customers))
            .collect();
        self.live.extend_from_slice(&inserted);
        let render = |rows: &[(i64, i64)]| {
            rows.iter()
                .map(|(c, a)| format!("({c}, {a})"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        Request {
            door: Door::Xra,
            text: format!(
                "begin delete(orders, values (int, int) {{{}}}); \
                 insert(orders, values (int, int) {{{}}}); end",
                render(&deleted),
                render(&inserted)
            ),
            kind: KIND_COMMIT,
            expect: Expect::Commit,
        }
    }

    /// What the view must hold for the model's current `orders`.
    pub fn expected_view(&self) -> Digest {
        let mut totals = vec![(0i64, false); self.regions];
        for &(cust, amount) in &self.live {
            let slot = &mut totals[cust as usize % self.regions];
            slot.0 += amount;
            slot.1 = true;
        }
        digest_of(
            totals
                .iter()
                .enumerate()
                .filter(|(_, (_, any))| *any)
                // strings come back in their quoted `Display` form
                .map(|(r, (sum, _))| (1, vec![format!("'region{r}'"), sum.to_string()])),
        )
    }
}

// ----------------------------------------------------------------------
// op-stream fingerprints
// ----------------------------------------------------------------------

/// FNV-1a over the text of the first `n` ops of a workload's stream —
/// what "the same seed gives the same inputs" means, as one number.
pub fn stream_hash(workload: &str, seed: u64, n: usize, sizes: &Sizes) -> u64 {
    let mut h = crate::check::Fnv::default();
    match workload {
        "oltp_commit" | "oltp_read" => {
            let accounts = Accounts::generate(seed, sizes);
            for s in accounts.load_sql() {
                h.write(s.as_bytes());
            }
            let mut rng = client_rng(seed, 0);
            for _ in 0..n {
                let op = if workload == "oltp_commit" {
                    accounts.commit_op(&mut rng)
                } else {
                    accounts.read_op(&mut rng)
                };
                h.write(op.text.as_bytes());
            }
        }
        "analytic" => {
            for s in Analytic::generate(seed, sizes).load_xra() {
                h.write(s.as_bytes());
            }
        }
        "view_churn" | "recovery" => {
            let mut orders = if workload == "recovery" {
                Orders::for_recovery(seed, 0, sizes)
            } else {
                Orders::for_churn(seed, sizes)
            };
            for s in orders.load_xra() {
                h.write(s.as_bytes());
            }
            for _ in 0..n {
                h.write(orders.churn_op().text.as_bytes());
            }
        }
        other => panic!("unknown workload {other}"),
    }
    h.finish()
}

/// The op-stream generator of one client connection.
pub fn client_rng(seed: u64, client: u64) -> Rng {
    Rng::new(seed, 100 + client)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORKLOADS;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in WORKLOADS {
            let a = stream_hash(w.name, 1, 50, &SMOKE);
            assert_eq!(a, stream_hash(w.name, 1, 50, &SMOKE), "{}", w.name);
            assert_ne!(a, stream_hash(w.name, 2, 50, &SMOKE), "{}", w.name);
        }
    }

    #[test]
    fn churn_deletes_only_live_rows_and_keeps_the_size() {
        let mut orders = Orders::for_churn(5, &SMOKE);
        let before = orders.live.len();
        for _ in 0..20 {
            let op = orders.churn_op();
            assert!(op.text.starts_with("begin delete(orders"));
            assert_eq!(orders.live.len(), before);
        }
        assert_eq!(orders.expected_view().rows, SMOKE.regions);
    }

    #[test]
    fn read_mix_is_four_points_to_one_aggregate() {
        let accounts = Accounts::generate(1, &SMOKE);
        let mut rng = client_rng(1, 0);
        let aggs = (0..5_000)
            .filter(|_| accounts.read_op(&mut rng).kind == KIND_AGG)
            .count();
        assert!((800..1_200).contains(&aggs), "{aggs} aggregates in 5000");
    }
}
