//! A persistent hash map: the representation under every counted map that
//! one committed version shares with the next.
//!
//! [`PMap`] is a fixed-fanout hash trie in the style of Bagwell's *Ideal
//! Hash Trees* (2001). A key's FxHash is read from its top bits down,
//! four bits (sixteen children) per level, and a subtree holds exactly the
//! keys whose hashes start with its path. Every node sits behind an `Arc`:
//!
//! * `clone` is O(1): one reference-count bump of the root;
//! * a write copies the nodes from the root to the one leaf it touches,
//!   and only those still shared with another map (`Arc::make_mut`), so
//!   the two maps share everything else. On a uniquely owned map (a bulk
//!   build, a query result, recovery's single version) a write copies
//!   nothing;
//! * a leaf is one flat array of entries sorted by hash — one allocation,
//!   never one per entry. Spare slots at its end make in-place inserts
//!   amortized O(1); a copied leaf is exact-size.
//!
//! A delta goes in through [`PMap::alter_all`]: into a map that owns its
//! root, one in-place descent per edit; into one that shares it, in hash
//! order, each touched leaf merged with its edits into one copy. Either
//! way a node is copied at most once per delta. Bulk builds
//! ([`PMap::try_from_pairs`], [`PMap::from_groups`]) bucket the entries by
//! hash and allocate every node once; they pay no path copy per insert.
//!
//! A leaf splits into a branch once it would hold more than 64 entries,
//! except at the last level, where all its entries share one full hash.
//! Iteration walks branches in digit order and leaves in hash order, so it
//! visits entries sorted by hash: the order follows the contents (and,
//! among keys of one full hash, the order of their writes), never the
//! trie's shape. Equality compares contents.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use rustc_hash::FxHasher;

/// Hash bits consumed per level.
const BITS: u32 = 4;
/// Children per branch.
const FANOUT: usize = 1 << BITS;
/// Branch levels a 64-bit hash can address; a leaf below the last one
/// never splits.
const LEVELS: usize = (u64::BITS / BITS) as usize;
/// Most entries a leaf above the last level holds before it splits into
/// sixteen; a bulk build fills leaves at most half, so the inserts after it
/// grow them before any split.
const LEAF_MAX: usize = 64;

#[derive(Clone)]
struct Entry<K, V> {
    hash: u64,
    key: K,
    value: V,
}

/// One edit of a batch ([`PMap::alter_all`]).
struct Edit<K, U> {
    hash: u64,
    key: K,
    change: U,
}

/// A leaf slot: the occupied slots are a prefix, sorted by hash.
type Slot<K, V> = Option<Entry<K, V>>;
type Leaf<K, V> = Arc<[Slot<K, V>]>;
type Children<K, V> = [Option<Node<K, V>>; FANOUT];

enum Node<K, V> {
    Leaf(Leaf<K, V>),
    Branch(Arc<Children<K, V>>),
}

impl<K, V> Clone for Node<K, V> {
    fn clone(&self) -> Self {
        match self {
            Node::Leaf(slots) => Node::Leaf(Arc::clone(slots)),
            Node::Branch(children) => Node::Branch(Arc::clone(children)),
        }
    }
}

impl<K, V> Node<K, V> {
    fn is_empty(&self) -> bool {
        match self {
            Node::Leaf(slots) => !matches!(slots.first(), Some(Some(_))),
            Node::Branch(children) => children.iter().all(Option::is_none),
        }
    }
}

/// A persistent hash map with O(1) clones and path-copying writes.
pub struct PMap<K, V> {
    root: Option<Node<K, V>>,
    len: usize,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: None, len: 0 }
    }
}

fn hash_of<K: Hash>(key: &K) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// The child a branch at `depth` files `hash` under.
fn digit(hash: u64, depth: usize) -> usize {
    (hash >> (u64::BITS - BITS * (depth as u32 + 1))) as usize & (FANOUT - 1)
}

/// A new leaf holding one entry, with room for three more.
fn leaf_of<K, V>(e: Entry<K, V>) -> Leaf<K, V> {
    Arc::new([Some(e), None, None, None])
}

/// `items` in a stable order of `hash`: as they are when already so
/// (another map's iteration order), else bucketed by the hash's top bits
/// — one counting pass and one move per item, about two items per
/// bucket — and each bucket sorted.
fn sorted_by_hash<T>(items: Vec<T>, hash: impl Fn(&T) -> u64) -> Vec<T> {
    if items.is_sorted_by_key(&hash) {
        return items;
    }
    let n = items.len();
    let bits = (usize::BITS - (n / 2).leading_zeros()).clamp(1, 16);
    let bucket = |t: &T| (hash(t) >> (u64::BITS - bits)) as usize;
    // `starts[b]` is where bucket `b` begins
    let mut starts = vec![0; (1 << bits) + 1];
    for t in &items {
        starts[bucket(t) + 1] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut next = starts.clone();
    let mut placed: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    for t in items {
        let b = bucket(&t);
        placed[next[b]] = Some(t);
        next[b] += 1;
    }
    let mut sorted: Vec<T> = placed
        .into_iter()
        .map(|t| t.expect("every position is filled once"))
        .collect();
    for w in starts.windows(2) {
        if w[1] - w[0] > 1 {
            sorted[w[0]..w[1]].sort_by_key(&hash);
        }
    }
    sorted
}

/// The entries of a leaf about to be replaced, in order: moved out of
/// a leaf this map owns alone, cloned out of a shared one.
enum Drain<'a, K, V> {
    Owned(std::slice::IterMut<'a, Slot<K, V>>),
    Shared(std::slice::Iter<'a, Slot<K, V>>),
}

impl<'a, K, V> Drain<'a, K, V> {
    fn of(leaf: Option<&'a mut Leaf<K, V>>) -> Self {
        match leaf {
            Some(slots) => match Arc::get_mut(slots).is_some() {
                true => Drain::Owned(Arc::get_mut(slots).expect("unique").iter_mut()),
                false => Drain::Shared(slots.iter()),
            },
            None => Drain::Shared([].iter()),
        }
    }
}

impl<K: Clone, V: Clone> Iterator for Drain<'_, K, V> {
    type Item = Entry<K, V>;

    fn next(&mut self) -> Option<Entry<K, V>> {
        match self {
            Drain::Owned(slots) => slots.next()?.take(),
            Drain::Shared(slots) => slots.next()?.clone(),
        }
    }
}

/// How many slots of a leaf are occupied.
fn occupied<K, V>(slots: &[Slot<K, V>]) -> usize {
    slots.partition_point(Option::is_some)
}

/// How many slots of a leaf are occupied, counting on from slot `i`
/// (which an insert or removal at `i` shifts anyway).
fn occupied_from<K, V>(slots: &[Slot<K, V>], i: usize) -> usize {
    i + slots[i..].iter().take_while(|s| s.is_some()).count()
}

fn entry<K, V>(slot: &Slot<K, V>) -> &Entry<K, V> {
    slot.as_ref().expect("occupied slots are a prefix")
}

/// The slot holding `key`, or the slot it would be inserted at to keep
/// the leaf sorted by hash (after any keys of the same hash).
fn find<K: Eq, V>(slots: &[Slot<K, V>], hash: u64, key: &K) -> Result<usize, usize> {
    // leaves are short: a scan beats a binary search's mispredictions
    let mut i = slots
        .iter()
        .position(|s| !matches!(s, Some(e) if e.hash < hash))
        .unwrap_or(slots.len());
    while let Some(Some(e)) = slots.get(i) {
        if e.hash != hash {
            break;
        }
        if e.key == *key {
            return Ok(i);
        }
        i += 1;
    }
    Err(i)
}

/// The key of one edit: owned when the edit may insert it, borrowed when
/// it only updates or removes an existing entry — `Present` once the
/// entry is known to exist below the current node.
enum KeyArg<'k, K> {
    Owned(K),
    Borrowed(&'k K),
    Present(&'k K),
}

impl<K: Clone> KeyArg<'_, K> {
    fn get(&self) -> &K {
        match self {
            KeyArg::Owned(k) => k,
            KeyArg::Borrowed(k) | KeyArg::Present(k) => k,
        }
    }

    fn may_insert(&self) -> bool {
        matches!(self, KeyArg::Owned(_))
    }

    fn into_owned(self) -> K {
        match self {
            KeyArg::Owned(k) => k,
            KeyArg::Borrowed(k) | KeyArg::Present(k) => k.clone(),
        }
    }
}

/// How one edit changed the entry count.
#[derive(PartialEq)]
enum Change {
    Same,
    Grew,
    Shrank,
}

impl<K, V> PMap<K, V> {
    /// The empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `(key, value)` pairs in hash order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&K, &V)> + '_ {
        self.entries().map(|e| (&e.key, &e.value))
    }

    /// Iterates the keys in hash order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &K> + '_ {
        self.entries().map(|e| &e.key)
    }

    /// Iterates the values in hash order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &V> + '_ {
        self.entries().map(|e| &e.value)
    }

    fn entries(&self) -> Entries<'_, K, V> {
        let mut it = Entries {
            branches: std::array::from_fn(|_| [].iter()),
            depth: 0,
            leaf: [].iter(),
            remaining: self.len,
        };
        if let Some(root) = &self.root {
            it.enter(root);
        }
        it
    }
}

impl<K: Eq + Hash, V> PMap<K, V> {
    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        Self::lookup(self.root.as_ref()?, 0, hash_of(key), key)
    }

    /// True when `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// The value of `key` in the subtree `node` at `depth`.
    fn lookup<'a>(mut node: &'a Node<K, V>, mut depth: usize, hash: u64, key: &K) -> Option<&'a V> {
        loop {
            match node {
                Node::Branch(children) => {
                    node = children[digit(hash, depth)].as_ref()?;
                    depth += 1;
                }
                Node::Leaf(slots) => {
                    let i = find(slots, hash, key).ok()?;
                    return Some(&entry(&slots[i]).value);
                }
            }
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> PMap<K, V> {
    /// Stores `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.write(KeyArg::Owned(key), |slot| slot.replace(value))
    }

    /// Removes the entry of `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.write(KeyArg::Borrowed(key), Option::take)
    }

    /// Rewrites the value of an existing entry (`None` removes it); an
    /// absent key stays absent and copies nothing. Returns the value the
    /// edit replaced.
    pub fn update(&mut self, key: &K, f: impl FnOnce(&V) -> Option<V>) -> Option<V> {
        self.write(KeyArg::Borrowed(key), |slot| {
            let old = slot.take()?;
            *slot = f(&old);
            Some(old)
        })
    }

    /// Edits the entry of `key` in one descent: `f` gets it — `None` when
    /// absent — to change in place: set it to insert, take it to remove.
    /// What `f` leaves is stored, also when its result is an error; the
    /// result is returned.
    pub fn alter<R>(&mut self, key: K, f: impl FnOnce(&mut Option<V>) -> R) -> R {
        self.write(KeyArg::Owned(key), f)
    }

    /// Applies a batch of edits as [`PMap::alter`] would one by one; the
    /// edits of one key apply in the order given. Stops at the first
    /// `Err` with the map partly updated (the failing edit's entry as `f`
    /// left it). A map that owns its root edits
    /// in place, one descent per edit. One that shares it with another
    /// map — a version's state right after its predecessor was cloned —
    /// would copy every node it touches anyway: there the edits are put in
    /// hash order and each touched node is copied once, a leaf merged with
    /// its edits into one new leaf, so a batch of `k` edits copies
    /// O(k log n) nodes however many land in one leaf.
    pub fn alter_all<U, E>(
        &mut self,
        edits: impl IntoIterator<Item = (K, U)>,
        mut f: impl FnMut(&mut Option<V>, U) -> Result<(), E>,
    ) -> Result<(), E> {
        let owned = match &mut self.root {
            Some(Node::Leaf(slots)) => Arc::get_mut(slots).is_some(),
            Some(Node::Branch(children)) => Arc::get_mut(children).is_some(),
            None => false,
        };
        if owned {
            for (key, change) in edits {
                self.alter(key, |entry| f(entry, change))?;
            }
            return Ok(());
        }
        let edits: Vec<Edit<K, U>> = edits
            .into_iter()
            .map(|(key, change)| Edit {
                hash: hash_of(&key),
                key,
                change,
            })
            .collect();
        let edits = sorted_by_hash(edits, |e| e.hash);
        let n = edits.len();
        let mut edits = edits.into_iter();
        Self::alter_below(&mut self.root, 0, &mut edits, n, &mut f, &mut self.len)
    }

    /// Applies the next `n` edits of a batch to the subtree in `slot` at
    /// `depth`, keeping `len` in step with every entry it adds or removes.
    fn alter_below<U, E>(
        slot: &mut Option<Node<K, V>>,
        depth: usize,
        edits: &mut std::vec::IntoIter<Edit<K, U>>,
        n: usize,
        f: &mut impl FnMut(&mut Option<V>, U) -> Result<(), E>,
        len: &mut usize,
    ) -> Result<(), E> {
        if let Some(Node::Branch(children)) = slot {
            let children = Arc::make_mut(children);
            let mut left = n;
            let mut result = Ok(());
            while let Some(first) = edits.as_slice().first().filter(|_| left > 0) {
                let d = digit(first.hash, depth);
                let run = edits.as_slice()[..left].partition_point(|e| digit(e.hash, depth) == d);
                left -= run;
                result = Self::alter_below(&mut children[d], depth + 1, edits, run, f, len);
                if result.is_err() {
                    break;
                }
            }
            if children.iter().all(Option::is_none) {
                *slot = None;
            }
            return result;
        }
        // a leaf, or none: its entries and the edits merge, both in hash
        // order, into a new leaf — or a new subtree, when they outgrow one
        let mut old = match slot.take() {
            Some(Node::Leaf(slots)) => Some(slots),
            _ => None,
        };
        let old_len = old.as_deref().map_or(0, occupied);
        *len -= old_len;
        let mut entries: Vec<Entry<K, V>> = Vec::with_capacity(old_len + n);
        let mut old = Drain::of(old.as_mut()).peekable();
        let mut result = Ok(());
        for edit in edits.take(n) {
            while let Some(e) = old.next_if(|e| e.hash <= edit.hash) {
                entries.push(e);
            }
            // the key, if there, is in the run of its hash at the end
            let run = entries.len()
                - entries
                    .iter()
                    .rev()
                    .take_while(|e| e.hash == edit.hash)
                    .count();
            let (key, mut value) = match entries[run..].iter().position(|e| e.key == edit.key) {
                Some(i) => {
                    let e = entries.remove(run + i);
                    (e.key, Some(e.value))
                }
                None => (edit.key, None),
            };
            let outcome = f(&mut value, edit.change);
            if let Some(value) = value {
                entries.push(Entry {
                    hash: edit.hash,
                    key,
                    value,
                });
            }
            if let Err(e) = outcome {
                result = Err(e);
                break;
            }
        }
        entries.extend(old);
        *len += entries.len();
        let size = entries.len();
        *slot = match size {
            0 => None,
            _ if size <= LEAF_MAX || depth == LEVELS => {
                Some(Node::Leaf(entries.into_iter().map(Some).collect()))
            }
            _ => Some(Self::build(&mut entries.into_iter(), size, depth)),
        };
        result
    }

    /// Applies `f` to every value in place (copying every shared node).
    pub fn for_each_value_mut(&mut self, mut f: impl FnMut(&mut V)) {
        fn walk<K: Clone, V: Clone>(node: &mut Node<K, V>, f: &mut impl FnMut(&mut V)) {
            match node {
                Node::Leaf(slots) => {
                    for e in Arc::make_mut(slots).iter_mut().flatten() {
                        f(&mut e.value);
                    }
                }
                Node::Branch(children) => {
                    for child in Arc::make_mut(children).iter_mut().flatten() {
                        walk(child, f);
                    }
                }
            }
        }
        if let Some(root) = &mut self.root {
            walk(root, &mut f);
        }
    }

    /// The write path of one edit: `f` edits the entry of `key` where it lies,
    /// after the nodes above it that another map shares are copied. A
    /// borrowed key never inserts, and copies nothing when absent.
    fn write<R>(&mut self, key: KeyArg<'_, K>, f: impl FnOnce(&mut Option<V>) -> R) -> R {
        let hash = hash_of(key.get());
        let (r, change) = match &mut self.root {
            Some(root) => Self::write_node(root, 0, hash, key, f),
            vacant => Self::write_vacant(vacant, hash, key, f),
        };
        match change {
            Change::Same => {}
            Change::Grew => self.len += 1,
            Change::Shrank => {
                self.len -= 1;
                if self.len == 0 {
                    self.root = None;
                }
            }
        }
        r
    }

    /// [`PMap::write`] where the path of `hash` ends at the empty `slot`:
    /// a one-entry leaf if `f` inserts.
    fn write_vacant<R>(
        slot: &mut Option<Node<K, V>>,
        hash: u64,
        key: KeyArg<'_, K>,
        f: impl FnOnce(&mut Option<V>) -> R,
    ) -> (R, Change) {
        let mut value = None;
        let r = f(&mut value);
        match value {
            Some(value) if key.may_insert() => {
                let key = key.into_owned();
                *slot = Some(Node::Leaf(leaf_of(Entry { hash, key, value })));
                (r, Change::Grew)
            }
            _ => (r, Change::Same),
        }
    }

    /// [`PMap::write`] in the subtree `node` at `depth`.
    fn write_node<R>(
        node: &mut Node<K, V>,
        depth: usize,
        hash: u64,
        mut key: KeyArg<'_, K>,
        f: impl FnOnce(&mut Option<V>) -> R,
    ) -> (R, Change) {
        if let (KeyArg::Borrowed(k), Node::Branch(children)) = (&key, &*node) {
            // below a shared branch every node is copied on the way
            // down: make sure the key is there before copying any
            if Arc::strong_count(children) > 1 {
                if Self::lookup(node, depth, hash, k).is_none() {
                    return (f(&mut None), Change::Same);
                }
                key = KeyArg::Present(k);
            }
        }
        let slots = match node {
            Node::Branch(children) => {
                let children = Arc::make_mut(children);
                let d = digit(hash, depth);
                let edited = match &mut children[d] {
                    Some(child) => Self::write_node(child, depth + 1, hash, key, f),
                    vacant => Self::write_vacant(vacant, hash, key, f),
                };
                if edited.1 == Change::Shrank && children[d].as_ref().is_some_and(Node::is_empty) {
                    children[d] = None;
                }
                return edited;
            }
            Node::Leaf(slots) => slots,
        };
        let i = match find(slots, hash, key.get()) {
            Ok(i) => return Self::write_found(slots, i, f),
            Err(i) => i,
        };
        let mut value = None;
        let r = f(&mut value);
        let Some(value) = value.filter(|_| key.may_insert()) else {
            return (r, Change::Same);
        };
        let e = Entry {
            hash,
            key: key.into_owned(),
            value,
        };
        let len = occupied_from(slots, i);
        if len < LEAF_MAX || depth == LEVELS {
            Self::insert_at(slots, len, i, e);
        } else {
            Self::split_insert(node, depth, e);
        }
        (r, Change::Grew)
    }

    /// `f` on the entry in slot `i` of a leaf: changed where it lies in a
    /// leaf this map owns alone, in an exact-size copy of a shared one.
    fn write_found<R>(
        slots: &mut Leaf<K, V>,
        i: usize,
        f: impl FnOnce(&mut Option<V>) -> R,
    ) -> (R, Change) {
        let len = occupied_from(slots, i);
        if let Some(unique) = Arc::get_mut(slots) {
            let Entry { hash, key, value } = unique[i].take().expect("found");
            let mut value = Some(value);
            let r = f(&mut value);
            return match value {
                Some(value) => {
                    unique[i] = Some(Entry { hash, key, value });
                    (r, Change::Same)
                }
                None => {
                    unique[i..len].rotate_left(1);
                    (r, Change::Shrank)
                }
            };
        }
        let mut value = Some(entry(&slots[i]).value.clone());
        let r = f(&mut value);
        let shared = &slots[..len];
        let (copy, change) = match value {
            Some(value) => {
                let mut value = Some(value);
                let copy = (0..len).map(|j| match j == i {
                    true => {
                        let e = entry(&shared[i]);
                        let value = value.take().expect("one slot is rewritten");
                        let key = e.key.clone();
                        Some(Entry {
                            hash: e.hash,
                            key,
                            value,
                        })
                    }
                    false => shared[j].clone(),
                });
                (copy.collect(), Change::Same)
            }
            None => {
                let copy = (0..len - 1).map(|j| shared[j + usize::from(j >= i)].clone());
                (copy.collect(), Change::Shrank)
            }
        };
        *slots = copy;
        (r, change)
    }

    /// Inserts `e` at slot `i` of a leaf with `len` entries: in place
    /// when owned and not full, into a leaf twice the size (up to
    /// [`LEAF_MAX`] above the last level) when owned and full, into an
    /// exact-size copy when shared.
    fn insert_at(slots: &mut Leaf<K, V>, len: usize, i: usize, e: Entry<K, V>) {
        let mut e = Some(e);
        match Arc::get_mut(slots) {
            Some(unique) if len < unique.len() => {
                unique[len] = e;
                unique[i..=len].rotate_right(1);
            }
            Some(unique) => {
                let cap = match len < LEAF_MAX {
                    true => (2 * len).clamp(4, LEAF_MAX),
                    false => 2 * len,
                };
                *slots = (0..cap)
                    .map(|j| match j.cmp(&i) {
                        Ordering::Less => unique[j].take(),
                        Ordering::Equal => e.take(),
                        Ordering::Greater if j <= len => unique[j - 1].take(),
                        Ordering::Greater => None,
                    })
                    .collect();
            }
            None => {
                let shared = &slots[..len];
                *slots = (0..=len)
                    .map(|j| match j.cmp(&i) {
                        Ordering::Less => shared[j].clone(),
                        Ordering::Equal => e.take(),
                        Ordering::Greater => shared[j - 1].clone(),
                    })
                    .collect();
            }
        }
    }

    /// Inserts an entry whose key is absent into the full leaf `node`
    /// above the last level: the leaf becomes the subtree a bulk build
    /// makes of its entries and the new one.
    fn split_insert(node: &mut Node<K, V>, depth: usize, e: Entry<K, V>) {
        let Node::Leaf(slots) = node else {
            unreachable!("only a leaf splits")
        };
        let len = occupied(slots);
        let mut entries: Vec<Entry<K, V>> = Vec::with_capacity(len + 1);
        entries.extend(Drain::of(Some(slots)));
        let at = entries.partition_point(|x| x.hash <= e.hash);
        entries.insert(at, e);
        *node = Self::build(&mut entries.into_iter(), len + 1, depth);
    }

    /// Builds a map from `pairs` in one pass, stopping at the first `Err`.
    /// A key may repeat: `merge` folds each later value of a key into
    /// the earlier one (taking what it needs of the later), and a key
    /// whose folded value fails `keep` is left out. The pairs are put in
    /// hash order (bucketed by their hash's top bits, each bucket sorted)
    /// and every node is allocated once, at its final size.
    pub fn try_from_pairs<E>(
        pairs: impl IntoIterator<Item = Result<(K, V), E>>,
        mut merge: impl FnMut(&mut V, &mut V) -> Result<(), E>,
        keep: impl Fn(&V) -> bool,
    ) -> Result<Self, E> {
        let pairs = pairs.into_iter();
        let mut entries = Vec::with_capacity(pairs.size_hint().0);
        for pair in pairs {
            let (key, value) = pair?;
            entries.push(Entry {
                hash: hash_of(&key),
                key,
                value,
            });
        }
        // stable, so a key's values fold in the order they came
        let mut entries = sorted_by_hash(entries, |e| e.hash);
        // fold each repeated key into its first entry, in place:
        // `entries[..kept]` are folded, and `entries[run..kept]` share the
        // last hash
        let (mut kept, mut run) = (0, 0);
        for i in 0..entries.len() {
            if kept > 0 && entries[kept - 1].hash == entries[i].hash {
                let (done, rest) = entries.split_at_mut(i);
                if let Some(same) = done[run..kept].iter_mut().find(|e| e.key == rest[0].key) {
                    merge(&mut same.value, &mut rest[0].value)?;
                    continue;
                }
            } else {
                run = kept;
            }
            entries.swap(kept, i);
            kept += 1;
        }
        entries.truncate(kept);
        entries.retain(|e| keep(&e.value));
        let len = entries.len();
        let root = (len > 0).then(|| Self::build(&mut entries.into_iter(), len, 0));
        Ok(PMap { root, len })
    }

    /// Builds a map from `(key, item)` pairs whose keys repeat: the items
    /// of each key, in the order given, are gathered into its value
    /// (stopping at the first `Err`), and every node is allocated once.
    pub fn from_groups<X, E>(
        items: impl IntoIterator<Item = (K, X)>,
        mut gather: impl FnMut(&K, Vec<X>) -> Result<V, E>,
    ) -> Result<Self, E> {
        let items: Vec<(u64, K, X)> = items
            .into_iter()
            .map(|(key, x)| (hash_of(&key), key, x))
            .collect();
        let mut items = sorted_by_hash(items, |i| i.0).into_iter().peekable();
        let mut entries = Vec::new();
        while let Some((hash, key, x)) = items.next() {
            let mut xs = vec![x];
            // other keys of the same full hash, each with its items
            let mut others: Vec<(K, Vec<X>)> = Vec::new();
            while let Some((_, k, x)) = items.next_if(|i| i.0 == hash) {
                if k == key {
                    xs.push(x);
                } else if let Some((_, ys)) = others.iter_mut().find(|(o, _)| *o == k) {
                    ys.push(x);
                } else {
                    others.push((k, vec![x]));
                }
            }
            let value = gather(&key, xs)?;
            entries.push(Entry { hash, key, value });
            for (key, xs) in others {
                let value = gather(&key, xs)?;
                entries.push(Entry { hash, key, value });
            }
        }
        let len = entries.len();
        let root = (len > 0).then(|| Self::build(&mut entries.into_iter(), len, 0));
        Ok(PMap { root, len })
    }

    /// The subtree at `depth` over the next `n` entries of `sorted`. A map
    /// that fits one leaf is one leaf; below a branch, leaves are at most
    /// half full, so inserts that follow a bulk build fill them before any
    /// splits.
    fn build(sorted: &mut std::vec::IntoIter<Entry<K, V>>, n: usize, depth: usize) -> Node<K, V> {
        let room = if depth == 0 { LEAF_MAX } else { LEAF_MAX / 2 };
        if n <= room || depth == LEVELS {
            return Node::Leaf(sorted.take(n).map(Some).collect());
        }
        let mut children: Children<K, V> = Default::default();
        let mut left = n;
        while let Some(first) = sorted.as_slice().first().filter(|_| left > 0) {
            let d = digit(first.hash, depth);
            let run = sorted.as_slice()[..left].partition_point(|e| digit(e.hash, depth) == d);
            children[d] = Some(Self::build(sorted, run, depth + 1));
            left -= run;
        }
        Node::Branch(Arc::new(children))
    }
}

/// Borrowing iteration: a stack of branch cursors and the current leaf.
struct Entries<'a, K, V> {
    branches: [std::slice::Iter<'a, Option<Node<K, V>>>; LEVELS],
    depth: usize,
    leaf: std::slice::Iter<'a, Slot<K, V>>,
    remaining: usize,
}

impl<'a, K, V> Entries<'a, K, V> {
    fn enter(&mut self, node: &'a Node<K, V>) {
        match node {
            Node::Leaf(slots) => self.leaf = slots.iter(),
            Node::Branch(children) => {
                self.branches[self.depth] = children.iter();
                self.depth += 1;
            }
        }
    }

    /// Moves on to the next leaf; false when there is none.
    #[cold]
    fn next_leaf(&mut self) -> bool {
        loop {
            let Some(cursor) = self.branches[..self.depth].last_mut() else {
                return false;
            };
            match cursor.next() {
                Some(Some(Node::Leaf(slots))) => {
                    self.leaf = slots.iter();
                    return true;
                }
                Some(Some(branch)) => self.enter(branch),
                Some(None) => {}
                None => self.depth -= 1,
            }
        }
    }
}

impl<'a, K, V> Iterator for Entries<'a, K, V> {
    type Item = &'a Entry<K, V>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            // a leaf's free tail is never read
            if let Some(Some(e)) = self.leaf.next() {
                self.remaining -= 1;
                return Some(e);
            }
            if !self.next_leaf() {
                return None;
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }

    fn fold<B, F: FnMut(B, Self::Item) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = init;
        loop {
            for e in self.leaf.by_ref().map_while(Option::as_ref) {
                acc = f(acc, e);
            }
            if !self.next_leaf() {
                return acc;
            }
        }
    }
}

impl<K, V> ExactSizeIterator for Entries<'_, K, V> {}

/// A branch being consumed and the next child to take from it.
type Cursor<K, V> = (Arc<Children<K, V>>, usize);

/// Consuming iteration in hash order: entries move out of nodes this map
/// owns alone and are cloned out of shared ones.
pub struct IntoIter<K, V> {
    branches: [Option<Cursor<K, V>>; LEVELS],
    depth: usize,
    leaf: Option<(Leaf<K, V>, usize)>,
    remaining: usize,
}

impl<K: Clone, V: Clone> Iterator for IntoIter<K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        loop {
            if let Some((slots, pos)) = &mut self.leaf {
                let i = *pos;
                *pos += 1;
                let taken = match Arc::get_mut(slots) {
                    Some(unique) => unique.get_mut(i).and_then(Option::take),
                    None => slots.get(i).cloned().flatten(),
                };
                if let Some(e) = taken {
                    self.remaining -= 1;
                    return Some((e.key, e.value));
                }
                self.leaf = None;
            }
            loop {
                let (children, next) = self.branches[..self.depth].last_mut()?.as_mut()?;
                if *next == FANOUT {
                    self.depth -= 1;
                    self.branches[self.depth] = None;
                    continue;
                }
                let i = *next;
                *next += 1;
                let child = match Arc::get_mut(children) {
                    Some(unique) => unique[i].take(),
                    None => children[i].clone(),
                };
                match child {
                    Some(Node::Leaf(slots)) => {
                        self.leaf = Some((slots, 0));
                        break;
                    }
                    Some(Node::Branch(grandchildren)) => {
                        self.branches[self.depth] = Some((grandchildren, 0));
                        self.depth += 1;
                    }
                    None => {}
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<K: Clone, V: Clone> ExactSizeIterator for IntoIter<K, V> {}

impl<K: Clone, V: Clone> IntoIterator for PMap<K, V> {
    type Item = (K, V);
    type IntoIter = IntoIter<K, V>;

    fn into_iter(self) -> IntoIter<K, V> {
        let mut it = IntoIter {
            branches: std::array::from_fn(|_| None),
            depth: 0,
            leaf: None,
            remaining: self.len,
        };
        match self.root {
            Some(Node::Leaf(slots)) => it.leaf = Some((slots, 0)),
            Some(Node::Branch(children)) => {
                it.branches[0] = Some((children, 0));
                it.depth = 1;
            }
            None => {}
        }
        it
    }
}

/// Equal contents, whatever either trie's shape or history.
impl<K: Eq + Hash, V: PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let shared_root = match (&self.root, &other.root) {
            (Some(Node::Leaf(a)), Some(Node::Leaf(b))) => Arc::ptr_eq(a, b),
            (Some(Node::Branch(a)), Some(Node::Branch(b))) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        };
        if shared_root {
            return true;
        }
        // both iterate in hash order, so equal maps agree entry by entry
        // unless keys of one full hash were inserted in different orders
        let mut in_step = true;
        for (a, b) in self.entries().zip(other.entries()) {
            if a.hash != b.hash {
                return false;
            }
            in_step &= a.key == b.key && a.value == b.value;
        }
        in_step || self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: Eq + Hash, V: Eq> Eq for PMap<K, V> {}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::HashMap;
    use std::convert::Infallible;

    /// A map of `pairs` built in one pass; a later pair for a key
    /// replaces an earlier one.
    fn map_of<K: Eq + Hash + Clone, V: Clone>(
        pairs: impl IntoIterator<Item = (K, V)>,
    ) -> PMap<K, V> {
        let replace = |old: &mut V, new: &mut V| {
            std::mem::swap(old, new);
            Ok::<_, Infallible>(())
        };
        let Ok(map) = PMap::try_from_pairs(pairs.into_iter().map(Ok), replace, |_| true);
        map
    }

    /// A key whose hash writes two bits: every key shares one of four
    /// full hashes, so paths reach the last level and leaves collide.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Clash(u16);

    impl Hash for Clash {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u8((self.0 % 4) as u8);
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u16, u32),
        Remove(u16),
        Get(u16),
        /// Clone the map, mutate the clone, check the original is intact.
        Fork(u16, u32),
        /// One `alter_all` batch: per key, add to the value (`Some`) or
        /// remove it (`None`); with `true`, while a clone shares the map
        /// (the leaf-merging path), and the clone must not change.
        Batch(Vec<(u16, Option<u32>)>, bool),
    }

    fn ops(keys: u16) -> impl Strategy<Value = Vec<Op>> {
        let op = prop_oneof![
            (0..keys, 0u32..u32::MAX).prop_map(|(k, v)| Op::Insert(k, v)),
            (0..keys, 0u32..u32::MAX).prop_map(|(k, v)| Op::Insert(k, v)),
            (0..keys).prop_map(Op::Remove),
            (0..keys).prop_map(Op::Get),
            (0..keys, 0u32..u32::MAX).prop_map(|(k, v)| Op::Fork(k, v)),
            (
                proptest::collection::vec(
                    (0..keys, prop_oneof![(0u32..9).prop_map(Some), Just(None)]),
                    0..150,
                ),
                any::<bool>(),
            )
                .prop_map(|(edits, shared)| Op::Batch(edits, shared)),
        ];
        let len = if cfg!(miri) { 60 } else { 600 };
        proptest::collection::vec(op, 0..len)
    }

    fn cases() -> u32 {
        if cfg!(miri) {
            4
        } else {
            128
        }
    }

    /// Runs `ops` against a `PMap` and a `HashMap` side by side.
    fn check_model<K: Eq + Hash + Clone + fmt::Debug>(
        ops: &[Op],
        key: impl Fn(u16) -> K,
    ) -> Result<(), TestCaseError> {
        let mut map: PMap<K, u32> = PMap::new();
        let mut model: HashMap<u16, u32> = HashMap::new();
        for op in ops {
            match op.clone() {
                Op::Insert(k, v) => prop_assert_eq!(map.insert(key(k), v), model.insert(k, v)),
                Op::Remove(k) => prop_assert_eq!(map.remove(&key(k)), model.remove(&k)),
                Op::Get(k) => prop_assert_eq!(map.get(&key(k)), model.get(&k)),
                Op::Fork(k, v) => {
                    let before: Vec<(K, u32)> = map.iter().map(|(k, v)| (k.clone(), *v)).collect();
                    let mut fork = map.clone();
                    fork.insert(key(k), v);
                    fork.remove(&key(k.wrapping_add(1)));
                    fork.for_each_value_mut(|v| *v = v.wrapping_add(1));
                    let batch = (0..20).map(|i| (key(k.wrapping_add(i)), ()));
                    let zero = |value: &mut Option<u32>, ()| {
                        *value = Some(0);
                        Ok::<_, Infallible>(())
                    };
                    let Ok(()) = fork.alter_all(batch, zero);
                    let after: Vec<(K, u32)> = map.iter().map(|(k, v)| (k.clone(), *v)).collect();
                    prop_assert_eq!(before, after, "a write to the clone reached the original");
                    // and a write to the original never reaches the clone
                    let forked: Vec<(K, u32)> = fork.iter().map(|(k, v)| (k.clone(), *v)).collect();
                    map.insert(key(k), v.wrapping_add(7));
                    let still: Vec<(K, u32)> = fork.iter().map(|(k, v)| (k.clone(), *v)).collect();
                    prop_assert_eq!(forked, still, "a write to the original reached the clone");
                    model.insert(k, v.wrapping_add(7));
                }
                Op::Batch(edits, shared) => {
                    let add = |value: &mut Option<u32>, edit: Option<u32>| {
                        *value = edit.map(|n| value.map_or(n, |o| o.wrapping_add(n)));
                        Ok::<_, Infallible>(())
                    };
                    let keyed = edits.iter().map(|&(k, e)| (key(k), e));
                    let before = shared.then(|| map.clone());
                    let Ok(()) = map.alter_all(keyed, add);
                    if let Some(before) = before {
                        prop_assert_eq!(before.len(), model.len());
                        for (k, v) in &model {
                            prop_assert_eq!(
                                before.get(&key(*k)),
                                Some(v),
                                "a batch reached the clone"
                            );
                        }
                    }
                    for &(k, e) in &edits {
                        match e {
                            Some(n) => {
                                let v = model.get(&k).map_or(n, |o| o.wrapping_add(n));
                                model.insert(k, v);
                            }
                            None => {
                                model.remove(&k);
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(map.len(), model.len());
        }
        prop_assert_eq!(map.iter().len(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(map.get(&key(*k)), Some(v));
        }
        let mut seen = 0;
        for (k, v) in map.iter() {
            prop_assert!(model.iter().any(|(mk, mv)| key(*mk) == *k && mv == v));
            seen += 1;
        }
        prop_assert_eq!(seen, model.len());
        // consuming iteration yields the same pairs, shared or not
        let shared = map.clone();
        let mut owned: Vec<(K, u32)> = map.into_iter().collect();
        let mut cloned: Vec<(K, u32)> = shared.clone().into_iter().collect();
        prop_assert_eq!(owned.len(), model.len());
        owned.sort_by_key(|(_, v)| *v);
        cloned.sort_by_key(|(_, v)| *v);
        prop_assert_eq!(owned.len(), cloned.len());
        prop_assert_eq!(shared.len(), model.len());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Random edits over a wide key space: the map behaves as the
        /// `HashMap` model does, and clones never see each other's writes.
        #[test]
        fn pmap_model_matches_hashmap(ops in ops(2_000)) {
            check_model(&ops, |k| k)?;
        }

        /// The same with four full hashes for all keys: full-depth paths
        /// and colliding leaves.
        #[test]
        fn pmap_model_matches_hashmap_under_full_collisions(ops in ops(200)) {
            check_model(&ops, Clash)?;
        }

        /// Equal contents built in different orders, through different
        /// removal histories, compare equal (and unequal ones do not).
        #[test]
        fn pmap_equality_ignores_history(
            keys in proptest::collection::vec(0u16..500, 0..300),
            extra in proptest::collection::vec(0u16..500, 0..300),
        ) {
            let forward = map_of(keys.iter().map(|&k| (k, k / 3)));
            let mut backward: PMap<u16, u16> = PMap::new();
            for &k in extra.iter().chain(keys.iter().rev()) {
                backward.insert(k, k / 3);
            }
            for &k in &extra {
                if !keys.contains(&k) {
                    backward.remove(&k);
                }
            }
            prop_assert_eq!(&forward, &backward);
            let clashing = map_of(keys.iter().map(|&k| (Clash(k), k)));
            let mut reversed: PMap<Clash, u16> = PMap::new();
            for &k in extra.iter().chain(keys.iter().rev()) {
                reversed.insert(Clash(k), k);
            }
            for &k in &extra {
                if !keys.contains(&k) {
                    reversed.remove(&Clash(k));
                }
            }
            prop_assert_eq!(&clashing, &reversed);
            if let Some(&k) = keys.first() {
                backward.insert(k, u16::MAX);
                prop_assert_ne!(&forward, &backward);
                reversed.insert(Clash(k), u16::MAX);
                prop_assert_ne!(&clashing, &reversed);
            }
        }
    }

    /// Items grouped by key keep their order, also among keys that share
    /// a full hash.
    #[test]
    fn pmap_groups_items_by_key() {
        let items = (0..600u16).map(|i| (Clash(i % 50), i));
        let Ok(groups) = PMap::from_groups(items, |_, xs| Ok::<_, Infallible>(xs));
        assert_eq!(groups.len(), 50);
        for k in 0..50u16 {
            let want: Vec<u16> = (0..600).filter(|i| i % 50 == k).collect();
            assert_eq!(groups.get(&Clash(k)), Some(&want));
        }
    }

    #[test]
    fn pmap_iterates_in_hash_order() {
        let map = map_of((0..5_000u32).map(|k| (k, k)));
        let hashes: Vec<u64> = map.keys().map(hash_of).collect();
        assert!(hashes.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(map.iter().len(), 5_000);
    }

    #[test]
    fn pmap_clone_shares_until_written() {
        let a = map_of((0..5_000u32).map(|k| (k, k)));
        let mut b = a.clone();
        b.insert(7, 70);
        assert_eq!(a.get(&7), Some(&7));
        assert_eq!(b.get(&7), Some(&70));
        // the write copied one path: every other leaf is still shared
        let (Some(Node::Branch(ra)), Some(Node::Branch(rb))) = (&a.root, &b.root) else {
            panic!("5 000 entries need a branch at the root");
        };
        let d = digit(hash_of(&7u32), 0);
        for (i, (x, y)) in ra.iter().zip(rb.iter()).enumerate() {
            let same = match (x, y) {
                (Some(Node::Branch(x)), Some(Node::Branch(y))) => Arc::ptr_eq(x, y),
                (Some(Node::Leaf(x)), Some(Node::Leaf(y))) => Arc::ptr_eq(x, y),
                _ => false,
            };
            assert_eq!(same, i != d, "child {i}");
        }
    }

    #[test]
    fn pmap_removing_everything_frees_the_trie() {
        let mut map = map_of((0..1_000u32).map(|k| (k, k)));
        let keep = map.clone();
        for k in 0..1_000 {
            assert_eq!(map.remove(&k), Some(k));
        }
        assert!(map.is_empty() && map.root.is_none());
        assert_eq!(keep.len(), 1_000);
        assert_eq!(map.remove(&3), None);
    }
}
