//! Paged per-layer key/value cache (the functional twin of the Attention
//! Buffer) plus the prefix-reuse machinery built on top of it.
//!
//! Storage is organized as fixed-size **pages** of [`PAGE_SLOTS`] local
//! positions covering every layer, so a sequence's cache is a page table
//! rather than one dense buffer. Pages come in two flavors:
//!
//! * `Owned` — private, writable storage for the sequence's own tokens;
//! * `Shared` — an immutable, refcounted page committed to a [`PagePool`]
//!   and reachable through the block-granular [`RadixTree`], so sequences
//!   with identical prompt prefixes read the same physical KV.
//!
//! Divergence is handled copy-on-write: a boundary page whose tail
//! differs from the committed prefix is copied into private storage at
//! attach time (cold path), and a defensive COW also guards `append`
//! against ever writing through a shared page. Reads are gated by the
//! per-layer `fill`, so stale slots in reused or copied pages are never
//! visible.
//!
//! [`PrefixCache`] is the facade the serving loop uses: longest-prefix matching over token ids, commit of finished
//! prompts, per-sequence page grants with exactly-once release, and
//! deterministic LRU eviction of cold, unreferenced prefixes under a
//! page budget.

use std::sync::Arc;

/// Local positions per KV page: one page holds this many cached
/// positions (across all layers) of one shard.
pub const PAGE_SLOTS: usize = 4;

/// Global positions per shared block: with the 4×4 grid's `p % 4`
/// sharding, one 16-position span maps to exactly one local page in
/// every shard, so a block is the natural unit of prefix sharing.
pub const BLOCK_POSITIONS: usize = 16;

/// Immutable page payload shared between sequences.
#[derive(Debug)]
pub struct PageBuf {
    data: Box<[f32]>,
}

impl PageBuf {
    /// The raw page storage (layout is owned by [`KvCache`]).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// A zero-length placeholder page, for planning oracles that track
    /// tree shape without real KV storage.
    // analyze: cold
    pub fn placeholder() -> PageRef {
        Arc::new(PageBuf {
            data: Box::default(),
        })
    }
}

/// Shared handle to a committed, immutable page.
pub type PageRef = Arc<PageBuf>;

/// One entry of a sequence's page table.
#[derive(Debug, Clone)]
enum Page {
    /// Privately owned, writable storage.
    Owned(Box<[f32]>),
    /// Refcounted immutable page shared via the [`PagePool`].
    Shared(PageRef),
}

impl Page {
    fn data(&self) -> &[f32] {
        match self {
            Page::Owned(b) => b,
            Page::Shared(r) => &r.data,
        }
    }
}

/// KV storage for one sequence: a page table over
/// `layers × positions × kv_heads × head_dim`.
#[derive(Debug, Clone, Default)]
pub struct KvCache {
    pages: Vec<Page>,
    /// Cached positions per layer. Reads are gated on this, so stale
    /// slots in reused or copied pages are never visible.
    fill: Vec<usize>,
    num_layers: usize,
    kv_heads: usize,
    head_dim: usize,
}

impl KvCache {
    /// An empty cache for `num_layers` layers of `kv_heads × head_dim`.
    // analyze: cold
    pub fn new(num_layers: usize, kv_heads: usize, head_dim: usize) -> Self {
        KvCache {
            pages: Vec::new(),
            fill: vec![0; num_layers],
            num_layers,
            kv_heads,
            head_dim,
        }
    }

    /// Cached positions (context length), reported from layer 0 like the
    /// dense predecessor.
    pub fn len(&self) -> usize {
        self.fill.first().copied().unwrap_or(0)
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Floats per position per side (K or V).
    fn width(&self) -> usize {
        self.kv_heads * self.head_dim
    }

    /// Floats in one full page: every layer's K and V for
    /// [`PAGE_SLOTS`] positions.
    fn page_floats(&self) -> usize {
        self.num_layers * PAGE_SLOTS * 2 * self.width()
    }

    /// Offset of `(layer, slot, which)` inside a page buffer
    /// (`which`: 0 = keys, 1 = values).
    fn slot_base(&self, layer: usize, slot: usize, which: usize) -> usize {
        ((layer * PAGE_SLOTS + slot) * 2 + which) * self.width()
    }

    /// Append one position's K and V for `layer`.
    ///
    /// # Panics
    ///
    /// Panics if the slices are not `kv_heads * head_dim` long or the
    /// layer index is out of range.
    pub fn append(&mut self, layer: usize, k: &[f32], v: &[f32]) {
        let width = self.width();
        assert_eq!(k.len(), width, "key width");
        assert_eq!(v.len(), width, "value width");
        let pos = self.fill[layer];
        let page = pos / PAGE_SLOTS;
        let slot = pos % PAGE_SLOTS;
        if page >= self.pages.len() {
            self.grow_to(page);
        }
        if matches!(self.pages[page], Page::Shared(_)) {
            // Copy-on-write: a divergent append must never mutate a
            // page other sequences read through the pool.
            self.cow_page(page);
        }
        let kb = self.slot_base(layer, slot, 0);
        let vb = self.slot_base(layer, slot, 1);
        let Page::Owned(buf) = &mut self.pages[page] else {
            unreachable!("page made writable above")
        };
        buf[kb..kb + width].copy_from_slice(k);
        buf[vb..vb + width].copy_from_slice(v);
        self.fill[layer] = pos.saturating_add(1);
    }

    /// Key vector of `head` at `position` in `layer` (indirect page
    /// lookup; no allocation).
    pub fn key(&self, layer: usize, position: usize, head: usize) -> &[f32] {
        let base = self.slot_base(layer, position % PAGE_SLOTS, 0) + head * self.head_dim;
        let page = &self.pages[position / PAGE_SLOTS];
        &page.data()[base..base + self.head_dim]
    }

    /// Value vector of `head` at `position` in `layer`.
    pub fn value(&self, layer: usize, position: usize, head: usize) -> &[f32] {
        let base = self.slot_base(layer, position % PAGE_SLOTS, 1) + head * self.head_dim;
        let page = &self.pages[position / PAGE_SLOTS];
        &page.data()[base..base + self.head_dim]
    }

    /// KV heads per cached position.
    pub fn kv_heads(&self) -> usize {
        self.kv_heads
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Number of layers this cache covers.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Pre-size the page table for `positions` cached positions, so
    /// steady-state [`append`](Self::append) never allocates — the
    /// zero-allocation decode sentinel (`tests/tests/zero_alloc_decode.rs`)
    /// holds the engine to that.
    // analyze: cold
    pub fn reserve(&mut self, positions: usize) {
        let pages = positions.div_ceil(PAGE_SLOTS);
        if pages > 0 {
            self.grow_to(pages.saturating_sub(1));
        }
    }

    /// Drop every cached position. Owned pages are kept (and compacted
    /// to the front of the table) so a recovering sequence re-prefills
    /// into warm buffers; shared pages are released back to their
    /// owners.
    pub fn clear(&mut self) {
        self.pages.retain(|p| matches!(p, Page::Owned(_)));
        for f in &mut self.fill {
            *f = 0;
        }
    }

    /// Total cached bytes at fp16 storage (capacity planning). This is
    /// the *logical* footprint — what a dense cache of the same fill
    /// would occupy; see [`owned_bytes_fp16`](Self::owned_bytes_fp16)
    /// for the physically private share.
    pub fn bytes_fp16(&self) -> u64 {
        let width = self.width() as u64;
        self.fill.iter().fold(0u64, |acc, &f| {
            let floats = (f as u64).saturating_mul(width).saturating_mul(2);
            acc.saturating_add(floats.saturating_mul(2))
        })
    }

    /// Privately owned bytes at fp16: every page this cache owns, counted
    /// whole however full it is. Pages held through the pool are charged
    /// to the pool, even when no other cache reads them.
    pub fn owned_bytes_fp16(&self) -> u64 {
        let per_page = (self.page_floats() as u64).saturating_mul(2);
        let owned = self
            .pages
            .iter()
            .filter(|p| matches!(p, Page::Owned(_)))
            .count() as u64;
        owned.saturating_mul(per_page)
    }

    /// Pages referenced through the shared pool.
    pub fn shared_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| matches!(p, Page::Shared(_)))
            .count()
    }

    /// Attach a matched prefix to an empty cache: `full` committed pages
    /// are shared by reference, and the optional `boundary` page — whose
    /// tail diverges from this sequence's tokens — is copied into
    /// private storage (the copy-on-write edge). `local_len` is the
    /// resulting per-layer fill in local positions.
    ///
    /// # Panics
    ///
    /// Panics if the cache is not empty, the fill does not lie within
    /// the attached pages, or a page has the wrong size.
    // analyze: cold
    pub fn attach_shared(
        &mut self,
        full: &[PageRef],
        boundary: Option<&PageRef>,
        local_len: usize,
    ) {
        assert!(self.is_empty(), "attach_shared requires an empty cache");
        let full_slots = full.len().saturating_mul(PAGE_SLOTS);
        let cap = if boundary.is_some() {
            full_slots.saturating_add(PAGE_SLOTS)
        } else {
            full_slots
        };
        assert!(
            local_len >= full_slots && local_len <= cap,
            "attach fill {local_len} outside attached pages ({full_slots}..={cap})"
        );
        let floats = self.page_floats();
        for (i, p) in full.iter().enumerate() {
            assert_eq!(p.data.len(), floats, "shared page size");
            let page = Page::Shared(Arc::clone(p));
            if i < self.pages.len() {
                self.pages[i] = page;
            } else {
                self.pages.push(page);
            }
        }
        if let Some(b) = boundary {
            assert_eq!(b.data.len(), floats, "boundary page size");
            let idx = full.len();
            // Committed pages are fully filled, so a whole-page copy is
            // valid data; reads past `local_len` stay invisible anyway.
            let copy = Page::Owned(b.data.as_ref().into());
            if idx < self.pages.len() {
                self.pages[idx] = copy;
            } else {
                self.pages.push(copy);
            }
        }
        for f in &mut self.fill {
            *f = local_len;
        }
    }

    /// Freeze page `page` for sharing: owned storage is handed to an
    /// `Arc` without copying the floats; an already-shared page hands
    /// out another reference. This cache keeps reading the same bytes
    /// through the shared handle.
    ///
    /// # Panics
    ///
    /// Panics if the page index is out of range.
    // analyze: cold
    pub fn share_page(&mut self, page: usize) -> PageRef {
        debug_assert!(
            self.fill
                .iter()
                .all(|&f| f >= (page + 1).saturating_mul(PAGE_SLOTS)),
            "sharing a page that is not full on every layer"
        );
        let entry = &mut self.pages[page];
        match entry {
            Page::Shared(r) => Arc::clone(r),
            Page::Owned(_) => {
                let Page::Owned(buf) = std::mem::replace(entry, Page::Owned(Box::default())) else {
                    unreachable!("matched Owned above")
                };
                let r: PageRef = Arc::new(PageBuf { data: buf });
                *entry = Page::Shared(Arc::clone(&r));
                r
            }
        }
    }

    /// Slow path: extend the page table with zeroed owned pages through
    /// `page` (inclusive).
    // analyze: cold
    fn grow_to(&mut self, page: usize) {
        let floats = self.page_floats();
        while self.pages.len() <= page {
            self.pages
                .push(Page::Owned(vec![0.0; floats].into_boxed_slice()));
        }
    }

    /// Copy-on-write: replace a shared page with a private copy before a
    /// divergent write lands in it.
    // analyze: cold
    fn cow_page(&mut self, page: usize) {
        let copy: Box<[f32]> = self.pages[page].data().into();
        self.pages[page] = Page::Owned(copy);
    }
}

/// Ledger counters for the page pool. Every page moves each counter at
/// most once: `registered` on first commit, `freed` when its last
/// reference is released.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pages ever registered (committed) into the pool.
    pub registered: u64,
    /// Pages whose refcount reached zero — freed exactly once each.
    pub freed: u64,
}

/// Refcounted owner of committed, immutable KV pages.
///
/// The pool's explicit refcounts are the accounting ledger (eviction
/// eligibility, exactly-once frees); the `Arc` inside each entry is
/// what keeps the floats alive for caches still reading them.
#[derive(Debug, Default)]
pub struct PagePool {
    entries: Vec<Option<PageRef>>,
    refs: Vec<u32>,
    free: Vec<u32>,
    live: usize,
    stats: PoolStats,
}

impl PagePool {
    /// Register a freshly committed page with one reference (the
    /// registrant's). Returns its pool id.
    // analyze: cold
    pub fn register(&mut self, page: PageRef) -> u32 {
        self.stats.registered = self.stats.registered.saturating_add(1);
        self.live = self.live.saturating_add(1);
        match self.free.pop() {
            Some(id) => {
                self.entries[id as usize] = Some(page);
                self.refs[id as usize] = 1;
                id
            }
            None => {
                let id = self.entries.len() as u32;
                self.entries.push(Some(page));
                self.refs.push(1);
                id
            }
        }
    }

    /// Add a reference to a live page.
    ///
    /// # Panics
    ///
    /// Panics on a freed or unknown id — a refcounting bug upstream.
    pub fn retain(&mut self, id: u32) {
        assert!(
            self.entries[id as usize].is_some(),
            "retain of freed page {id}"
        );
        let r = &mut self.refs[id as usize];
        *r = r.saturating_add(1);
    }

    /// Drop a reference; returns `true` when this release freed the
    /// page (which happens exactly once per registered id).
    ///
    /// # Panics
    ///
    /// Panics on a freed or unknown id, or a refcount underflow.
    pub fn release(&mut self, id: u32) -> bool {
        let i = id as usize;
        assert!(self.entries[i].is_some(), "release of freed page {id}");
        assert!(self.refs[i] > 0, "refcount underflow on page {id}");
        self.refs[i] = self.refs[i].saturating_sub(1);
        if self.refs[i] == 0 {
            self.entries[i] = None;
            self.free.push(id);
            self.live = self.live.saturating_sub(1);
            self.stats.freed = self.stats.freed.saturating_add(1);
            true
        } else {
            false
        }
    }

    /// The shared handle for a live page id.
    ///
    /// # Panics
    ///
    /// Panics on a freed or unknown id.
    pub fn page(&self, id: u32) -> &PageRef {
        let entry = self.entries[id as usize].as_ref();
        assert!(entry.is_some(), "page {id} already freed");
        let Some(page) = entry else {
            unreachable!("asserted live above")
        };
        page
    }

    /// Current refcount of a live page.
    pub fn ref_count(&self, id: u32) -> u32 {
        self.refs[id as usize]
    }

    /// Live (registered, not yet freed) pages.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Largest reference count among live pages (0 when none live).
    /// After a server drains, every live page is held only by the tree,
    /// so this is at most 1 — harnesses pin that quiescence invariant.
    pub fn max_ref_count(&self) -> u32 {
        self.refs
            .iter()
            .zip(self.entries.iter())
            .filter(|(_, e)| e.is_some())
            .map(|(&r, _)| r)
            .max()
            .unwrap_or(0)
    }

    /// Ledger counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

const ROOT: u32 = 0;

/// One committed block: a fixed [`BLOCK_POSITIONS`]-token edge of the
/// radix tree plus the pool ids of its pages (one per shard).
#[derive(Debug)]
struct BlockNode {
    label: Vec<u32>,
    pages: Box<[u32]>,
    children: Vec<u32>,
    parent: u32,
    last_touch: u64,
}

/// Block-granular radix tree over prompt token ids.
///
/// Every edge is exactly one committed block, so inserts never split
/// edges; siblings may share token prefixes and lookups take the child
/// with the longest common prefix (ties broken by sorted label order,
/// which makes matching independent of insertion order).
#[derive(Debug)]
pub struct RadixTree {
    nodes: Vec<BlockNode>,
    free_nodes: Vec<u32>,
}

impl Default for RadixTree {
    // analyze: cold — built once per prefix cache.
    fn default() -> Self {
        RadixTree {
            nodes: vec![BlockNode {
                label: Vec::new(),
                pages: Box::default(),
                children: Vec::new(),
                parent: ROOT,
                last_touch: 0,
            }],
            free_nodes: Vec::new(),
        }
    }
}

fn lcp(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl RadixTree {
    /// Walk `prompt` from the root: returns the raw longest common
    /// prefix in tokens and the page-id sets of every block along the
    /// path (including a final partially matched block, whose pages
    /// back the copy-on-write boundary). Touches matched nodes with
    /// `clock` for LRU ordering.
    // analyze: cold — admission-time lookup, not the per-token path.
    pub fn descend(&mut self, prompt: &[u32], clock: u64) -> (usize, Vec<Box<[u32]>>) {
        let mut cur = ROOT;
        let mut depth = 0usize;
        let mut out: Vec<Box<[u32]>> = Vec::new();
        loop {
            let rem = &prompt[depth..];
            if rem.is_empty() {
                return (depth, out);
            }
            let mut best: Option<u32> = None;
            let mut best_l = 0usize;
            for &c in &self.nodes[cur as usize].children {
                let l = lcp(&self.nodes[c as usize].label, rem);
                if l > best_l {
                    best = Some(c);
                    best_l = l;
                }
            }
            let Some(child) = best else {
                return (depth, out);
            };
            self.nodes[child as usize].last_touch = clock;
            out.push(self.nodes[child as usize].pages.clone());
            depth = depth.saturating_add(best_l);
            if best_l < BLOCK_POSITIONS {
                return (depth, out);
            }
            cur = child;
        }
    }

    /// The child of `cur` whose label equals `chunk`, if any.
    fn child_equal(&self, cur: u32, chunk: &[u32]) -> Option<u32> {
        self.nodes[cur as usize]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c as usize].label == chunk)
    }

    /// Insert a new block under `cur`, keeping children sorted by label
    /// so lookup order is insertion-order independent.
    // analyze: cold
    fn add_child(&mut self, cur: u32, chunk: &[u32], pages: Box<[u32]>, clock: u64) -> u32 {
        let node = BlockNode {
            label: chunk.to_vec(),
            pages,
            children: Vec::new(),
            parent: cur,
            last_touch: clock,
        };
        let id = match self.free_nodes.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                let id = self.nodes.len() as u32;
                self.nodes.push(node);
                id
            }
        };
        let nodes = &self.nodes;
        let pos = nodes[cur as usize]
            .children
            .binary_search_by(|&c| nodes[c as usize].label.as_slice().cmp(chunk))
            .unwrap_or_else(|p| p);
        self.nodes[cur as usize].children.insert(pos, id);
        id
    }

    /// Leaf ids currently eligible for eviction: no children and every
    /// page referenced only by the tree itself.
    // analyze: cold — eviction-time scan, not the per-token path.
    fn evictable_leaves(&self, pool: &PagePool) -> Vec<u32> {
        let mut live = vec![false; self.nodes.len()];
        self.mark_live(ROOT, &mut live);
        (1..self.nodes.len() as u32)
            .filter(|&id| live[id as usize])
            .filter(|&id| self.nodes[id as usize].children.is_empty())
            .filter(|&id| {
                self.nodes[id as usize]
                    .pages
                    .iter()
                    .all(|&p| pool.ref_count(p) == 1)
            })
            .collect()
    }

    fn mark_live(&self, id: u32, live: &mut [bool]) {
        live[id as usize] = true;
        for &c in &self.nodes[id as usize].children {
            self.mark_live(c, live);
        }
    }

    /// The coldest evictable leaf by `(last_touch, node id)`, if any.
    pub fn coldest_evictable_leaf(&self, pool: &PagePool) -> Option<u32> {
        self.evictable_leaves(pool)
            .into_iter()
            .min_by_key(|&id| (self.nodes[id as usize].last_touch, id))
    }

    /// Evict leaf `id`: release its pages (each freed exactly once —
    /// the tree held the last reference) and unlink it. Returns pages
    /// released.
    // analyze: cold
    pub fn evict(&mut self, id: u32, pool: &mut PagePool) -> u64 {
        let pages = std::mem::take(&mut self.nodes[id as usize].pages);
        let mut released = 0u64;
        for &p in pages.iter() {
            let freed = pool.release(p);
            debug_assert!(freed, "evicted page still referenced");
            released = released.saturating_add(1);
        }
        let parent = self.nodes[id as usize].parent;
        self.nodes[parent as usize].children.retain(|&c| c != id);
        self.nodes[id as usize].children.clear();
        self.nodes[id as usize].label.clear();
        self.free_nodes.push(id);
        released
    }

    /// Drop every node's tree reference exactly once and reset to an
    /// empty tree (the chip-death path: residents release their grants
    /// first, so most pages free here). Returns pages released.
    // analyze: cold
    pub fn flush(&mut self, pool: &mut PagePool) -> u64 {
        let mut released = 0u64;
        let mut stack = vec![ROOT];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id as usize];
            stack.extend_from_slice(&node.children);
            if id != ROOT {
                for &p in self.nodes[id as usize].pages.iter() {
                    pool.release(p);
                    released = released.saturating_add(1);
                }
            }
        }
        *self = RadixTree::default();
        released
    }

    /// Live (reachable, non-root) nodes.
    // analyze: cold — diagnostic walk.
    pub fn node_count(&self) -> usize {
        let mut live = vec![false; self.nodes.len()];
        self.mark_live(ROOT, &mut live);
        live.iter().filter(|&&l| l).count().saturating_sub(1)
    }
}

/// Configuration of a [`PrefixCache`].
#[derive(Debug, Clone, Copy)]
pub struct PrefixCacheConfig {
    /// Committed pages the pool may hold before deterministic LRU
    /// eviction of cold, unreferenced prefixes kicks in.
    /// `usize::MAX` disables eviction (offline replay uses that, so its
    /// schedule equals the planner's under a never-evicting oracle).
    pub page_budget: usize,
    /// Pages per committed block — one per shard (`GRID * GRID` for the
    /// dataflow engine).
    pub pages_per_block: usize,
}

impl Default for PrefixCacheConfig {
    fn default() -> Self {
        PrefixCacheConfig {
            page_budget: usize::MAX,
            pages_per_block: 16,
        }
    }
}

/// Running counters for prefix reuse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct PrefixStats {
    /// Prompts looked up at admission.
    pub lookups: u64,
    /// Lookups that matched at least one position.
    pub hits: u64,
    /// Prompt positions served from shared pages instead of prefill.
    pub reused_positions: u64,
    /// Blocks committed into the tree.
    pub committed_blocks: u64,
    /// Pages released by LRU eviction.
    pub evicted_pages: u64,
    /// Pages released by chip-death flushes.
    pub flushed_pages: u64,
}

/// Result of a prompt lookup: the usable matched length (already capped
/// so at least the final prompt token is always prefilled for logits)
/// and the page-id sets of the covering blocks. When
/// `matched % BLOCK_POSITIONS != 0` the last set is the copy-on-write
/// boundary block.
#[derive(Debug, Clone)]
pub struct PrefixMatch {
    /// Usable matched positions (capped below the full prompt).
    pub matched: usize,
    /// Page-id sets of the covering blocks, root-first.
    pub blocks: Vec<Box<[u32]>>,
}

/// Pool + radix tree + ledger: the prefix-reuse facade of the serving
/// loop (online serving and offline replay alike).
#[derive(Debug)]
pub struct PrefixCache {
    pool: PagePool,
    tree: RadixTree,
    cfg: PrefixCacheConfig,
    clock: u64,
    stats: PrefixStats,
}

impl PrefixCache {
    /// An empty cache governed by `cfg`.
    // analyze: cold
    pub fn new(cfg: PrefixCacheConfig) -> Self {
        PrefixCache {
            pool: PagePool::default(),
            tree: RadixTree::default(),
            cfg,
            clock: 0,
            stats: PrefixStats::default(),
        }
    }

    /// Longest usable prefix of `prompt` already committed: raw tree
    /// match capped to `prompt.len() - 1` (the final token is always
    /// prefilled so the sequence produces logits, and the scheduler
    /// always has at least one prefill token to charge).
    // analyze: cold
    pub fn match_prompt(&mut self, prompt: &[u32]) -> PrefixMatch {
        self.clock = self.clock.saturating_add(1);
        let (raw, mut blocks) = self.tree.descend(prompt, self.clock);
        let matched = raw.min(prompt.len().saturating_sub(1));
        blocks.truncate(matched.div_ceil(BLOCK_POSITIONS));
        self.stats.lookups = self.stats.lookups.saturating_add(1);
        if matched > 0 {
            self.stats.hits = self.stats.hits.saturating_add(1);
            self.stats.reused_positions =
                self.stats.reused_positions.saturating_add(matched as u64);
        }
        PrefixMatch { matched, blocks }
    }

    /// Take references on the fully shared blocks of a match for one
    /// sequence, recording them in `grant` for exactly-once release.
    /// The boundary block (if any) is copied at attach time, so it
    /// takes no reference.
    // analyze: cold
    pub fn retain_match(&mut self, m: &PrefixMatch, grant: &mut Vec<u32>) {
        let full = m.matched / BLOCK_POSITIONS;
        for blk in m.blocks.iter().take(full) {
            for &id in blk.iter() {
                self.pool.retain(id);
                grant.push(id);
            }
        }
    }

    /// Commit the full blocks of a finished prompt. `supplier` is
    /// called once per *new* block index to freeze and hand over that
    /// block's pages (one per shard); blocks already in the tree are
    /// only touched. Newly registered pages also add one reference for
    /// the committing sequence, recorded in `grant`.
    // analyze: cold
    pub fn commit<F>(&mut self, prompt: &[u32], mut supplier: F, grant: &mut Vec<u32>)
    where
        F: FnMut(usize) -> Vec<PageRef>,
    {
        self.clock = self.clock.saturating_add(1);
        let nblocks = prompt.len() / BLOCK_POSITIONS;
        let mut cur = ROOT;
        for b in 0..nblocks {
            let chunk = &prompt[b * BLOCK_POSITIONS..(b + 1) * BLOCK_POSITIONS];
            match self.tree.child_equal(cur, chunk) {
                Some(c) => {
                    self.tree.nodes[c as usize].last_touch = self.clock;
                    cur = c;
                }
                None => {
                    let refs = supplier(b);
                    assert_eq!(refs.len(), self.cfg.pages_per_block, "pages per block");
                    let ids: Box<[u32]> = refs.into_iter().map(|r| self.pool.register(r)).collect();
                    for &id in ids.iter() {
                        self.pool.retain(id);
                        grant.push(id);
                    }
                    cur = self.tree.add_child(cur, chunk, ids, self.clock);
                    self.stats.committed_blocks = self.stats.committed_blocks.saturating_add(1);
                }
            }
        }
        self.enforce_budget();
    }

    /// Release every reference in `grant` exactly once (drains it, so a
    /// double call is a no-op).
    // analyze: cold
    pub fn release_grant(&mut self, grant: &mut Vec<u32>) {
        for id in grant.drain(..) {
            self.pool.release(id);
        }
        self.enforce_budget();
    }

    /// Chip death: drop every tree reference exactly once and reset the
    /// tree. Residents must have released their grants first.
    // analyze: cold
    pub fn flush(&mut self) {
        let released = self.tree.flush(&mut self.pool);
        self.stats.flushed_pages = self.stats.flushed_pages.saturating_add(released);
    }

    /// Deterministic LRU eviction until the pool fits the budget or no
    /// cold, unreferenced leaf remains.
    // analyze: cold
    fn enforce_budget(&mut self) {
        while self.pool.live() > self.cfg.page_budget {
            let Some(victim) = self.tree.coldest_evictable_leaf(&self.pool) else {
                break;
            };
            let released = self.tree.evict(victim, &mut self.pool);
            self.stats.evicted_pages = self.stats.evicted_pages.saturating_add(released);
        }
    }

    /// Reuse counters since construction.
    pub fn stats(&self) -> PrefixStats {
        self.stats
    }

    /// The page pool backing the tree (for attach-time page lookup).
    pub fn pool(&self) -> &PagePool {
        &self.pool
    }

    /// The governing configuration.
    pub fn config(&self) -> PrefixCacheConfig {
        self.cfg
    }

    /// True when every registered page has been freed — the invariant
    /// after all grants are released and the tree is flushed.
    pub fn ledger_balanced(&self) -> bool {
        let s = self.pool.stats();
        s.registered == s.freed && self.pool.live() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn append_and_fetch() {
        let mut c = KvCache::new(2, 2, 4);
        assert!(c.is_empty());
        let k: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let v: Vec<f32> = (0..8).map(|i| -(i as f32)).collect();
        c.append(0, &k, &v);
        c.append(1, &v, &k);
        assert_eq!(c.len(), 1);
        assert_eq!(c.key(0, 0, 1), &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(c.value(1, 0, 0), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn grows_with_positions() {
        let mut c = KvCache::new(1, 1, 2);
        for p in 0..5 {
            c.append(0, &[p as f32, 0.0], &[0.0, p as f32]);
        }
        assert_eq!(c.len(), 5);
        assert_eq!(c.key(0, 3, 0), &[3.0, 0.0]);
        assert_eq!(c.bytes_fp16(), 5 * 2 * 2 * 2);
    }

    #[test]
    #[should_panic(expected = "key width")]
    fn wrong_width_rejected() {
        KvCache::new(1, 2, 4).append(0, &[0.0; 7], &[0.0; 8]);
    }

    #[test]
    fn shape_accessors() {
        let c = KvCache::new(3, 2, 4);
        assert_eq!(c.num_layers(), 3);
        assert_eq!(c.kv_heads(), 2);
        assert_eq!(c.head_dim(), 4);
    }

    /// Model the dataflow executor's `p % 4 == chip_in_col` sharding: four
    /// caches, position `p` appended to cache `p % 4`, and check that every
    /// global position round-trips from exactly the shard that owns it.
    #[test]
    fn mod4_sharding_round_trips_across_boundaries() {
        const GRID: usize = 4;
        let mut shards: Vec<KvCache> = (0..GRID).map(|_| KvCache::new(2, 1, 2)).collect();
        // 4n - 1, 4n, and 4n + 1 positions all exercise boundary wrap.
        for total in [3usize, 4, 5, 8, 9] {
            for s in shards.iter_mut() {
                *s = KvCache::new(2, 1, 2);
            }
            for p in 0..total {
                let k = [p as f32, 100.0 + p as f32];
                let v = [-(p as f32), 0.5 * p as f32];
                for layer in 0..2 {
                    shards[p % GRID].append(layer, &k, &v);
                }
            }
            for (chip, shard) in shards.iter().enumerate() {
                // Owner shard holds ceil((total - chip) / 4) positions.
                let expected = (total + GRID - 1).saturating_sub(chip) / GRID;
                assert_eq!(shard.len(), expected, "total {total} chip {chip}");
                // Local index l maps back to global position 4l + chip.
                for l in 0..shard.len() {
                    let p = GRID * l + chip;
                    assert_eq!(shard.key(0, l, 0), &[p as f32, 100.0 + p as f32]);
                    assert_eq!(shard.value(1, l, 0), &[-(p as f32), 0.5 * p as f32]);
                }
            }
        }
    }

    /// `clear` forgets every position but keeps shape and allocations, and
    /// the cache refills exactly like a fresh one (the recovery path's
    /// warm re-prefill buffer).
    #[test]
    fn clear_resets_positions_and_refills_like_new() {
        let mut c = KvCache::new(2, 1, 2);
        for p in 0..3 {
            for layer in 0..2 {
                c.append(layer, &[p as f32, 1.0], &[2.0, p as f32]);
            }
        }
        assert_eq!(c.len(), 3);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes_fp16(), 0);
        assert_eq!(c.num_layers(), 2);
        c.append(0, &[9.0, 8.0], &[7.0, 6.0]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.key(0, 0, 0), &[9.0, 8.0]);
        assert_eq!(c.value(0, 0, 0), &[7.0, 6.0]);
    }

    /// Appending out-of-order across layers keeps per-layer counts
    /// independent until every layer has seen the position.
    #[test]
    fn per_layer_lengths_follow_first_layer() {
        let mut c = KvCache::new(2, 1, 2);
        c.append(0, &[1.0, 2.0], &[3.0, 4.0]);
        // `len` reports layer-0 positions; layer 1 catches up on append.
        assert_eq!(c.len(), 1);
        c.append(1, &[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.key(1, 0, 0), &[1.0, 2.0]);
    }

    /// Fill `positions` on every layer with a position-derived pattern.
    fn filled(layers: usize, positions: usize) -> KvCache {
        let mut c = KvCache::new(layers, 1, 2);
        for p in 0..positions {
            for l in 0..layers {
                let k = [p as f32 + l as f32 * 0.5, 1.0];
                let v = [-(p as f32), l as f32];
                c.append(l, &k, &v);
            }
        }
        c
    }

    /// Freezing pages for sharing and re-attaching them elsewhere reads
    /// back the exact same floats, with the boundary page copied.
    #[test]
    fn share_and_attach_round_trips() {
        let mut a = filled(2, 8); // 2 full pages
        let p0 = a.share_page(0);
        let p1 = a.share_page(1);
        // The donor keeps reading through the shared handles.
        assert_eq!(a.key(0, 3, 0), &[3.0, 1.0]);
        assert_eq!(a.shared_pages(), 2);

        // Full + boundary attach: 6 positions (page 1 diverges mid-way).
        let mut b = KvCache::new(2, 1, 2);
        b.attach_shared(&[Arc::clone(&p0)], Some(&p1), 6);
        assert_eq!(b.len(), 6);
        assert_eq!(b.shared_pages(), 1);
        for p in 0..6 {
            for l in 0..2 {
                assert_eq!(b.key(l, p, 0), a.key(l, p, 0), "pos {p} layer {l}");
                assert_eq!(b.value(l, p, 0), a.value(l, p, 0), "pos {p} layer {l}");
            }
        }

        // Divergent appends land in the copied boundary page and never
        // disturb the donor.
        for l in 0..2 {
            b.append(l, &[99.0, 99.0], &[99.0, 99.0]);
        }
        assert_eq!(b.key(0, 6, 0), &[99.0, 99.0]);
        assert_eq!(a.key(0, 6, 0), &[6.0, 1.0], "donor page unchanged");
    }

    /// Block-aligned attach needs no boundary page and continues with
    /// private appends past the shared region.
    #[test]
    fn block_aligned_attach_appends_past_shared() {
        let mut a = filled(1, 4);
        let p0 = a.share_page(0);
        let mut b = KvCache::new(1, 1, 2);
        b.attach_shared(&[p0], None, 4);
        assert_eq!(b.len(), 4);
        b.append(0, &[7.0, 7.0], &[8.0, 8.0]);
        assert_eq!(b.len(), 5);
        assert_eq!(b.key(0, 4, 0), &[7.0, 7.0]);
        assert_eq!(b.key(0, 2, 0), a.key(0, 2, 0));
        assert_eq!(b.shared_pages(), 1);
    }

    /// `clear` releases shared pages but keeps owned ones for refill.
    #[test]
    fn clear_drops_shared_pages() {
        let mut a = filled(1, 4);
        let p0 = a.share_page(0);
        let mut b = KvCache::new(1, 1, 2);
        b.attach_shared(&[Arc::clone(&p0)], None, 4);
        b.append(0, &[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(Arc::strong_count(&p0), 3); // local + donor + b
        b.clear();
        assert_eq!(Arc::strong_count(&p0), 2, "clear released b's reference");
        assert_eq!(b.shared_pages(), 0);
        b.append(0, &[5.0, 6.0], &[7.0, 8.0]);
        assert_eq!(b.len(), 1);
        assert_eq!(b.key(0, 0, 0), &[5.0, 6.0]);
    }

    /// Logical vs physical accounting: shared pages are not charged to
    /// the attaching sequence.
    #[test]
    fn owned_bytes_exclude_shared_pages() {
        let mut a = filled(1, 8);
        let before = a.owned_bytes_fp16();
        assert!(before > 0);
        let p0 = a.share_page(0);
        assert_eq!(
            a.owned_bytes_fp16(),
            before / 2,
            "donor gave up one of two pages"
        );
        let mut b = KvCache::new(1, 1, 2);
        b.attach_shared(&[p0], None, 4);
        assert_eq!(b.owned_bytes_fp16(), 0);
        assert_eq!(b.bytes_fp16(), 4 * 2 * 2 * 2, "logical fill still counted");
    }

    /// Pool ledger: every page freed exactly once, retain/release
    /// balanced, ids recycled.
    #[test]
    fn pool_frees_each_page_exactly_once() {
        let mut pool = PagePool::default();
        let a = pool.register(PageBuf::placeholder());
        let b = pool.register(PageBuf::placeholder());
        pool.retain(a);
        assert_eq!(pool.ref_count(a), 2);
        assert!(!pool.release(a));
        assert!(pool.release(a), "second release frees");
        assert!(pool.release(b));
        let s = pool.stats();
        assert_eq!(s.registered, 2);
        assert_eq!(s.freed, 2);
        assert_eq!(pool.live(), 0);
        // Freed ids are recycled for new registrations.
        let c = pool.register(PageBuf::placeholder());
        assert!(c == a || c == b);
    }

    #[test]
    #[should_panic(expected = "release of freed page")]
    fn pool_double_free_is_rejected() {
        let mut pool = PagePool::default();
        let a = pool.register(PageBuf::placeholder());
        pool.release(a);
        pool.release(a);
    }

    fn tiny_cfg(budget: usize) -> PrefixCacheConfig {
        PrefixCacheConfig {
            page_budget: budget,
            pages_per_block: 2,
        }
    }

    fn supplier(n: usize) -> impl FnMut(usize) -> Vec<PageRef> {
        move |_| (0..n).map(|_| PageBuf::placeholder()).collect()
    }

    /// Commit then match: full-block hits, the final-token cap, and the
    /// boundary block all behave.
    #[test]
    fn match_caps_and_covers_boundary() {
        let mut pc = PrefixCache::new(tiny_cfg(usize::MAX));
        let prompt: Vec<u32> = (0..40).collect();
        let mut grant = Vec::new();
        pc.commit(&prompt, supplier(2), &mut grant);
        assert_eq!(pc.stats().committed_blocks, 2, "40 tokens = 2 full blocks");
        assert_eq!(grant.len(), 4);

        // Identical prompt: raw lcp is the 32 committed positions.
        let m = pc.match_prompt(&prompt);
        assert_eq!(m.matched, 32);
        assert_eq!(m.blocks.len(), 2);

        // A 30-token prefix prompt: capped to 29, needing a boundary
        // block (block 1, positions 16..29).
        let m = pc.match_prompt(&prompt[..30]);
        assert_eq!(m.matched, 29);
        assert_eq!(m.blocks.len(), 2);

        // Divergence mid-block: raw lcp 20.
        let mut q: Vec<u32> = (0..40).collect();
        q[20] = 999;
        let m = pc.match_prompt(&q);
        assert_eq!(m.matched, 20);
        assert_eq!(m.blocks.len(), 2);

        // Total miss.
        let m = pc.match_prompt(&[500, 501, 502]);
        assert_eq!(m.matched, 0);
        assert!(m.blocks.is_empty());

        pc.release_grant(&mut grant);
        pc.flush();
        assert!(pc.ledger_balanced());
    }

    /// Committing a prompt whose prefix is already in the tree only adds
    /// the divergent suffix blocks.
    #[test]
    fn commit_is_deduplicated_against_existing_blocks() {
        let mut pc = PrefixCache::new(tiny_cfg(usize::MAX));
        let a: Vec<u32> = (0..32).collect();
        let mut b: Vec<u32> = (0..48).collect();
        b[40] = 777; // diverges inside block 2 only
        let (mut ga, mut gb) = (Vec::new(), Vec::new());
        pc.commit(&a, supplier(2), &mut ga);
        pc.commit(&b, supplier(2), &mut gb);
        assert_eq!(pc.stats().committed_blocks, 3, "blocks 0,1 shared; 2 new");
        assert_eq!(gb.len(), 2, "second committer only holds its new block");
        pc.release_grant(&mut ga);
        pc.release_grant(&mut gb);
        pc.flush();
        assert!(pc.ledger_balanced());
    }

    /// LRU eviction is deterministic, leaf-only, and skips pages still
    /// referenced by a resident sequence.
    #[test]
    fn eviction_is_lru_leaf_only_and_respects_refs() {
        let mut pc = PrefixCache::new(tiny_cfg(4));
        let cold: Vec<u32> = (100..132).collect(); // 2 blocks
        let hot: Vec<u32> = (200..232).collect(); // 2 blocks
        let (mut gc, mut gh) = (Vec::new(), Vec::new());
        pc.commit(&cold, supplier(2), &mut gc);
        pc.commit(&hot, supplier(2), &mut gh);
        assert_eq!(pc.pool().live(), 8);
        // Both grants outstanding: over budget but nothing evictable.
        assert_eq!(pc.stats().evicted_pages, 0);
        // Release the cold sequence entirely. Budget 4: the cold chain
        // (2 blocks * 2 pages) must go, leaf first then its newly
        // exposed parent; the hot chain survives both because it is
        // newer and because its pages are still granted.
        pc.release_grant(&mut gc);
        assert_eq!(pc.stats().evicted_pages, 4);
        assert_eq!(pc.pool().live(), 4);
        let m = pc.match_prompt(&cold);
        assert_eq!(m.matched, 0, "cold prefix evicted");
        let m = pc.match_prompt(&hot);
        assert_eq!(m.matched, 31, "hot prefix intact");
        pc.release_grant(&mut gh);
        pc.flush();
        assert!(pc.ledger_balanced());
    }

    /// Flush drops every tree reference exactly once even with grants
    /// outstanding (the chip-death ordering releases grants first, but
    /// the ledger must stay consistent either way).
    #[test]
    fn flush_releases_tree_refs_exactly_once() {
        let mut pc = PrefixCache::new(tiny_cfg(usize::MAX));
        let prompt: Vec<u32> = (0..32).collect();
        let mut grant = Vec::new();
        pc.commit(&prompt, supplier(2), &mut grant);
        pc.flush();
        assert_eq!(pc.pool().live(), 4, "grants still hold the pages");
        assert!(!pc.ledger_balanced());
        pc.release_grant(&mut grant);
        assert!(pc.ledger_balanced());
        // Double release of a drained grant is a no-op.
        pc.release_grant(&mut grant);
        assert!(pc.ledger_balanced());
    }

    /// Oracle for the radix tree: committed block-aligned strings in a
    /// `BTreeMap`; expected raw lcp is the max over stored strings.
    fn model_lcp(model: &BTreeMap<Vec<u32>, ()>, q: &[u32]) -> usize {
        model
            .keys()
            .map(|s| s.iter().zip(q).take_while(|(a, b)| a == b).count())
            .max()
            .unwrap_or(0)
    }

    proptest! {
        /// The tree's match always agrees with the BTreeMap model: for
        /// any interleaving of commits and lookups over a tiny alphabet
        /// (maximizing shared prefixes), `matched` equals the model lcp
        /// capped at `len - 1`, and the covering blocks are returned.
        #[test]
        fn tree_matches_btreemap_model(
            ops in proptest::collection::vec(
                (proptest::collection::vec(0u32..3, 0..70), any::<bool>()),
                1..24,
            )
        ) {
            let mut pc = PrefixCache::new(tiny_cfg(usize::MAX));
            let mut model: BTreeMap<Vec<u32>, ()> = BTreeMap::new();
            let mut grants: Vec<Vec<u32>> = Vec::new();
            for (prompt, is_commit) in &ops {
                if *is_commit {
                    let mut g = Vec::new();
                    pc.commit(prompt, supplier(2), &mut g);
                    grants.push(g);
                    let aligned = prompt.len() / BLOCK_POSITIONS * BLOCK_POSITIONS;
                    if aligned > 0 {
                        model.insert(prompt[..aligned].to_vec(), ());
                    }
                } else {
                    let m = pc.match_prompt(prompt);
                    let want = model_lcp(&model, prompt)
                        .min(prompt.len().saturating_sub(1));
                    prop_assert_eq!(m.matched, want, "prompt {:?}", prompt);
                    prop_assert_eq!(
                        m.blocks.len(),
                        want.div_ceil(BLOCK_POSITIONS),
                        "covering blocks"
                    );
                    prop_assert!(
                        m.blocks.iter().all(|b| b.len() == 2),
                        "page set width"
                    );
                }
            }
            // Drain everything: the ledger must balance exactly.
            for mut g in grants {
                pc.release_grant(&mut g);
            }
            pc.flush();
            prop_assert!(pc.ledger_balanced());
            let s = pc.pool().stats();
            prop_assert_eq!(s.registered, s.freed);
        }

        /// Under a tight budget with all grants released, eviction keeps
        /// the pool within budget whenever it can, the same ops replay to
        /// the same stats (determinism), and the ledger still balances.
        #[test]
        fn eviction_is_deterministic_and_ledger_balances(
            prompts in proptest::collection::vec(
                proptest::collection::vec(0u32..3, 16..64),
                1..12,
            ),
            budget in 2usize..10,
        ) {
            let run = |prompts: &[Vec<u32>], budget: usize| {
                let mut pc = PrefixCache::new(tiny_cfg(budget));
                for p in prompts {
                    let mut g = Vec::new();
                    pc.commit(p, supplier(2), &mut g);
                    pc.release_grant(&mut g);
                }
                let live = pc.pool().live();
                let stats = pc.stats();
                pc.flush();
                assert!(pc.ledger_balanced());
                (live, stats.evicted_pages, stats.committed_blocks)
            };
            let (live_a, evicted_a, committed_a) = run(&prompts, budget);
            let (live_b, evicted_b, committed_b) = run(&prompts, budget);
            prop_assert_eq!(live_a, live_b, "replay determinism: live");
            prop_assert_eq!(evicted_a, evicted_b, "replay determinism: evicted");
            prop_assert_eq!(committed_a, committed_b);
            // With every grant released only the tree holds refs, so the
            // budget is enforceable down to the budget itself.
            prop_assert!(live_a <= budget.max(2), "budget {} live {}", budget, live_a);
        }
    }
}
