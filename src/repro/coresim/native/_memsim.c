/* Native memory-hierarchy kernel: a C port of the memory-system simulator
 * (repro/memsim/_reference.py), built into the same shared library as
 * _core.c.
 *
 * Exactness contract: every per-step counter, the IPC series, the AMAT and
 * the cycle total must equal the Python memsim's bit for bit.  The pieces
 * that contract rests on:
 *
 *  - LRU/MRU victims come from per-cache ticks that are unique: the tick
 *    advances on every demand access and on every prefetch fill, including
 *    a fill that finds its line already present, so min/max never tie.
 *  - The SPP pattern table keeps each signature's deltas in insertion order,
 *    the order Python's max()/min() break ties by.
 *  - Latencies are int64 sums; AMAT, stall, cycle and confidence values are
 *    double operations in the Python order (-std=c99 keeps FP contraction
 *    off).
 *
 * Bugs arrive as data, the MemoryBugRecord of repro/memsim/hooks.py: per
 * level a no-age-update and an evict-MRU flag, per L1D/L2 a load-miss
 * (threshold, delay) pair, and three SPP switches.  The Python wrapper
 * (repro/memsim/native.py) rejects what this kernel cannot hold exactly:
 * addresses outside [0, 2**62), and latencies, delays, cache sizes in
 * lines and trace lengths past 2**31.
 *
 * Tables live in a caller-owned MemsimWorkspace (repro_memsim_workspace_new)
 * that outlives the call, so a page a run touches faults in once per
 * workspace, not once per call.  The cache tables are never cleared: each
 * level keeps its tick across runs, and a run reads every way whose age is
 * at or below the tick it started from (empty_at) as empty.  Ages only
 * grow, so LRU/MRU order among a run's own lines is what a zeroed table
 * gives.  The SPP page table and pattern rows are cleared at the start of
 * each SPP run; the delta arena is written before it is read. */

#define _DEFAULT_SOURCE  /* MAP_ANONYMOUS under -std=c99 */
#include <stddef.h>  /* offsetof */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#ifndef MAP_ANONYMOUS
#define MAP_ANONYMOUS MAP_ANON
#endif

typedef int64_t i64;
typedef uint64_t u64;
typedef uint8_t u8;

#define NUM_LEVELS 3
#define PAGE_SIZE 4096
#define SIGNATURE_MASK 0xFFF
#define NUM_SIGNATURES (SIGNATURE_MASK + 1)
#define SPP_MAX_DEPTH 4
#define SPP_CONFIDENCE_THRESHOLD 0.25
#define MLP_FACTOR 3.0
#define PATTERN_INITIAL 4
#define PAGES_INITIAL 1024

enum { PF_NONE = 0, PF_NEXT_LINE, PF_SPP };

/* Per-level statistics, in the order of ReplacementCache.stats(). */
enum {
    ST_ACCESSES = 0,
    ST_MISSES,
    ST_LOAD_MISSES,
    ST_EVICTIONS,
    ST_PREFETCH_FILLS,
    ST_USEFUL_PREFETCHES,
    NUM_STATS
};

/* Output columns of one sampled step, column-major in out_rows, in the
 * order of _COLUMN_NAMES in native.py (which sizes out_rows from it and
 * checks NUM_COLUMNS): three levels' stats, prefetches issued, then the
 * step's AMAT, accesses, instructions and stall cycles. */
enum {
    C_PREFETCHES_ISSUED = NUM_LEVELS * NUM_STATS,  /* 18 */
    C_AMAT,
    C_ACCESSES,
    C_INSTRUCTIONS,
    C_STALL_CYCLES,
    NUM_COLUMNS                                    /* 23 */
};

/* MemParams, one X(type, name, dims) per field (dims is empty for a
 * scalar).  The struct and its layout report (repro_memsim_layout) are both
 * expanded from this list. */
#define MEM_PARAMS(X) \
    X(i64, total, )             /* trace length */ \
    X(i64, warmup, )            /* leading uops that only warm the caches */ \
    X(i64, step, )              /* instructions per sampled step */ \
    X(i64, issue_width, ) \
    X(i64, dram_latency, ) \
    X(i64, prefetcher, )        /* PF_* */ \
    X(i64, degree, )            /* prefetch degree, at least 1 */ \
    X(i64, line_size, )         /* L1D line: next-line distance, SPP block size */ \
    X(i64, spp_signature_reset, ) \
    X(i64, spp_least_confident, ) \
    X(i64, spp_drop_every, )    /* 0 = off */ \
    X(i64, cache_sets, [NUM_LEVELS]) \
    X(i64, cache_assoc, [NUM_LEVELS]) \
    X(i64, cache_line_shift, [NUM_LEVELS]) \
    X(i64, cache_latency, [NUM_LEVELS]) \
    X(i64, no_age_update, [NUM_LEVELS]) \
    X(i64, evict_mru, [NUM_LEVELS]) \
    X(i64, load_miss_threshold, [2])  /* L1D, L2 */ \
    X(i64, load_miss_delay, [2])

#define DECLARE_FIELD(type, name, dims) type name dims;
typedef struct {
    MEM_PARAMS(DECLARE_FIELD)
} MemParams;

/* repro_memsim_layout's report, ended by a NULL name: each MemParams
 * field's name, C type, offset and size (value), then, with no type, the
 * struct's sizeof and NUM_COLUMNS. */
typedef struct { const char *name, *type; i64 offset, value; } LayoutEntry;
#define FIELD_ENTRY(type, name, dims) \
    {#name, #type, offsetof(MemParams, name), sizeof(((MemParams *)0)->name)},

const LayoutEntry *repro_memsim_layout(void) {
    static const LayoutEntry report[] = {
        MEM_PARAMS(FIELD_ENTRY)
        {"sizeof", NULL, 0, sizeof(MemParams)},
        {"NUM_COLUMNS", NULL, 0, NUM_COLUMNS},
        {NULL, NULL, 0, 0}
    };
    return report;
}

/* Each workspace table is its own anonymous mapping, mapped when a design
 * first needs it and kept until the workspace is freed: freeing hands the
 * pages straight back to the OS, and the host allocator's thresholds never
 * see a multi-megabyte block come and go. */
static void *map_zeroed(size_t bytes) {
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? NULL : p;
}

static void unmap(void *p, size_t bytes) {
    if (p != NULL) {
        munmap(p, bytes);
    }
}

/* ---------------------------------------------------------------------- */
/* ReplacementCache                                                        */
/* ---------------------------------------------------------------------- */

/* One level's tables in a workspace.  Tags, ages and prefetch flags are
 * three mappings, each grown on its own: were they one mapping split at
 * `lines`, a design with fewer lines would read old tags as fresh ages. */
typedef struct {
    i64 *tags;
    i64 *ages;        /* tick of the last age update */
    u8 *prefetched;   /* filled by a prefetch and not yet hit */
    i64 lines;        /* capacity of each array */
    i64 tick;         /* the level's tick when its last run ended */
} LevelTables;

typedef struct {
    i64 num_sets;
    i64 assoc;
    i64 line_shift;
    int age_on_hit;
    int evict_mru;
    i64 tick;
    i64 empty_at;     /* the tick the run started from: ages <= it are empty */
    i64 stats[NUM_STATS];
    i64 *tags;        /* num_sets * assoc */
    i64 *ages;
    u8 *prefetched;
} Cache;

/* Grows *t* to hold *lines* ways; returns -1 when memory runs out. */
static int tables_reserve(LevelTables *t, i64 lines) {
    i64 *tags, *ages;
    u8 *prefetched;
    if (lines <= t->lines) {
        return 0;
    }
    tags = (i64 *)map_zeroed((size_t)lines * sizeof(i64));
    ages = (i64 *)map_zeroed((size_t)lines * sizeof(i64));
    prefetched = (u8 *)map_zeroed((size_t)lines);
    if (tags == NULL || ages == NULL || prefetched == NULL) {
        unmap(tags, (size_t)lines * sizeof(i64));
        unmap(ages, (size_t)lines * sizeof(i64));
        unmap(prefetched, (size_t)lines);
        return -1;
    }
    unmap(t->tags, (size_t)t->lines * sizeof(i64));
    unmap(t->ages, (size_t)t->lines * sizeof(i64));
    unmap(t->prefetched, (size_t)t->lines);
    t->tags = tags;
    t->ages = ages;
    t->prefetched = prefetched;
    t->lines = lines;
    return 0;
}

static void tables_free(LevelTables *t) {
    unmap(t->tags, (size_t)t->lines * sizeof(i64));
    unmap(t->ages, (size_t)t->lines * sizeof(i64));
    unmap(t->prefetched, (size_t)t->lines);
}

static int cache_init(Cache *c, LevelTables *t, i64 sets, i64 assoc,
                      i64 line_shift, int age_on_hit, int evict_mru) {
    memset(c, 0, sizeof(*c));
    c->num_sets = sets;
    c->assoc = assoc;
    c->line_shift = line_shift;
    c->age_on_hit = age_on_hit;
    c->evict_mru = evict_mru;
    c->tick = t->tick;
    c->empty_at = t->tick;
    if (tables_reserve(t, sets * assoc) != 0) {
        return -1;
    }
    c->tags = t->tags;
    c->ages = t->ages;
    c->prefetched = t->prefetched;
    return 0;
}

/* Install *tag* at the current tick (the line is known to be absent). */
static void cache_insert(Cache *c, i64 base, i64 tag, int prefetch) {
    i64 *ages = c->ages + base;
    i64 victim = -1;
    i64 w;
    for (w = 0; w < c->assoc; w++) {
        if (ages[w] <= c->empty_at) {
            victim = w;
            break;
        }
    }
    if (victim < 0) {
        victim = 0;
        for (w = 1; w < c->assoc; w++) {
            if (c->evict_mru ? ages[w] > ages[victim] : ages[w] < ages[victim]) {
                victim = w;
            }
        }
        c->stats[ST_EVICTIONS] += 1;
    }
    c->tags[base + victim] = tag;
    ages[victim] = c->tick;
    c->prefetched[base + victim] = (u8)prefetch;
}

static i64 cache_find(const Cache *c, i64 base, i64 tag) {
    i64 w;
    for (w = 0; w < c->assoc; w++) {
        if (c->ages[base + w] > c->empty_at && c->tags[base + w] == tag) {
            return base + w;
        }
    }
    return -1;
}

/* Demand access; returns 1 on a hit and allocates the line on a miss. */
static int cache_access(Cache *c, i64 address, int is_load) {
    i64 line = address >> c->line_shift;
    i64 base = (line % c->num_sets) * c->assoc;
    i64 tag = line / c->num_sets;
    i64 way;
    c->tick += 1;
    c->stats[ST_ACCESSES] += 1;
    way = cache_find(c, base, tag);
    if (way >= 0) {
        if (c->age_on_hit) {
            c->ages[way] = c->tick;
        }
        if (c->prefetched[way]) {
            c->stats[ST_USEFUL_PREFETCHES] += 1;
            c->prefetched[way] = 0;
        }
        return 1;
    }
    c->stats[ST_MISSES] += 1;
    if (is_load) {
        c->stats[ST_LOAD_MISSES] += 1;
    }
    cache_insert(c, base, tag, 0);
    return 0;
}

static void cache_prefetch_fill(Cache *c, i64 address) {
    i64 line = address >> c->line_shift;
    i64 base = (line % c->num_sets) * c->assoc;
    i64 tag = line / c->num_sets;
    c->tick += 1;
    if (cache_find(c, base, tag) >= 0) {
        return;
    }
    c->stats[ST_PREFETCH_FILLS] += 1;
    cache_insert(c, base, tag, 1);
}

/* ---------------------------------------------------------------------- */
/* Signature Path Prefetcher                                               */
/* ---------------------------------------------------------------------- */

typedef struct {
    i64 key;        /* page + 1; 0 = empty slot */
    i64 signature;
    i64 block;
} PageEntry;

typedef struct {
    i64 delta;
    i64 count;
} DeltaEntry;

typedef struct {
    i64 offset;     /* first entry in the arena */
    i64 length;
    i64 capacity;
    i64 total;      /* sum of the counts */
} PatternRow;

typedef struct {
    /* page -> (signature, last block): open addressing, power-of-two size */
    PageEntry *pages;
    i64 page_capacity;
    i64 page_used;
    /* signature -> deltas in insertion order, each row a slice of the arena */
    PatternRow *rows;
    DeltaEntry *arena;
    i64 arena_used;
    i64 arena_capacity;
} Spp;

static size_t spp_arena_bytes(const Spp *s) {
    return (size_t)s->arena_capacity * sizeof(DeltaEntry);
}

/* Readies a workspace's SPP for a run of *accesses* demand accesses: maps
 * what is missing, grows the arena to the run's bound, and clears the page
 * table and the pattern rows.  The page table keeps any capacity an earlier
 * run grew it to (lookups go by key, never by slot); the arena is written
 * before it is read. */
static int spp_reset(Spp *s, i64 accesses) {
    /* Each row's slices double, so a row of k deltas has used at most
     * 2 * PATTERN_INITIAL + 4k arena entries, and every access adds at most
     * one delta: that bounds the arena without ever moving it. */
    i64 arena_needed = 2 * PATTERN_INITIAL * NUM_SIGNATURES + 4 * accesses;
    if (s->pages == NULL) {
        s->pages = (PageEntry *)map_zeroed(PAGES_INITIAL * sizeof(PageEntry));
        if (s->pages == NULL) {
            return -1;
        }
        s->page_capacity = PAGES_INITIAL;
    } else {
        memset(s->pages, 0, (size_t)s->page_capacity * sizeof(PageEntry));
    }
    if (s->rows == NULL) {
        s->rows = (PatternRow *)map_zeroed(NUM_SIGNATURES * sizeof(PatternRow));
        if (s->rows == NULL) {
            return -1;
        }
    } else {
        memset(s->rows, 0, NUM_SIGNATURES * sizeof(PatternRow));
    }
    if (s->arena_capacity < arena_needed) {
        unmap(s->arena, spp_arena_bytes(s));
        s->arena_capacity = arena_needed;
        s->arena = (DeltaEntry *)map_zeroed(spp_arena_bytes(s));
        if (s->arena == NULL) {
            s->arena_capacity = 0;
            return -1;
        }
    }
    s->page_used = 0;
    s->arena_used = 0;
    return 0;
}

static void spp_free(Spp *s) {
    unmap(s->pages, (size_t)s->page_capacity * sizeof(PageEntry));
    unmap(s->rows, NUM_SIGNATURES * sizeof(PatternRow));
    unmap(s->arena, spp_arena_bytes(s));
}

static PageEntry *spp_page_slot(PageEntry *pages, i64 capacity, i64 page) {
    u64 mask = (u64)capacity - 1;
    u64 slot = (((u64)page * 0x9E3779B97F4A7C15ull) >> 32) & mask;
    while (pages[slot].key != 0 && pages[slot].key != page + 1) {
        slot = (slot + 1) & mask;
    }
    return &pages[slot];
}

static int spp_grow_pages(Spp *s) {
    i64 capacity = s->page_capacity * 2;
    PageEntry *pages = (PageEntry *)map_zeroed((size_t)capacity * sizeof(PageEntry));
    i64 k;
    if (pages == NULL) {
        return -1;
    }
    for (k = 0; k < s->page_capacity; k++) {
        if (s->pages[k].key != 0) {
            *spp_page_slot(pages, capacity, s->pages[k].key - 1) = s->pages[k];
        }
    }
    unmap(s->pages, (size_t)s->page_capacity * sizeof(PageEntry));
    s->pages = pages;
    s->page_capacity = capacity;
    return 0;
}

static i64 advance_signature(i64 signature, i64 delta) {
    return ((signature << 3) ^ (i64)((u64)delta & 0x3F)) & SIGNATURE_MASK;
}

static void spp_update_pattern(Spp *s, i64 signature, i64 delta) {
    PatternRow *row = &s->rows[signature];
    DeltaEntry *entries = s->arena + row->offset;
    i64 k;
    row->total += 1;
    for (k = 0; k < row->length; k++) {
        if (entries[k].delta == delta) {
            entries[k].count += 1;
            return;
        }
    }
    if (row->length == row->capacity) {
        i64 capacity = row->capacity ? 2 * row->capacity : PATTERN_INITIAL;
        DeltaEntry *moved = s->arena + s->arena_used;
        if (row->length) {
            memcpy(moved, entries, (size_t)row->length * sizeof(DeltaEntry));
        }
        row->offset = s->arena_used;
        row->capacity = capacity;
        s->arena_used += capacity;
        entries = moved;
    }
    entries[row->length].delta = delta;
    entries[row->length].count = 1;
    row->length += 1;
}

/* _best_delta: the first most (or least) frequent delta in insertion order
 * and its confidence; returns 0 when the signature has no deltas. */
static int spp_best_delta(const Spp *s, i64 signature, int least,
                          i64 *delta, double *confidence) {
    const PatternRow *row = &s->rows[signature];
    const DeltaEntry *entries = s->arena + row->offset;
    i64 best = 0;
    i64 k;
    if (row->length == 0) {
        return 0;
    }
    for (k = 1; k < row->length; k++) {
        if (least ? entries[k].count < entries[best].count
                  : entries[k].count > entries[best].count) {
            best = k;
        }
    }
    *delta = entries[best].delta;
    *confidence = (double)entries[best].count / (double)row->total;
    return 1;
}

/* ---------------------------------------------------------------------- */
/* Hierarchy                                                               */
/* ---------------------------------------------------------------------- */

/* The caller-owned workspace: every table a run uses, kept across calls.
 * One call at a time may use it. */
typedef struct {
    LevelTables levels[NUM_LEVELS];
    Spp spp;
} MemsimWorkspace;

MemsimWorkspace *repro_memsim_workspace_new(void) {
    return (MemsimWorkspace *)calloc(1, sizeof(MemsimWorkspace));
}

void repro_memsim_workspace_free(MemsimWorkspace *ws) {
    int level;
    if (ws == NULL) {
        return;
    }
    for (level = 0; level < NUM_LEVELS; level++) {
        tables_free(&ws->levels[level]);
    }
    spp_free(&ws->spp);
    free(ws);
}

typedef struct {
    const MemParams *P;
    Cache levels[NUM_LEVELS];
    Spp *spp;
    i64 issued;     /* prefetches issued (the prefetcher's `issued`) */
    i64 marked;     /* SPP prefetches marked executed but dropped */
    int out_of_memory;
} Hierarchy;

static void prefetch(Hierarchy *h, i64 address) {
    cache_prefetch_fill(&h->levels[1], address);
    cache_prefetch_fill(&h->levels[2], address);
}

/* SignaturePathPrefetcher.observe, with each request filled as it is made
 * (the prefetcher never reads the caches, so the order is the same). */
static void spp_observe(Hierarchy *h, i64 address) {
    const MemParams *P = h->P;
    Spp *s = h->spp;
    i64 page = address / PAGE_SIZE;
    i64 block = (address % PAGE_SIZE) / P->line_size;
    i64 blocks_per_page = PAGE_SIZE / P->line_size;
    PageEntry *entry = spp_page_slot(s->pages, s->page_capacity, page);
    i64 signature = 0;
    double path_confidence = 1.0;
    i64 lookahead_signature, lookahead_block, requests = 0;
    int depth;

    if (entry->key != 0) {
        i64 delta = block - entry->block;
        signature = entry->signature;
        if (delta != 0) {
            spp_update_pattern(s, signature, delta);
            signature = advance_signature(signature, delta);
        }
    } else {
        if (2 * (s->page_used + 1) > s->page_capacity) {
            if (spp_grow_pages(s) != 0) {
                h->out_of_memory = 1;
                return;
            }
            entry = spp_page_slot(s->pages, s->page_capacity, page);
        }
        entry->key = page + 1;
        s->page_used += 1;
    }
    if (P->spp_signature_reset) {
        signature = 0;
    }
    entry->signature = signature;
    entry->block = block;

    lookahead_signature = signature;
    lookahead_block = block;
    for (depth = 0; depth < SPP_MAX_DEPTH; depth++) {
        i64 delta;
        double confidence;
        if (!spp_best_delta(s, lookahead_signature, (int)P->spp_least_confident,
                            &delta, &confidence)) {
            break;
        }
        path_confidence *= confidence;
        if (path_confidence < SPP_CONFIDENCE_THRESHOLD) {
            break;
        }
        lookahead_block += delta;
        if (!(0 <= lookahead_block && lookahead_block < blocks_per_page)) {
            break;
        }
        if (P->spp_drop_every && (h->issued + h->marked) % P->spp_drop_every == 0) {
            h->marked += 1;
        } else {
            prefetch(h, page * PAGE_SIZE + lookahead_block * P->line_size);
            h->issued += 1;
            requests += 1;
        }
        lookahead_signature = advance_signature(lookahead_signature, delta);
        if (requests >= P->degree) {
            break;
        }
    }
}

/* MemoryHierarchySim._access: the demand access's latency in cycles. */
static i64 demand_access(Hierarchy *h, i64 address, int is_load) {
    const MemParams *P = h->P;
    i64 latency = P->cache_latency[0];
    if (!cache_access(&h->levels[0], address, is_load)) {
        latency += P->cache_latency[1];
        if (is_load &&
            h->levels[0].stats[ST_LOAD_MISSES] > P->load_miss_threshold[0]) {
            latency += P->load_miss_delay[0];
        }
        if (!cache_access(&h->levels[1], address, is_load)) {
            latency += P->cache_latency[2];
            if (is_load &&
                h->levels[1].stats[ST_LOAD_MISSES] > P->load_miss_threshold[1]) {
                latency += P->load_miss_delay[1];
            }
            if (!cache_access(&h->levels[2], address, is_load)) {
                latency += P->dram_latency;
            }
        }
    }
    if (P->prefetcher == PF_NEXT_LINE) {
        i64 k;
        for (k = 1; k <= P->degree; k++) {
            prefetch(h, address + k * P->line_size);
        }
        h->issued += P->degree;
    } else if (P->prefetcher == PF_SPP) {
        spp_observe(h, address);
    }
    return latency;
}

static void snapshot(const Hierarchy *h, i64 *stats) {
    int level, k;
    for (level = 0; level < NUM_LEVELS; level++) {
        for (k = 0; k < NUM_STATS; k++) {
            stats[level * NUM_STATS + k] = h->levels[level].stats[k];
        }
    }
    stats[C_PREFETCHES_ISSUED] = h->issued;
}

/* ---------------------------------------------------------------------- */
/* The run loop: MemoryHierarchySim.run                                   */
/* ---------------------------------------------------------------------- */

typedef struct {
    i64 previous[C_PREFETCHES_ISSUED + 1];
    double latency;
    i64 accesses;
    i64 instructions;
    i64 rows;
} Step;

/* One sampled step; returns -1 when out_rows has no room left. */
static int flush_step(const Hierarchy *h, Step *st, double *out_rows,
                      double *out_ipc, i64 max_rows) {
    const MemParams *P = h->P;
    i64 current[C_PREFETCHES_ISSUED + 1];
    i64 r = st->rows;
    i64 l1_latency = P->cache_latency[0];
    double amat, stall, cycles;
    int k;
    if (r >= max_rows) {
        return -1;
    }
    snapshot(h, current);
    for (k = 0; k <= C_PREFETCHES_ISSUED; k++) {
        out_rows[k * max_rows + r] = (double)(current[k] - st->previous[k]);
        st->previous[k] = current[k];
    }
    amat = st->accesses ? st->latency / (double)st->accesses : (double)l1_latency;
    stall = st->latency - (double)(st->accesses * l1_latency);
    if (!(stall > 0.0)) {
        stall = 0.0;
    }
    cycles = (double)st->instructions / (double)P->issue_width + stall / MLP_FACTOR;
    out_rows[C_AMAT * max_rows + r] = amat;
    out_rows[C_ACCESSES * max_rows + r] = (double)st->accesses;
    out_rows[C_INSTRUCTIONS * max_rows + r] = (double)st->instructions;
    out_rows[C_STALL_CYCLES * max_rows + r] = stall;
    out_ipc[r] = cycles > 0.0 ? (double)st->instructions / cycles : 0.0;
    st->latency = 0.0;
    st->accesses = 0;
    st->instructions = 0;
    st->rows = r + 1;
    return 0;
}

static i64 floordiv(i64 a, i64 b) {
    i64 q = a / b;
    return (a % b != 0 && ((a < 0) != (b < 0))) ? q - 1 : q;
}

/* Returns 0 on success, 2 when memory runs out, 3 when max_rows is too
 * small.  out_rows is NUM_COLUMNS x max_rows (column-major); out_totals
 * receives [total latency, per-access cycle sum], out_counts
 * [rows, total accesses].  *ws* holds the tables and keeps them for the
 * next call. */
int repro_memsim(const MemParams *P,
                 const u8 *has_address,
                 const i64 *address,
                 const u8 *is_load,
                 double *out_rows,
                 double *out_ipc,
                 i64 max_rows,
                 double *out_totals,
                 i64 *out_counts,
                 MemsimWorkspace *ws) {
    Hierarchy h;
    Step st;
    i64 i, accesses = 0;
    double total_latency = 0.0, total_cycles = 0.0;
    i64 total_accesses = 0;
    i64 l1_latency = P->cache_latency[0];
    int level, ready, rc = 0;

    memset(&h, 0, sizeof(h));
    h.P = P;
    h.spp = &ws->spp;
    for (ready = 0; ready < NUM_LEVELS; ready++) {
        if (cache_init(&h.levels[ready], &ws->levels[ready], P->cache_sets[ready],
                       P->cache_assoc[ready], P->cache_line_shift[ready],
                       !P->no_age_update[ready], (int)P->evict_mru[ready]) != 0) {
            rc = 2;
            goto done;
        }
    }
    if (P->prefetcher == PF_SPP) {
        for (i = 0; i < P->total; i++) {
            accesses += has_address[i];
        }
        if (spp_reset(h.spp, accesses) != 0) {
            rc = 2;
            goto done;
        }
    }

    for (i = 0; i < P->warmup && !h.out_of_memory; i++) {
        if (has_address[i]) {
            demand_access(&h, address[i], is_load[i]);
        }
    }
    for (level = 0; level < NUM_LEVELS; level++) {
        memset(h.levels[level].stats, 0, sizeof(h.levels[level].stats));
    }

    memset(&st, 0, sizeof(st));
    snapshot(&h, st.previous);
    for (i = P->warmup; i < P->total && !h.out_of_memory; i++) {
        st.instructions += 1;
        if (has_address[i]) {
            i64 latency = demand_access(&h, address[i], is_load[i]);
            i64 beyond_l1 = latency - l1_latency;
            st.latency += (double)latency;
            st.accesses += 1;
            total_latency += (double)latency;
            total_accesses += 1;
            total_cycles += (beyond_l1 > 0 ? (double)beyond_l1 : 0.0) / MLP_FACTOR;
        }
        if (st.instructions >= P->step &&
            flush_step(&h, &st, out_rows, out_ipc, max_rows) != 0) {
            rc = 3;
            goto done;
        }
    }
    if (h.out_of_memory) {
        rc = 2;
        goto done;
    }
    /* The tail: a step at least half full, then at least one row. */
    if (st.instructions >= floordiv(P->step, 2) &&
        flush_step(&h, &st, out_rows, out_ipc, max_rows) != 0) {
        rc = 3;
        goto done;
    }
    if (st.rows == 0 && flush_step(&h, &st, out_rows, out_ipc, max_rows) != 0) {
        rc = 3;
        goto done;
    }
    out_totals[0] = total_latency;
    out_totals[1] = total_cycles;
    out_counts[0] = st.rows;
    out_counts[1] = total_accesses;

done:
    /* Every level that started a run hands its tick on to the next one, so
     * what this run wrote reads as empty there. */
    for (level = 0; level < ready; level++) {
        ws->levels[level].tick = h.levels[level].tick;
    }
    return rc;
}
