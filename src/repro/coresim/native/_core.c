/* Native simulation kernel: a C port of the optimized scalar O3 cycle loop
 * (repro/coresim/pipeline.py), for every core bug model.
 *
 * Bit-identity contract: every counter value, the final cycle count, and the
 * sampling boundaries must match the scalar pipeline exactly.  The Python
 * wrapper feeds DecodedTrace columns in as flat arrays and replays the
 * emitted cumulative counter rows through the real TimeSeriesSampler, so any
 * divergence here is caught by the differential oracle.
 *
 * Bugs arrive as data, the BugRecord of repro/coresim/hooks.py: one flag
 * byte per uop (serialising, issue-only-if-oldest, oldest-blocks-others,
 * dependency consumer/producer opcode), one extra-delay column, and the
 * SimParams scalars below (IQ/ROB free-slot thresholds and delays, the
 * dependency delay, the redirect penalty, per-level cache latencies).
 * Uops whose operands are ready wake through a calendar ring at their
 * dispatch cycle + 1 + extra delay.  As in the scalar pipeline, dispatch
 * stops behind a serialising uop until it completes, so the issue stage
 * never sees a younger one.
 *
 * Structural consequences used throughout: seq == trace index, the ROB is
 * the contiguous index range [n_committed, n_dispatched), the fetch queue is
 * [n_dispatched, n_fetched), and the store queue is the store-ordinal range
 * [stores_committed, stores_dispatched).  Store-to-load forwarding reduces
 * to "the last earlier store to this address has not committed yet", which a
 * setup pass precomputes per load. */

#define _DEFAULT_SOURCE  /* MAP_ANONYMOUS under -std=c99 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#ifndef MAP_ANONYMOUS
#define MAP_ANONYMOUS MAP_ANON
#endif

typedef int64_t i64;
typedef uint64_t u64;
typedef int32_t i32;
typedef int8_t i8;
typedef uint8_t u8;

enum {
    CLS_INT_ALU = 0,
    CLS_INT_MULT,
    CLS_INT_DIV,
    CLS_FP_ALU,
    CLS_FP_MULT,
    CLS_FP_DIV,
    CLS_VECTOR,
    CLS_LOAD,
    CLS_STORE,
    CLS_BRANCH,
    NUM_CLASSES
};

#define HISTORY_MASK 0xFFF
#define MAX_LEVELS 3

/* Per-uop bug flag bits (kernel.py packs them from the BugRecord). */
enum {
    F_SERIALIZE = 1,
    F_ONLY_OLDEST = 2,
    F_OLDEST_BLOCKS = 4,
    F_DEP_CONSUMER = 8,
    F_DEP_PRODUCER = 16
};

/* Counter slot layout.  Must match _SLOT_NAMES in kernel.py: slots 0..38 are
 * the lazily-created pipeline counters (emitted to Python only when their
 * cumulative value is nonzero, mirroring the scalar dict), 39..54 are the
 * always-present occupancy / branch-predictor / cache stats. */
enum {
    S_COMMIT_INSTR = 0,
    S_COMMIT_REGW,
    S_COMMIT_BR,
    S_COMMIT_LD,
    S_COMMIT_ST,
    S_COMMIT_FP,
    S_COMMIT_IDLE,
    S_COMMIT_MAXW,
    S_WRITEBACK,
    S_ISSUE_INSTR,
    S_ISSUE_EMPTY,
    S_ISSUE_STALL,
    S_ISSUE_MAXW,
    S_ISSUE_CONFLICTS,
    S_DISP_INSTR,
    S_DISP_STALL,
    S_DISP_SERIALIZING,
    S_DISP_SERIALIZED,
    S_DISP_ROBFULL,
    S_DISP_IQFULL,
    S_DISP_LSQFULL,
    S_RENAME_STALL,
    S_BUG_DELAY,
    S_FETCH_INSTR,
    S_FETCH_BR,
    S_FETCH_MISPRED,
    S_FETCH_STALL,
    S_FETCH_ACTIVE,
    S_LSQ_FWD,
    S_ISSUE_CLASS0,       /* 29..38: issue.class.<OpClass> by class value */
    S_ROB_OCC = S_ISSUE_CLASS0 + NUM_CLASSES,  /* 39 */
    S_IQ_OCC,
    S_LSQ_OCC,
    S_BP_LOOKUPS,
    S_BP_MISPRED,
    S_BP_DIR_MISPRED,
    S_BP_IND_LOOKUPS,
    S_BP_IND_MISPRED,
    S_BP_BTB_LOOKUPS,
    S_BP_BTB_HITS,
    S_L1_ACC,
    S_L1_MISS,
    S_L2_ACC,
    S_L2_MISS,
    S_L3_ACC,
    S_L3_MISS,
    NUM_SLOTS             /* 55 */
};

#define N_PIPE_SLOTS (S_ISSUE_CLASS0 + NUM_CLASSES)  /* 39 */

/* Mirror of the ctypes SimParams structure in kernel.py (field order and
 * types must match exactly; everything is int64 to avoid padding games). */
typedef struct {
    i64 total;             /* trace length */
    i64 width;
    i64 rob_size;
    i64 iq_size;
    i64 lsq_size;
    i64 fetch_capacity;
    i64 free_regs;         /* initial free rename registers */
    i64 num_regs;          /* register namespace size for producer table */
    i64 step_cycles;
    i64 max_cycles;
    i64 warmup;
    i64 num_ports;
    i64 num_levels;        /* 2 or 3 cache levels */
    i64 memory_latency;
    i64 l1_line_size;
    i64 bp_table_entries;  /* post-bug, post-clamp */
    i64 btb_entries;
    i64 indirect_sets;
    i64 redirect_penalty;  /* base 4 plus the bug's mispredict penalty */
    i64 iq_free_below;     /* IQ pressure: delay when free slots < this */
    i64 iq_delay;
    i64 rob_free_below;    /* ROB pressure: delay when free slots < this */
    i64 rob_delay;
    i64 dep_delay;         /* consumer with an in-flight producer opcode */
    i64 wake_span;         /* > largest extra issue delay + 1 */
    i64 latency_by_class[NUM_CLASSES];
    i64 cp_offset[NUM_CLASSES + 1];  /* class -> range in class_ports_flat */
    i64 cache_sets[MAX_LEVELS];
    i64 cache_assoc[MAX_LEVELS];
    i64 cache_line_shift[MAX_LEVELS];
    i64 cache_latency[MAX_LEVELS];  /* L2 includes the bug's extra latency */
} SimParams;

/* Python-compatible modulo / floor division (operands may be negative). */
static inline i64 pymod(i64 a, i64 b) {
    i64 r = a % b;
    return r < 0 ? r + b : r;
}

static inline i64 pyfloordiv(i64 a, i64 b) {
    i64 q = a / b;
    if ((a % b) != 0 && ((a < 0) != (b < 0))) {
        q -= 1;
    }
    return q;
}

/* Zeroed arrays straight from mmap: untouched pages never become resident,
 * and unmapping them leaves the host allocator's thresholds alone (a freed
 * large calloc would raise glibc's mmap threshold, so the next run's arrays
 * would come from the heap with every page resident). */
static i64 *map_zeroed(i64 count) {
    void *p = mmap(NULL, (size_t)count * sizeof(i64), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? NULL : (i64 *)p;
}

static void unmap(i64 *p, i64 count) {
    if (p != NULL) {
        munmap(p, (size_t)count * sizeof(i64));
    }
}

/* ---------------------------------------------------------------------- */
/* Cache hierarchy (exact port of repro/coresim/caches.py)                */
/* ---------------------------------------------------------------------- */

typedef struct {
    i64 num_sets;
    i64 assoc;
    i64 line_shift;
    i64 latency;
    i64 tick;       /* LRU clock; per-way tick 0 means invalid */
    i64 accesses;
    i64 misses;
    i64 *tags;      /* num_sets * assoc */
    i64 *ticks;     /* num_sets * assoc */
} CacheLevel;

static int cache_lookup(CacheLevel *c, i64 address) {
    i64 line = address >> c->line_shift;
    i64 set = pymod(line, c->num_sets);
    i64 tag = pyfloordiv(line, c->num_sets);
    i64 *tags = c->tags + set * c->assoc;
    i64 *ticks = c->ticks + set * c->assoc;
    i64 ways = c->assoc;
    i64 w;
    c->tick += 1;
    c->accesses += 1;
    for (w = 0; w < ways; w++) {
        if (ticks[w] != 0 && tags[w] == tag) {
            ticks[w] = c->tick;
            return 1;
        }
    }
    c->misses += 1;
    /* Install: first invalid way, else evict the least-recently-used way
     * (unique ticks make the python min() tie-break irrelevant). */
    {
        i64 victim = -1;
        for (w = 0; w < ways; w++) {
            if (ticks[w] == 0) {
                victim = w;
                break;
            }
        }
        if (victim < 0) {
            victim = 0;
            for (w = 1; w < ways; w++) {
                if (ticks[w] < ticks[victim]) {
                    victim = w;
                }
            }
        }
        tags[victim] = tag;
        ticks[victim] = c->tick;
    }
    return 0;
}

static void cache_fill(CacheLevel *c, i64 address) {
    i64 line = address >> c->line_shift;
    i64 set = pymod(line, c->num_sets);
    i64 tag = pyfloordiv(line, c->num_sets);
    i64 *tags = c->tags + set * c->assoc;
    i64 *ticks = c->ticks + set * c->assoc;
    i64 ways = c->assoc;
    i64 w;
    c->tick += 1;
    for (w = 0; w < ways; w++) {
        if (ticks[w] != 0 && tags[w] == tag) {
            ticks[w] = c->tick;
            return;
        }
    }
    {
        i64 victim = -1;
        for (w = 0; w < ways; w++) {
            if (ticks[w] == 0) {
                victim = w;
                break;
            }
        }
        if (victim < 0) {
            victim = 0;
            for (w = 1; w < ways; w++) {
                if (ticks[w] < ticks[victim]) {
                    victim = w;
                }
            }
        }
        tags[victim] = tag;
        ticks[victim] = c->tick;
    }
}

typedef struct {
    CacheLevel levels[MAX_LEVELS];
    i64 num_levels;
    i64 memory_latency;
    i64 l1_line_size;
} Hierarchy;

/* Static-latency access path: L1 hit short-circuits; every L1 miss
 * triggers the next-line prefetch into all levels (hit_level is never 1
 * after an L1 miss, matching the python `hit_level != 1` condition). */
static i64 cache_access(Hierarchy *h, i64 address) {
    i64 latency = h->levels[0].latency;
    i64 hit_level = 0;
    i64 k;
    if (cache_lookup(&h->levels[0], address)) {
        return latency;
    }
    for (k = 1; k < h->num_levels; k++) {
        latency += h->levels[k].latency;
        if (cache_lookup(&h->levels[k], address)) {
            hit_level = k + 1;
            break;
        }
    }
    if (hit_level == 0) {
        latency += h->memory_latency;
    }
    {
        i64 next_line = address + h->l1_line_size;
        for (k = 0; k < h->num_levels; k++) {
            cache_fill(&h->levels[k], next_line);
        }
    }
    return latency;
}

/* ---------------------------------------------------------------------- */
/* Branch predictor (exact port of repro/coresim/branch.py)               */
/* ---------------------------------------------------------------------- */

typedef struct {
    i64 capacity;   /* btb_entries */
    i64 size;
    i64 tail;       /* monotonic insert counter; slot = tail % capacity */
    i64 nbuckets;   /* power of two */
    i64 shift;      /* 64 - log2(nbuckets) */
    i64 *pc;        /* capacity */
    i64 *target;    /* capacity */
    i32 *next;      /* chain next node, -1 terminates */
    i32 *bucket;    /* nbuckets bucket heads, -1 empty */
} Btb;

static inline i64 btb_bucket(const Btb *b, i64 pc) {
    return (i64)(((u64)pc * 0x9E3779B97F4A7C15ULL) >> b->shift);
}

static i32 btb_find(const Btb *b, i64 pc) {
    i32 node = b->bucket[btb_bucket(b, pc)];
    while (node >= 0) {
        if (b->pc[node] == pc) {
            return node;
        }
        node = b->next[node];
    }
    return -1;
}

static void btb_unlink(Btb *b, i32 node) {
    i64 bk = btb_bucket(b, b->pc[node]);
    i32 cur = b->bucket[bk];
    if (cur == node) {
        b->bucket[bk] = b->next[node];
        return;
    }
    while (cur >= 0) {
        if (b->next[cur] == node) {
            b->next[cur] = b->next[node];
            return;
        }
        cur = b->next[cur];
    }
}

/* dict-ordered update: an existing pc keeps its insertion position; a new
 * pc evicts the oldest entry when full (python pops the first dict key,
 * which under insert-order-preserving eviction is exactly FIFO). */
static void btb_update(Btb *b, i64 pc, i64 target) {
    i32 node = btb_find(b, pc);
    i64 slot;
    if (node >= 0) {
        b->target[node] = target;
        return;
    }
    slot = b->tail % b->capacity;
    if (b->size >= b->capacity) {
        btb_unlink(b, (i32)slot);
    } else {
        b->size += 1;
    }
    b->pc[slot] = pc;
    b->target[slot] = target;
    b->next[slot] = b->bucket[btb_bucket(b, pc)];
    b->bucket[btb_bucket(b, pc)] = (i32)slot;
    b->tail += 1;
}

typedef struct {
    i64 table_entries;
    i64 indirect_sets;
    i64 history;
    u8 *counters;     /* table_entries, init 2 (weakly taken) */
    i64 *ind_target;  /* indirect_sets */
    u8 *ind_valid;    /* indirect_sets */
    Btb btb;
    i64 lookups;
    i64 mispredicts;
    i64 dir_mispredicts;
    i64 ind_lookups;
    i64 ind_mispredicts;
    i64 btb_lookups;
    i64 btb_hits;
} Bp;

/* predict_and_update for a branch-class uop with a known direction.
 * Returns 1 on mispredict.  Quirk preserved from branch.py: the indirect
 * *update* key is computed with the post-update history (the history shifts
 * before _update_target runs), while the lookup key used the old history. */
static int bp_predict_update(Bp *bp, i64 pc, int taken, i64 target,
                             int has_target, int indirect) {
    i64 index = pymod((pc >> 2) ^ bp->history, bp->table_entries);
    int counter;
    int predicted_taken;
    i64 pt_value = 0;
    int pt_valid = 0;
    int mispredicted;
    bp->lookups += 1;
    counter = bp->counters[index];
    predicted_taken = counter >= 2;
    if (predicted_taken) {
        if (indirect) {
            i64 key = pymod((pc >> 2) ^ bp->history, bp->indirect_sets);
            bp->ind_lookups += 1;
            if (bp->ind_valid[key]) {
                pt_valid = 1;
                pt_value = bp->ind_target[key];
            }
        } else {
            i32 node;
            bp->btb_lookups += 1;
            node = btb_find(&bp->btb, pc);
            if (node >= 0) {
                bp->btb_hits += 1;
                pt_valid = 1;
                pt_value = bp->btb.target[node];
            }
        }
    }
    mispredicted = (predicted_taken != taken);
    if (mispredicted) {
        bp->dir_mispredicts += 1;
    } else if (taken &&
               !(pt_valid == has_target && (!pt_valid || pt_value == target))) {
        mispredicted = 1;
        if (indirect) {
            bp->ind_mispredicts += 1;
        }
    }
    if (taken) {
        if (counter < 3) {
            bp->counters[index] = (u8)(counter + 1);
        }
    } else if (counter > 0) {
        bp->counters[index] = (u8)(counter - 1);
    }
    bp->history = ((bp->history << 1) | (i64)taken) & HISTORY_MASK;
    if (taken && has_target) {
        if (indirect) {
            i64 key = pymod((pc >> 2) ^ bp->history, bp->indirect_sets);
            bp->ind_target[key] = target;
            bp->ind_valid[key] = 1;
        } else {
            btb_update(&bp->btb, pc, target);
        }
    }
    if (mispredicted) {
        bp->mispredicts += 1;
    }
    return mispredicted;
}

/* ---------------------------------------------------------------------- */
/* Ready heap (min-heap of uop indices == program order == seq order)     */
/* ---------------------------------------------------------------------- */

static void heap_push(i32 *heap, i64 *size, i32 value) {
    i64 i = (*size)++;
    while (i > 0) {
        i64 parent = (i - 1) >> 1;
        if (heap[parent] <= value) {
            break;
        }
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = value;
}

static i32 heap_pop(i32 *heap, i64 *size) {
    i32 top = heap[0];
    i32 last = heap[--(*size)];
    i64 n = *size;
    i64 i = 0;
    for (;;) {
        i64 child = 2 * i + 1;
        if (child >= n) {
            break;
        }
        if (child + 1 < n && heap[child + 1] < heap[child]) {
            child += 1;
        }
        if (heap[child] >= last) {
            break;
        }
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = last;
    return top;
}

/* ---------------------------------------------------------------------- */
/* Store-map hash: address -> ordinal of the last store seen so far       */
/* ---------------------------------------------------------------------- */

typedef struct {
    i64 mask;      /* table size - 1 (power of two) */
    i64 *addr;
    i32 *ord;
    u8 *used;
} StoreMap;

static inline i64 sm_slot(const StoreMap *m, i64 addr) {
    return (i64)(((u64)addr * 0x9E3779B97F4A7C15ULL) >> 1) & m->mask;
}

static i32 sm_get(const StoreMap *m, i64 addr) {
    i64 slot = sm_slot(m, addr);
    while (m->used[slot]) {
        if (m->addr[slot] == addr) {
            return m->ord[slot];
        }
        slot = (slot + 1) & m->mask;
    }
    return -1;
}

static void sm_put(StoreMap *m, i64 addr, i32 ordinal) {
    i64 slot = sm_slot(m, addr);
    while (m->used[slot]) {
        if (m->addr[slot] == addr) {
            m->ord[slot] = ordinal;
            return;
        }
        slot = (slot + 1) & m->mask;
    }
    m->used[slot] = 1;
    m->addr[slot] = addr;
    m->ord[slot] = ordinal;
}

/* ---------------------------------------------------------------------- */
/* Row emission                                                            */
/* ---------------------------------------------------------------------- */

static void emit_row(i64 *row, const i64 *C, i64 rob_occ, i64 iq_occ,
                     i64 lsq_occ, const Bp *bp, const Hierarchy *h) {
    memcpy(row, C, sizeof(i64) * N_PIPE_SLOTS);
    row[S_ROB_OCC] = rob_occ;
    row[S_IQ_OCC] = iq_occ;
    row[S_LSQ_OCC] = lsq_occ;
    row[S_BP_LOOKUPS] = bp->lookups;
    row[S_BP_MISPRED] = bp->mispredicts;
    row[S_BP_DIR_MISPRED] = bp->dir_mispredicts;
    row[S_BP_IND_LOOKUPS] = bp->ind_lookups;
    row[S_BP_IND_MISPRED] = bp->ind_mispredicts;
    row[S_BP_BTB_LOOKUPS] = bp->btb_lookups;
    row[S_BP_BTB_HITS] = bp->btb_hits;
    row[S_L1_ACC] = h->levels[0].accesses;
    row[S_L1_MISS] = h->levels[0].misses;
    row[S_L2_ACC] = h->levels[1].accesses;
    row[S_L2_MISS] = h->levels[1].misses;
    if (h->num_levels > 2) {
        row[S_L3_ACC] = h->levels[2].accesses;
        row[S_L3_MISS] = h->levels[2].misses;
    } else {
        row[S_L3_ACC] = 0;
        row[S_L3_MISS] = 0;
    }
}

/* ---------------------------------------------------------------------- */
/* Entry point                                                             */
/* ---------------------------------------------------------------------- */

/* Return codes: 0 ok, 1 max-cycles exceeded (caller raises PipelineError),
 * 2 allocation failure, 3 row-buffer overflow (cannot happen when the
 * caller sizes max_rows from max_cycles // step_cycles + 1). */
int repro_simulate(const SimParams *P,
                   const u8 *bug_flags,
                   const i64 *extra_delay,
                   const u8 *op_class,
                   const u8 *has_dest,
                   const i32 *dest,
                   const u8 *has_address,
                   const i64 *address,
                   const i8 *taken,
                   const i64 *pc,
                   const i64 *target,
                   const u8 *has_target,
                   const u8 *indirect,
                   const i32 *srcs_flat,
                   const i32 *srcs_offset,
                   const i32 *class_ports_flat,
                   i64 *out_rows,
                   i64 max_rows,
                   i64 *out_scalars) {
    const i64 n = P->total;
    const i64 width = P->width;
    const i64 rob_size = P->rob_size;
    const i64 iq_size = P->iq_size;
    const i64 lsq_size = P->lsq_size;
    const i64 fetch_capacity = P->fetch_capacity;
    const i64 step_cycles = P->step_cycles;
    const i64 max_cycles = P->max_cycles;
    int rc = 0;

    /* --- workspace --- */
    i32 *pending = NULL;
    u8 *completed = NULL;
    i32 *cons_head = NULL;
    i32 *edge_to = NULL;
    i32 *edge_next = NULL;
    i32 *ring_head = NULL;
    i32 *ring_next = NULL;
    i32 *heap = NULL;
    i32 *deferred = NULL;
    i32 *reg_producer = NULL;
    i64 *port_busy = NULL;
    i32 *last_store_ord = NULL;
    i64 *min_issue = NULL;
    u8 *issued = NULL;
    i32 *cal_head = NULL;
    i32 *cal_next = NULL;
    Hierarchy hier;
    Bp bp;
    StoreMap smap;
    i64 ring_size;
    i64 ring_mask;
    i64 cal_size = 1;
    i64 cal_mask;
    int track_oldest = 0;
    i64 n_edges_max = srcs_offset[n];
    i64 edge_count = 0;
    i64 k;

    memset(&hier, 0, sizeof(hier));
    memset(&bp, 0, sizeof(bp));
    memset(&smap, 0, sizeof(smap));

    /* Ring sized past the largest possible issue latency: the max class
     * latency and the full-miss memory path, plus slack so a finish never
     * aliases the current cycle's slot. */
    {
        i64 max_lat = 1;
        i64 mem_path = P->memory_latency;
        for (k = 0; k < NUM_CLASSES; k++) {
            if (P->latency_by_class[k] > max_lat) {
                max_lat = P->latency_by_class[k];
            }
        }
        for (k = 0; k < P->num_levels; k++) {
            mem_path += P->cache_latency[k];
        }
        if (mem_path > max_lat) {
            max_lat = mem_path;
        }
        ring_size = 1;
        while (ring_size < max_lat + 2) {
            ring_size <<= 1;
        }
        ring_mask = ring_size - 1;
        while (cal_size < P->wake_span) {
            cal_size <<= 1;
        }
        cal_mask = cal_size - 1;
    }

    pending = (i32 *)calloc((size_t)n, sizeof(i32));
    completed = (u8 *)calloc((size_t)n, sizeof(u8));
    cons_head = (i32 *)malloc((size_t)n * sizeof(i32));
    edge_to = (i32 *)malloc((size_t)(n_edges_max > 0 ? n_edges_max : 1) * sizeof(i32));
    edge_next = (i32 *)malloc((size_t)(n_edges_max > 0 ? n_edges_max : 1) * sizeof(i32));
    ring_head = (i32 *)malloc((size_t)ring_size * sizeof(i32));
    ring_next = (i32 *)malloc((size_t)n * sizeof(i32));
    heap = (i32 *)malloc((size_t)n * sizeof(i32));
    deferred = (i32 *)malloc((size_t)(width > 0 ? n : 1) * sizeof(i32));
    reg_producer = (i32 *)malloc((size_t)P->num_regs * sizeof(i32));
    port_busy = (i64 *)calloc((size_t)P->num_ports, sizeof(i64));
    last_store_ord = (i32 *)malloc((size_t)n * sizeof(i32));
    min_issue = (i64 *)malloc((size_t)n * sizeof(i64));
    issued = (u8 *)calloc((size_t)n, sizeof(u8));
    cal_head = (i32 *)malloc((size_t)cal_size * sizeof(i32));
    cal_next = (i32 *)malloc((size_t)n * sizeof(i32));
    if (!pending || !completed || !cons_head || !edge_to || !edge_next ||
        !ring_head || !ring_next || !heap || !deferred ||
        !reg_producer || !port_busy || !last_store_ord || !min_issue ||
        !issued || !cal_head || !cal_next) {
        rc = 2;
        goto cleanup;
    }
    memset(cons_head, 0xFF, (size_t)n * sizeof(i32));        /* -1 */
    memset(ring_head, 0xFF, (size_t)ring_size * sizeof(i32)); /* -1 */
    memset(cal_head, 0xFF, (size_t)cal_size * sizeof(i32));   /* -1 */
    memset(reg_producer, 0xFF, (size_t)P->num_regs * sizeof(i32));
    for (k = 0; k < n; k++) {
        if (bug_flags[k] & (F_ONLY_OLDEST | F_OLDEST_BLOCKS)) {
            track_oldest = 1;
            break;
        }
    }

    /* --- cache levels --- */
    hier.num_levels = P->num_levels;
    hier.memory_latency = P->memory_latency;
    hier.l1_line_size = P->l1_line_size;
    for (k = 0; k < P->num_levels; k++) {
        CacheLevel *c = &hier.levels[k];
        c->num_sets = P->cache_sets[k];
        c->assoc = P->cache_assoc[k];
        c->line_shift = P->cache_line_shift[k];
        c->latency = P->cache_latency[k];
        c->tags = map_zeroed(c->num_sets * c->assoc);
        c->ticks = map_zeroed(c->num_sets * c->assoc);
        if (!c->tags || !c->ticks) {
            rc = 2;
            goto cleanup;
        }
    }

    /* --- branch predictor --- */
    bp.table_entries = P->bp_table_entries;
    bp.indirect_sets = P->indirect_sets;
    bp.counters = (u8 *)malloc((size_t)P->bp_table_entries);
    bp.ind_target = (i64 *)calloc((size_t)P->indirect_sets, sizeof(i64));
    bp.ind_valid = (u8 *)calloc((size_t)P->indirect_sets, sizeof(u8));
    bp.btb.capacity = P->btb_entries;
    bp.btb.nbuckets = 1;
    while (bp.btb.nbuckets < 2 * P->btb_entries) {
        bp.btb.nbuckets <<= 1;
    }
    {
        i64 bits = 0;
        i64 v = bp.btb.nbuckets;
        while (v > 1) {
            bits += 1;
            v >>= 1;
        }
        bp.btb.shift = 64 - bits;
    }
    bp.btb.pc = (i64 *)malloc((size_t)P->btb_entries * sizeof(i64));
    bp.btb.target = (i64 *)malloc((size_t)P->btb_entries * sizeof(i64));
    bp.btb.next = (i32 *)malloc((size_t)P->btb_entries * sizeof(i32));
    bp.btb.bucket = (i32 *)malloc((size_t)bp.btb.nbuckets * sizeof(i32));
    if (!bp.counters || !bp.ind_target || !bp.ind_valid || !bp.btb.pc ||
        !bp.btb.target || !bp.btb.next || !bp.btb.bucket) {
        rc = 2;
        goto cleanup;
    }
    memset(bp.counters, 2, (size_t)P->bp_table_entries);  /* weakly taken */
    memset(bp.btb.bucket, 0xFF, (size_t)bp.btb.nbuckets * sizeof(i32));

    /* --- setup pass: per-load ordinal of the last earlier same-address
     * store (store-to-load forwarding reduces to ordinal >= committed). --- */
    {
        i64 nstores = 0;
        i64 hsize;
        i32 ordinal = 0;
        i64 i;
        for (i = 0; i < n; i++) {
            if (op_class[i] == CLS_STORE) {
                nstores += 1;
            }
        }
        hsize = 4;
        while (hsize < 2 * (nstores > 0 ? nstores : 1)) {
            hsize <<= 1;
        }
        smap.mask = hsize - 1;
        smap.addr = (i64 *)malloc((size_t)hsize * sizeof(i64));
        smap.ord = (i32 *)malloc((size_t)hsize * sizeof(i32));
        smap.used = (u8 *)calloc((size_t)hsize, sizeof(u8));
        if (!smap.addr || !smap.ord || !smap.used) {
            rc = 2;
            goto cleanup;
        }
        for (i = 0; i < n; i++) {
            if (op_class[i] == CLS_LOAD) {
                last_store_ord[i] = sm_get(&smap, address[i]);
            } else {
                last_store_ord[i] = -1;
                if (op_class[i] == CLS_STORE) {
                    sm_put(&smap, address[i], ordinal);
                    ordinal += 1;
                }
            }
        }
    }

    /* --- warmup: prime caches and predictor, then zero their stats --- */
    if (P->warmup) {
        i64 i;
        for (i = 0; i < n; i++) {
            if (has_address[i]) {
                cache_access(&hier, address[i]);
            } else if (taken[i] >= 0 && op_class[i] == CLS_BRANCH) {
                bp_predict_update(&bp, pc[i], taken[i], target[i],
                                  has_target[i], indirect[i]);
            }
        }
        for (k = 0; k < P->num_levels; k++) {
            hier.levels[k].accesses = 0;
            hier.levels[k].misses = 0;
        }
        bp.lookups = 0;
        bp.mispredicts = 0;
        bp.dir_mispredicts = 0;
        bp.ind_lookups = 0;
        bp.ind_mispredicts = 0;
        bp.btb_lookups = 0;
        bp.btb_hits = 0;
    }

    /* --- main cycle loop --- */
    {
        i64 C[N_PIPE_SLOTS];
        i64 cycle = 0;
        i64 committed = 0;
        i64 free_regs = P->free_regs;
        i64 iq_count = 0;
        i64 lsq_occ = 0;
        i64 n_committed = 0;
        i64 n_dispatched = 0;
        i64 next_index = 0;
        i64 stores_committed = 0;
        i64 oldest_ptr = 0;       /* oldest un-issued IQ entry when tracked */
        i64 cal_count = 0;        /* uops waiting in the wake calendar */
        i32 serialize_op = -1;
        i32 fetch_blocked_by = -1;
        i64 fetch_resume = 0;
        i64 rob_occ_sum = 0;
        i64 iq_occ_sum = 0;
        i64 lsq_occ_sum = 0;
        i64 last_sample = 0;
        i64 heap_size = 0;
        i64 inflight = 0;
        i64 nrows = 0;

        memset(C, 0, sizeof(C));

        while (committed < n) {
            cycle += 1;
            if (cycle > max_cycles) {
                rc = 1;
                out_scalars[0] = cycle;
                out_scalars[1] = committed;
                out_scalars[2] = last_sample;
                out_scalars[3] = nrows;
                goto cleanup;
            }

            /* commit */
            if (n_dispatched > n_committed && completed[n_committed]) {
                i64 committed_now = 0;
                while (n_committed < n_dispatched && committed_now < width) {
                    i64 i = n_committed;
                    int cls;
                    if (!completed[i]) {
                        break;
                    }
                    n_committed += 1;
                    committed_now += 1;
                    cls = op_class[i];
                    if (has_dest[i]) {
                        C[S_COMMIT_REGW] += 1;
                        free_regs += 1;
                        if (reg_producer[dest[i]] == (i32)i) {
                            reg_producer[dest[i]] = -1;
                        }
                    }
                    if (cls == CLS_BRANCH) {
                        C[S_COMMIT_BR] += 1;
                    } else if (cls == CLS_LOAD) {
                        C[S_COMMIT_LD] += 1;
                        lsq_occ -= 1;
                    } else if (cls == CLS_STORE) {
                        C[S_COMMIT_ST] += 1;
                        lsq_occ -= 1;
                        stores_committed += 1;
                    }
                    if (cls >= CLS_FP_ALU && cls <= CLS_VECTOR) {
                        C[S_COMMIT_FP] += 1;
                    }
                }
                committed += committed_now;
                C[S_COMMIT_INSTR] += committed_now;
                if (committed_now >= width) {
                    C[S_COMMIT_MAXW] += 1;
                }
            } else {
                C[S_COMMIT_IDLE] += 1;
            }

            /* writeback */
            {
                i64 slot = cycle & ring_mask;
                i32 node = ring_head[slot];
                if (node >= 0) {
                    i64 count = 0;
                    ring_head[slot] = -1;
                    while (node >= 0) {
                        i32 nxt = ring_next[node];
                        i32 e;
                        completed[node] = 1;
                        e = cons_head[node];
                        while (e >= 0) {
                            i32 consumer = edge_to[e];
                            pending[consumer] -= 1;
                            if (pending[consumer] == 0) {
                                if (min_issue[consumer] <= cycle) {
                                    heap_push(heap, &heap_size, consumer);
                                } else {
                                    i64 cs = min_issue[consumer] & cal_mask;
                                    cal_next[consumer] = cal_head[cs];
                                    cal_head[cs] = consumer;
                                    cal_count += 1;
                                }
                            }
                            e = edge_next[e];
                        }
                        if (node == fetch_blocked_by) {
                            fetch_resume = cycle + P->redirect_penalty;
                            fetch_blocked_by = -1;
                        }
                        if (node == serialize_op) {
                            serialize_op = -1;
                        }
                        count += 1;
                        node = nxt;
                    }
                    inflight -= count;
                    C[S_WRITEBACK] += count;
                }
            }

            /* wake the uops whose issue delay ends this cycle */
            if (cal_count > 0) {
                i32 node = cal_head[cycle & cal_mask];
                cal_head[cycle & cal_mask] = -1;
                while (node >= 0) {
                    heap_push(heap, &heap_size, node);
                    cal_count -= 1;
                    node = cal_next[node];
                }
            }

            /* issue */
            if (heap_size > 0) {
                if (iq_count == 0) {
                    C[S_ISSUE_EMPTY] += 1;
                } else {
                    i64 n_issued = 0;
                    u64 ports_used = 0;
                    i64 ndef = 0;
                    i64 oldest = -1;
                    int restrict_oldest = 0;
                    if (track_oldest) {
                        while (issued[oldest_ptr]) {
                            oldest_ptr += 1;
                        }
                        oldest = oldest_ptr;
                        restrict_oldest = (bug_flags[oldest] & F_OLDEST_BLOCKS) != 0;
                    }
                    while (heap_size > 0 && n_issued < width) {
                        i32 op = heap[0];
                        int cls = op_class[op];
                        int port = -1;
                        i64 latency;
                        i64 finish;
                        i64 fslot;
                        if (restrict_oldest && op != oldest) {
                            break;
                        }
                        heap_pop(heap, &heap_size);
                        if ((bug_flags[op] & F_ONLY_OLDEST) && op != oldest) {
                            deferred[ndef++] = op;
                            continue;
                        }
                        for (k = P->cp_offset[cls]; k < P->cp_offset[cls + 1]; k++) {
                            i32 cand = class_ports_flat[k];
                            if ((ports_used >> cand) & 1) {
                                continue;
                            }
                            if (port_busy[cand] > cycle) {
                                continue;
                            }
                            port = cand;
                            break;
                        }
                        if (port < 0) {
                            C[S_ISSUE_CONFLICTS] += 1;
                            deferred[ndef++] = op;
                            continue;
                        }
                        ports_used |= (u64)1 << port;
                        if (cls == CLS_LOAD) {
                            if (last_store_ord[op] >= stores_committed) {
                                C[S_LSQ_FWD] += 1;
                                latency = 1;
                            } else {
                                latency = cache_access(&hier, address[op]);
                            }
                        } else if (cls == CLS_STORE) {
                            cache_access(&hier, address[op]);
                            latency = 1;
                        } else {
                            latency = P->latency_by_class[cls];
                            if (cls == CLS_INT_DIV || cls == CLS_FP_DIV) {
                                port_busy[port] = cycle + latency;
                            }
                        }
                        finish = cycle + (latency > 1 ? latency : 1);
                        fslot = finish & ring_mask;
                        ring_next[op] = ring_head[fslot];
                        ring_head[fslot] = op;
                        issued[op] = 1;
                        inflight += 1;
                        n_issued += 1;
                        C[S_ISSUE_CLASS0 + cls] += 1;
                    }
                    for (k = 0; k < ndef; k++) {
                        heap_push(heap, &heap_size, deferred[k]);
                    }
                    if (n_issued == 0) {
                        C[S_ISSUE_STALL] += 1;
                    } else {
                        iq_count -= n_issued;
                        C[S_ISSUE_INSTR] += n_issued;
                        if (n_issued >= width) {
                            C[S_ISSUE_MAXW] += 1;
                        }
                    }
                }
            } else if (iq_count > 0) {
                C[S_ISSUE_STALL] += 1;
            } else {
                C[S_ISSUE_EMPTY] += 1;
            }

            /* dispatch */
            if (next_index > n_dispatched) {
                i64 dispatched = 0;
                while (dispatched < width) {
                    i64 op = n_dispatched;
                    int cls = op_class[op];
                    int is_mem = (cls == CLS_LOAD || cls == CLS_STORE);
                    i32 pend = 0;
                    int dep_hit = 0;
                    i64 rob_free = rob_size - (n_dispatched - n_committed);
                    i64 extra = extra_delay[op];
                    i64 ready_at = cycle + 1;
                    if (serialize_op >= 0) {
                        C[S_DISP_SERIALIZING] += 1;
                        break;
                    }
                    if (n_dispatched - n_committed >= rob_size) {
                        C[S_DISP_ROBFULL] += 1;
                        break;
                    }
                    if (iq_count >= iq_size) {
                        C[S_DISP_IQFULL] += 1;
                        break;
                    }
                    if (is_mem && lsq_occ >= lsq_size) {
                        C[S_DISP_LSQFULL] += 1;
                        break;
                    }
                    if (has_dest[op] && free_regs <= 0) {
                        C[S_RENAME_STALL] += 1;
                        break;
                    }
                    n_dispatched += 1;
                    dispatched += 1;
                    for (k = srcs_offset[op]; k < srcs_offset[op + 1]; k++) {
                        i32 producer = reg_producer[srcs_flat[k]];
                        if (producer >= 0 && !completed[producer]) {
                            pend += 1;
                            edge_to[edge_count] = (i32)op;
                            edge_next[edge_count] = cons_head[producer];
                            cons_head[producer] = (i32)edge_count;
                            edge_count += 1;
                            if (bug_flags[producer] & F_DEP_PRODUCER) {
                                dep_hit = 1;
                            }
                        }
                    }
                    pending[op] = pend;
                    if (has_dest[op]) {
                        free_regs -= 1;
                        reg_producer[dest[op]] = (i32)op;
                    }
                    if (iq_size - iq_count < P->iq_free_below) {
                        extra += P->iq_delay;
                    }
                    if (rob_free < P->rob_free_below) {
                        extra += P->rob_delay;
                    }
                    if (dep_hit && (bug_flags[op] & F_DEP_CONSUMER)) {
                        extra += P->dep_delay;
                    }
                    if (extra > 0) {
                        ready_at += extra;
                        C[S_BUG_DELAY] += extra;
                    }
                    min_issue[op] = ready_at;
                    if (bug_flags[op] & F_SERIALIZE) {
                        serialize_op = (i32)op;
                        C[S_DISP_SERIALIZED] += 1;
                    }
                    iq_count += 1;
                    if (pend == 0) {
                        i64 cs = ready_at & cal_mask;
                        cal_next[op] = cal_head[cs];
                        cal_head[cs] = (i32)op;
                        cal_count += 1;
                    }
                    if (is_mem) {
                        lsq_occ += 1;
                    }
                    if (next_index == n_dispatched) {
                        break;
                    }
                }
                if (dispatched > 0) {
                    C[S_DISP_INSTR] += dispatched;
                } else if (next_index > n_dispatched) {
                    C[S_DISP_STALL] += 1;
                }
            }

            /* fetch */
            if (fetch_blocked_by >= 0 || cycle < fetch_resume) {
                C[S_FETCH_STALL] += 1;
            } else if (next_index < n && next_index - n_dispatched < fetch_capacity) {
                i64 fetched = 0;
                while (fetched < width && next_index < n &&
                       next_index - n_dispatched < fetch_capacity) {
                    i64 i = next_index;
                    next_index += 1;
                    fetched += 1;
                    if (op_class[i] == CLS_BRANCH) {
                        int mispredicted = 0;
                        C[S_FETCH_BR] += 1;
                        if (taken[i] >= 0) {
                            mispredicted = bp_predict_update(
                                &bp, pc[i], taken[i], target[i],
                                has_target[i], indirect[i]);
                        }
                        if (mispredicted) {
                            fetch_blocked_by = (i32)i;
                            C[S_FETCH_MISPRED] += 1;
                            break;
                        }
                    }
                }
                C[S_FETCH_INSTR] += fetched;
                C[S_FETCH_ACTIVE] += 1;
            }

            /* occupancy + sampling */
            {
                i64 rob_len = n_dispatched - n_committed;
                i64 fq_len = next_index - n_dispatched;
                rob_occ_sum += rob_len;
                iq_occ_sum += iq_count;
                lsq_occ_sum += lsq_occ;

                if (cycle - last_sample >= step_cycles) {
                    if (nrows >= max_rows) {
                        rc = 3;
                        out_scalars[0] = cycle;
                        out_scalars[1] = committed;
                        out_scalars[2] = last_sample;
                        out_scalars[3] = nrows;
                        goto cleanup;
                    }
                    emit_row(out_rows + nrows * NUM_SLOTS, C, rob_occ_sum,
                             iq_occ_sum, lsq_occ_sum, &bp, &hier);
                    nrows += 1;
                    last_sample = cycle;
                }

                /* idle / structural-stall fast-forward */
                if (heap_size == 0 &&
                    (rob_len == 0 || !completed[n_committed])) {
                    int blocked = (fetch_blocked_by >= 0);
                    if (blocked || cycle + 1 < fetch_resume || next_index >= n ||
                        fq_len >= fetch_capacity) {
                        i64 dispatch_reason = 0;
                        if (fq_len > 0) {
                            i64 head = n_dispatched;
                            int hcls = op_class[head];
                            int h_is_mem = (hcls == CLS_LOAD || hcls == CLS_STORE);
                            if (serialize_op >= 0) {
                                dispatch_reason = 1;
                            } else if (rob_len >= rob_size) {
                                dispatch_reason = 2;
                            } else if (iq_count >= iq_size) {
                                dispatch_reason = 3;
                            } else if (h_is_mem && lsq_occ >= lsq_size) {
                                dispatch_reason = 4;
                            } else if (has_dest[head] && free_regs <= 0) {
                                dispatch_reason = 5;
                            } else {
                                dispatch_reason = -1;
                            }
                        }
                        if (dispatch_reason >= 0 && (inflight > 0 || cal_count > 0)) {
                            i64 event = last_sample + step_cycles;
                            i64 c;
                            for (c = cycle + 1; inflight > 0 && c <= cycle + ring_size; c++) {
                                if (ring_head[c & ring_mask] >= 0) {
                                    if (c < event) {
                                        event = c;
                                    }
                                    break;
                                }
                            }
                            for (c = cycle + 1; cal_count > 0 && c <= cycle + cal_size; c++) {
                                if (cal_head[c & cal_mask] >= 0) {
                                    if (c < event) {
                                        event = c;
                                    }
                                    break;
                                }
                            }
                            if (!blocked && next_index < n &&
                                fq_len < fetch_capacity && fetch_resume < event) {
                                event = fetch_resume;
                            }
                            if (event > max_cycles + 1) {
                                event = max_cycles + 1;
                            }
                            {
                                i64 skipped = event - cycle - 1;
                                if (skipped > 0) {
                                    C[S_COMMIT_IDLE] += skipped;
                                    if (iq_count == 0) {
                                        C[S_ISSUE_EMPTY] += skipped;
                                    } else {
                                        C[S_ISSUE_STALL] += skipped;
                                    }
                                    if (dispatch_reason != 0) {
                                        C[S_DISP_STALL] += skipped;
                                        if (dispatch_reason == 1) {
                                            C[S_DISP_SERIALIZING] += skipped;
                                        } else if (dispatch_reason == 2) {
                                            C[S_DISP_ROBFULL] += skipped;
                                        } else if (dispatch_reason == 3) {
                                            C[S_DISP_IQFULL] += skipped;
                                        } else if (dispatch_reason == 4) {
                                            C[S_DISP_LSQFULL] += skipped;
                                        } else {
                                            C[S_RENAME_STALL] += skipped;
                                        }
                                    }
                                    if (blocked) {
                                        C[S_FETCH_STALL] += skipped;
                                    } else if (fetch_resume > cycle + 1) {
                                        i64 stop = event - 1;
                                        if (fetch_resume - 1 < stop) {
                                            stop = fetch_resume - 1;
                                        }
                                        C[S_FETCH_STALL] += stop - cycle;
                                    }
                                    rob_occ_sum += rob_len * skipped;
                                    iq_occ_sum += iq_count * skipped;
                                    lsq_occ_sum += lsq_occ * skipped;
                                    cycle = event - 1;
                                }
                            }
                        }
                    }
                }
            }
        }

        /* final (cumulative) row for sampler.finalize */
        emit_row(out_rows + nrows * NUM_SLOTS, C, rob_occ_sum, iq_occ_sum,
                 lsq_occ_sum, &bp, &hier);
        out_scalars[0] = cycle;
        out_scalars[1] = committed;
        out_scalars[2] = last_sample;
        out_scalars[3] = nrows;
    }

cleanup:
    free(pending);
    free(completed);
    free(cons_head);
    free(edge_to);
    free(edge_next);
    free(ring_head);
    free(ring_next);
    free(heap);
    free(deferred);
    free(reg_producer);
    free(port_busy);
    free(last_store_ord);
    free(min_issue);
    free(issued);
    free(cal_head);
    free(cal_next);
    for (k = 0; k < MAX_LEVELS; k++) {
        CacheLevel *c = &hier.levels[k];
        unmap(c->tags, c->num_sets * c->assoc);
        unmap(c->ticks, c->num_sets * c->assoc);
    }
    free(bp.counters);
    free(bp.ind_target);
    free(bp.ind_valid);
    free(bp.btb.pc);
    free(bp.btb.target);
    free(bp.btb.next);
    free(bp.btb.bucket);
    free(smap.addr);
    free(smap.ord);
    free(smap.used);
    return rc;
}
