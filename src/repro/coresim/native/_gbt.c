/* Native gradient-boosting kernel: every round of
 * GradientBoostedTrees.fit (repro/ml/gbt.py) in one call, and its predict
 * over the fitted forest in another, built into the same shared library as
 * _core.c and _memsim.c.
 *
 * Exactness contract: each tree's node arrays, every round's train and
 * validation predictions, both losses and the early-stopping decision must
 * equal the numpy loop's bit for bit.  The pieces that contract rests on:
 *
 *  - Each training column is ranked once per fit; each round sorts its
 *    rows by every column with a counting sort on the ranks, which is
 *    stable, and the sorted rows are stably partitioned at every split
 *    (presorting, as in SLIQ).  A stable partition of a stable order is
 *    the stable order of the subset, so every node sees the permutation
 *    argsort(kind="stable") gives its rows.  A further index list keeps each
 *    node's rows in draw order, the order numpy's boolean masks keep them
 *    in.
 *  - Prefix sums add in sequence, as cumsum does, and each SSE is evaluated
 *    in numpy's operation order; contraction is off (-ffp-contract=off), so
 *    no a*b + c becomes an FMA.
 *  - Node means and MSEs use numpy's pairwise summation, added to the
 *    reduction's 0.0 identity and divided by the count.
 *  - A feature whose candidate SSEs hold a NaN never wins; ties go to the
 *    lowest split, then the lowest feature.  Rows go left when x <= the
 *    threshold, which can also send every row left (a threshold rounded
 *    onto the upper value, or overflowed to inf); the empty right child is
 *    a leaf whose value is numpy's mean of nothing, 0.0 / 0.
 *
 * The Python wrapper (repro/ml/native.py) draws each round's rows with
 * numpy and rejects what this kernel does not take: a non-finite training
 * feature (numpy sorts NaN last).  A tree that needs more node slots than
 * a tree whose leaves all hold rows can have returns rc 3, and the numpy
 * loop runs instead.  The kernel keeps no static state.
 *
 * Predict adds each row's leaf values to the base one tree at a time, in
 * forest order, as np.cumsum over [base; learning_rate * leaves] adds them,
 * so its predictions equal the numpy walk's bit for bit.  A NaN feature
 * fails x <= threshold and goes right, as it does in numpy. */

#include <math.h>  /* INFINITY */
#include <stddef.h>  /* offsetof */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* GbtParams, one X(type, name) per field.  The struct and its layout
 * report (repro_gbt_layout) are both expanded from this list. */
#define GBT_PARAMS(X) \
    X(i64, rows)                  /* training rows */ \
    X(i64, features)              /* columns of every row, fit and predict */ \
    X(i64, val_rows)              /* 0: no validation set, no early stopping */ \
    X(i64, rounds)                /* n_estimators; predict: trees kept */ \
    X(i64, sample_rows)           /* rows per tree: the draw size, or rows */ \
    X(i64, node_capacity)         /* node slots per tree in the outputs */ \
    X(i64, max_depth) \
    X(i64, min_samples_leaf) \
    X(i64, min_samples_split) \
    X(i64, early_stopping_rounds) /* clamped to [1, rounds + 1] */ \
    X(double, learning_rate) \
    X(double, base)               /* float(y.mean()), every row's start */

#define DECLARE_FIELD(type, name) type name;
typedef struct {
    GBT_PARAMS(DECLARE_FIELD)
} GbtParams;

/* repro_gbt_layout's report, ended by a NULL name: each GbtParams field's
 * name, C type, offset and size (value), then, with no type, the struct's
 * sizeof. */
typedef struct { const char *name, *type; i64 offset, value; } LayoutEntry;
#define FIELD_ENTRY(type, name) \
    {#name, #type, offsetof(GbtParams, name), sizeof(((GbtParams *)0)->name)},

const LayoutEntry *repro_gbt_layout(void) {
    static const LayoutEntry report[] = {
        GBT_PARAMS(FIELD_ENTRY)
        {"sizeof", NULL, 0, sizeof(GbtParams)},
        {NULL, NULL, 0, 0}
    };
    return report;
}

/* numpy's pairwise_sum_DOUBLE: 8 accumulators over blocks of up to 128,
 * split in halves (rounded down to a multiple of 8) above that. */
static double pairwise_sum(const double *a, i64 n) {
    i64 i;
    if (n < 8) {
        double res = 0.0;
        for (i = 0; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int j;
        for (j = 0; j < 8; j++) {
            r[j] = a[j];
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            for (j = 0; j < 8; j++) {
                r[j] += a[i + j];
            }
        }
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            res += a[i];
        }
        return res;
    } else {
        i64 n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

/* np.mean of a contiguous vector (0.0 / 0 when it is empty). */
static double numpy_mean(const double *a, i64 n) {
    double total = 0.0;
    total += pairwise_sum(a, n);
    return total / (double)n;
}

/* mean_squared_error(y, pred); sq is scratch of n doubles. */
static double numpy_mse(const double *y, const double *pred, i64 n, double *sq) {
    i64 i;
    for (i = 0; i < n; i++) {
        double d = y[i] - pred[i];
        sq[i] = d * d;
    }
    return numpy_mean(sq, n);
}

/* A training value and its row, ordered by value, then row: a total order
 * on finite values, so qsort gives the one order a stable sort would. */
typedef struct {
    double value;
    i64 row;
} Keyed;

static int by_value_then_row(const void *a, const void *b) {
    const Keyed *x = a, *y = b;
    if (x->value != y->value) {
        return x->value < y->value ? -1 : 1;
    }
    return (x->row > y->row) - (x->row < y->row);
}

typedef struct {
    i64 lo, hi;      /* the node's rows: [lo, hi) of every order list */
    i64 depth;
    i64 parent;      /* -1 for the root */
    int is_right;
} Pending;

/* Scratch for one fit, allocated once and reused by every round. */
typedef struct {
    i64 *rank;       /* features x rows: each value's rank among the
                      * distinct values of its training column */
    i64 *distinct;   /* features: distinct values per column */
    Keyed *keyed;    /* rows: one column, sorted to rank it */
    i64 *count;      /* rows: counting-sort buckets */
    double *xcol;    /* features x sample_rows, the round's rows by column */
    double *resid;   /* the round's residuals, in draw order */
    i64 *order;      /* (features + 1) x sample_rows: per feature the rows
                      * in stable sorted order, then the rows in draw order,
                      * each node's rows one contiguous range of every list */
    i64 *tmp;        /* sample_rows: counting-sort keys, partition scratch */
    unsigned char *goes_left;
    double *prefix;  /* 2 x sample_rows: cumsum and cumsum of squares */
    double *gather;  /* sample_rows: a node's targets for its mean */
    Pending *stack;  /* node_capacity */
    double *pred, *val_pred, *sq;
} Work;

/* One tree's output slots. */
typedef struct {
    i64 *feature, *left, *right;
    double *threshold, *value;
    i64 nodes, depth;
} Tree;

static void *alloc(size_t count, size_t size) {
    return calloc(count ? count : 1, size);
}

/* The best (feature, split position) of the node's rows, as
 * RegressionTree._best_split picks it; returns 0 when no split is valid. */
static int best_split(const GbtParams *P, const Work *w, i64 lo, i64 n,
                      i64 *best_feature, i64 *best_pos) {
    const i64 m = P->sample_rows;
    double *cs = w->prefix, *csq = w->prefix + m;
    double best = INFINITY;
    i64 f, j;
    const i64 first = P->min_samples_leaf - 1;     /* left_n >= min_leaf */
    const i64 last = n - 1 - P->min_samples_leaf;  /* right_n >= min_leaf */
    *best_feature = -1;
    for (f = 0; f < P->features; f++) {
        const i64 *idx = w->order + f * m + lo;
        const double *x = w->xcol + f * m;
        double column_best = INFINITY, total, total_sq;
        i64 column_pos = -1;
        int has_nan = 0;
        cs[0] = w->resid[idx[0]];
        csq[0] = cs[0] * cs[0];
        for (j = 1; j < n; j++) {
            double v = w->resid[idx[j]];
            cs[j] = cs[j - 1] + v;
            csq[j] = csq[j - 1] + v * v;
        }
        total = cs[n - 1];
        total_sq = csq[n - 1];
        for (j = first; j <= last; j++) {
            double left_n, right_n, left_sum, right_sum, sse;
            if (x[idx[j]] == x[idx[j + 1]]) {
                continue;
            }
            left_n = (double)(j + 1);
            right_n = (double)n - left_n;
            left_sum = cs[j];
            right_sum = total - left_sum;
            sse = (csq[j] - left_sum * left_sum / left_n) +
                  ((total_sq - csq[j]) - right_sum * right_sum / right_n);
            if (sse != sse) {
                has_nan = 1;
                break;
            }
            if (sse < column_best) {
                column_best = sse;
                column_pos = j;
            }
        }
        if (!has_nan && column_best < best) {
            best = column_best;
            *best_feature = f;
            *best_pos = column_pos;
        }
    }
    return *best_feature >= 0;
}

/* Fit one tree on the round's rows (w->xcol, w->resid) into *t, in the
 * preorder RegressionTree._build numbers its nodes in.  Returns 3 when the
 * tree needs more than node_capacity slots (node_capacity >= 1). */
static int build_tree(const GbtParams *P, Work *w, Tree *t) {
    const i64 m = P->sample_rows;
    const i64 lists = P->features + 1;
    i64 top = 0;
    t->nodes = 0;
    t->depth = 0;
    w->stack[top].lo = 0;
    w->stack[top].hi = m;
    w->stack[top].depth = 0;
    w->stack[top].parent = -1;
    w->stack[top].is_right = 0;
    top = 1;
    while (top > 0) {
        Pending node = w->stack[--top];
        const i64 n = node.hi - node.lo;
        const i64 *rows = w->order + P->features * m + node.lo;
        i64 id, i, f, pos, n_left;
        double low, high, threshold;
        const double *x;
        int has_nan = 0;
        id = t->nodes++;
        for (i = 0; i < n; i++) {
            w->gather[i] = w->resid[rows[i]];
        }
        t->feature[id] = 0;
        t->threshold[id] = 0.0;
        t->left[id] = id;
        t->right[id] = id;
        t->value[id] = numpy_mean(w->gather, n);
        if (node.parent >= 0) {
            if (node.is_right) {
                t->right[node.parent] = id;
            } else {
                t->left[node.parent] = id;
            }
        }
        if (node.depth > t->depth) {
            t->depth = node.depth;
        }
        if (node.depth >= P->max_depth || n < P->min_samples_split) {
            continue;
        }
        /* np.ptp(y) < 1e-12, where a NaN never compares small. */
        low = high = w->gather[0];
        for (i = 0; i < n; i++) {
            double v = w->gather[i];
            if (v != v) {
                has_nan = 1;
            } else if (v < low) {
                low = v;
            } else if (v > high) {
                high = v;
            }
        }
        if (!has_nan && high - low < 1e-12) {
            continue;
        }
        if (!best_split(P, w, node.lo, n, &f, &pos)) {
            continue;
        }
        x = w->xcol + f * m;
        threshold = 0.5 * (x[w->order[f * m + node.lo + pos]] +
                           x[w->order[f * m + node.lo + pos + 1]]);
        t->feature[id] = f;
        t->threshold[id] = threshold;

        /* Stable partition of every order list by x <= threshold. */
        n_left = 0;
        for (i = 0; i < n; i++) {
            int left = x[rows[i]] <= threshold;
            w->goes_left[rows[i]] = (unsigned char)left;
            n_left += left;
        }
        for (i = 0; i < lists; i++) {
            i64 *list = w->order + i * m + node.lo;
            i64 k, kept = 0, moved = 0;
            for (k = 0; k < n; k++) {
                if (w->goes_left[list[k]]) {
                    list[kept++] = list[k];
                } else {
                    w->tmp[moved++] = list[k];
                }
            }
            memcpy(list + kept, w->tmp, (size_t)moved * sizeof(i64));
        }

        /* Every pending entry becomes a node, so a tree past the capacity
         * shows here, before the stack can outgrow it.  The left subtree is
         * numbered first: push it last. */
        if (t->nodes + top + 2 > P->node_capacity) {
            return 3;
        }
        w->stack[top].lo = node.lo + n_left;
        w->stack[top].hi = node.hi;
        w->stack[top].depth = node.depth + 1;
        w->stack[top].parent = id;
        w->stack[top].is_right = 1;
        top++;
        w->stack[top].lo = node.lo;
        w->stack[top].hi = node.lo + n_left;
        w->stack[top].depth = node.depth + 1;
        w->stack[top].parent = id;
        w->stack[top].is_right = 0;
        top++;
    }
    return 0;
}

/* pred[i] += learning_rate * (leaf value of row i). */
static void add_tree(const GbtParams *P, const Tree *t, const double *X, i64 rows,
                     double *pred) {
    i64 i;
    for (i = 0; i < rows; i++) {
        const double *row = X + i * P->features;
        i64 node = 0;
        while (t->left[node] != node) {
            node = row[t->feature[node]] <= t->threshold[node] ? t->left[node]
                                                                : t->right[node];
        }
        pred[i] = pred[i] + P->learning_rate * t->value[node];
    }
}

/* Rank every training value of each column once per fit: equal values
 * (-0.0 and 0.0 among them) share a rank, and a smaller value has a
 * smaller one. */
static void rank_columns(const GbtParams *P, const double *X, Work *w) {
    const i64 n = P->rows;
    i64 f, i;
    for (f = 0; f < P->features; f++) {
        i64 *rank = w->rank + f * n, r = 0;
        for (i = 0; i < n; i++) {
            w->keyed[i].value = X[i * P->features + f];
            w->keyed[i].row = i;
        }
        qsort(w->keyed, (size_t)n, sizeof(Keyed), by_value_then_row);
        for (i = 0; i < n; i++) {
            r += i > 0 && w->keyed[i].value != w->keyed[i - 1].value;
            rank[w->keyed[i].row] = r;
        }
        w->distinct[f] = r + 1;
    }
}

/* Order the round's rows by each column: a counting sort on the ranks of
 * the rows in draw order, which is stable, so it is the permutation
 * argsort(kind="stable") gives.  The last list is the draw order. */
static void sort_round(const GbtParams *P, Work *w, const i64 *chosen) {
    const i64 n = P->rows, m = P->sample_rows;
    i64 f, i;
    for (f = 0; f < P->features; f++) {
        const i64 *rank = w->rank + f * n;
        i64 *list = w->order + f * m, *count = w->count, *key = w->tmp;
        i64 start = 0;
        memset(count, 0, (size_t)w->distinct[f] * sizeof(i64));
        for (i = 0; i < m; i++) {
            key[i] = rank[chosen != NULL ? chosen[i] : i];
            count[key[i]]++;
        }
        for (i = 0; i < w->distinct[f]; i++) {
            i64 c = count[i];
            count[i] = start;
            start += c;
        }
        for (i = 0; i < m; i++) {
            list[count[key[i]]++] = i;
        }
    }
    for (i = 0; i < m; i++) {
        w->order[P->features * m + i] = i;
    }
}

static void free_work(Work *w) {
    free(w->rank);
    free(w->distinct);
    free(w->keyed);
    free(w->count);
    free(w->xcol);
    free(w->resid);
    free(w->order);
    free(w->tmp);
    free(w->goes_left);
    free(w->prefix);
    free(w->gather);
    free(w->stack);
    free(w->pred);
    free(w->val_pred);
    free(w->sq);
}

/* Run every boosting round of GradientBoostedTrees.fit.
 *
 * X is rows x features and X_val val_rows x features, both row-major;
 * draws is rounds x sample_rows row indices (each round's rng.choice), or
 * NULL when every round takes all rows in order.  The five node arrays
 * hold rounds * node_capacity slots; the trees fill them in round order,
 * tree r's tree_nodes[r] nodes right after tree r - 1's, with child
 * indices local to the tree.  Tree r's depth goes to tree_depth[r] and its
 * train loss to history[r]; out_counts receives [rounds run, trees kept].
 *
 * Returns 0 on success, 2 when memory runs out, 3 when a tree needs more
 * than node_capacity slots. */
int repro_gbt_fit(const GbtParams *P,
                  const double *X,
                  const double *y,
                  const double *X_val,
                  const double *y_val,
                  const i64 *draws,
                  i64 *feature,
                  double *threshold,
                  i64 *left,
                  i64 *right,
                  double *value,
                  i64 *tree_nodes,
                  i64 *tree_depth,
                  double *history,
                  i64 *out_counts) {
    const i64 n = P->rows, m = P->sample_rows, F = P->features;
    const i64 nv = P->val_rows;
    Work w;
    i64 r, i, f, used = 0, rounds_run = 0, kept = 0, best_round = 0, stale = 0;
    double best_val = INFINITY;
    int rc = 0;

    memset(&w, 0, sizeof(w));
    w.rank = alloc((size_t)(F * n), sizeof(i64));
    w.distinct = alloc((size_t)F, sizeof(i64));
    w.keyed = alloc((size_t)n, sizeof(Keyed));
    w.count = alloc((size_t)n, sizeof(i64));
    w.xcol = alloc((size_t)(F * m), sizeof(double));
    w.resid = alloc((size_t)m, sizeof(double));
    w.order = alloc((size_t)((F + 1) * m), sizeof(i64));
    w.tmp = alloc((size_t)m, sizeof(i64));
    w.goes_left = alloc((size_t)m, 1);
    w.prefix = alloc((size_t)(2 * m), sizeof(double));
    w.gather = alloc((size_t)m, sizeof(double));
    w.stack = alloc((size_t)P->node_capacity, sizeof(Pending));
    w.pred = alloc((size_t)n, sizeof(double));
    w.val_pred = alloc((size_t)nv, sizeof(double));
    w.sq = alloc((size_t)(n > nv ? n : nv), sizeof(double));
    if (!w.rank || !w.distinct || !w.keyed || !w.count || !w.xcol || !w.resid ||
        !w.order || !w.tmp || !w.goes_left || !w.prefix || !w.gather || !w.stack ||
        !w.pred || !w.val_pred || !w.sq) {
        free_work(&w);
        return 2;
    }
    rank_columns(P, X, &w);
    for (i = 0; i < n; i++) {
        w.pred[i] = P->base;
    }
    for (i = 0; i < nv; i++) {
        w.val_pred[i] = P->base;
    }

    for (r = 0; r < P->rounds; r++) {
        const i64 *chosen = draws != NULL ? draws + r * m : NULL;
        Tree t;
        double train_loss;

        for (i = 0; i < m; i++) {
            const i64 row = chosen != NULL ? chosen[i] : i;
            w.resid[i] = y[row] - w.pred[row];
            for (f = 0; f < F; f++) {
                w.xcol[f * m + i] = X[row * F + f];
            }
        }
        sort_round(P, &w, chosen);

        t.feature = feature + used;
        t.threshold = threshold + used;
        t.left = left + used;
        t.right = right + used;
        t.value = value + used;
        rc = build_tree(P, &w, &t);
        if (rc != 0) {
            break;
        }
        used += t.nodes;
        tree_nodes[r] = t.nodes;
        tree_depth[r] = t.depth;
        rounds_run = r + 1;
        kept = rounds_run;

        add_tree(P, &t, X, n, w.pred);
        train_loss = numpy_mse(y, w.pred, n, w.sq);
        history[r] = train_loss;
        if (nv > 0) {
            double val_loss;
            add_tree(P, &t, X_val, nv, w.val_pred);
            val_loss = numpy_mse(y_val, w.val_pred, nv, w.sq);
            if (val_loss < best_val - 1e-12) {
                best_val = val_loss;
                best_round = r + 1;
                stale = 0;
            } else if (++stale >= P->early_stopping_rounds) {
                kept = best_round;
                break;
            }
        }
    }
    out_counts[0] = rounds_run;
    out_counts[1] = kept;
    free_work(&w);
    return rc;
}

/* Predict every row of X (rows x P->features, row-major) through a fitted
 * forest: P->rounds trees one after another in the five node arrays, tree
 * k's nodes from slot starts[k] on, child indices local to the tree, as
 * repro_gbt_fit writes them.  out[i] starts at P->base, and each tree in
 * order adds P->learning_rate times row i's leaf value.  Of P it reads
 * features, rounds, learning_rate and base; it writes only out, so calls
 * may share a forest from several threads.  Returns 0. */
int repro_gbt_predict(const GbtParams *P,
                      const i64 *starts,
                      i64 *feature,
                      double *threshold,
                      i64 *left,
                      i64 *right,
                      double *value,
                      const double *X,
                      i64 rows,
                      double *out) {
    i64 i, k;
    for (i = 0; i < rows; i++) {
        out[i] = P->base;
    }
    for (k = 0; k < P->rounds; k++) {
        Tree t;
        t.feature = feature + starts[k];
        t.threshold = threshold + starts[k];
        t.left = left + starts[k];
        t.right = right + starts[k];
        t.value = value + starts[k];
        add_tree(P, &t, X, rows, out);
    }
    return 0;
}
